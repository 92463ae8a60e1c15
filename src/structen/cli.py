"""Command-line surface: entropy reports, the exact oracle, space building,
point insertion, and knowledge/abstraction tree extraction.

Exit codes: 0 ok, else the `exit_code` of the error raised (1 parse error,
2 invariant violation, 3 size guard); a file that cannot be read exits 1.
All output is deterministic; real numbers print through `format_real`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import GraphParseError, InvariantViolation, StructenError
from .graph import (Graph, format_real, is_integer, load_graph, load_similarity_csv,
                    one_dim_entropy, read_text)
from .learning import (DataSpace, FeatureCatalog, FeatureSet, abstraction_tree,
                       build_data_space, check_strict_growth, insert_point,
                       is_token_list, knowledge_tree)
from .metrics import info_report
from .optimize import brute_force_kd, minimize_kd
from .tree import deserialize, fold, format_path, serialize


def _read_json(path):
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"{path}: {exc}") from None
    except RecursionError:
        raise GraphParseError(f"{path}: document nested too deeply") from None


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _module_lines(g: Graph, tree) -> list[str]:
    lines = []
    for child in tree.root.children:
        members = " ".join(g.vertex_ids[v] for v in sorted(child.vertices))
        lines.append(f"module {members}")
    return lines


def cmd_entropy(args) -> int:
    g = load_graph(args.graph)
    if args.tree:
        t = deserialize(g, _read_json(args.tree))
        sys.stdout.write(info_report(g, t).to_text())
    elif args.dim is not None:
        result = minimize_kd(g, args.dim)
        print(f"h1 {format_real(one_dim_entropy(g))}")
        print(f"h_t {format_real(result.entropy)}")
        for line in _module_lines(g, result.tree):
            print(line)
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write(result.trace_text())
    else:
        print(f"h1 {format_real(one_dim_entropy(g))}")
    return 0


def cmd_oracle(args) -> int:
    g = load_graph(args.graph)
    result = brute_force_kd(g, args.height)
    print(f"optimum {format_real(result.entropy)}")
    for line in _module_lines(g, result.tree):
        print(line)
    if args.out:
        _write_json(args.out, serialize(g, result.tree))
    return 0


def cmd_build(args) -> int:
    ids, sim = load_similarity_csv(args.similarity)
    catalog = FeatureCatalog.from_dict(_read_json(args.features)) if args.features \
        else FeatureCatalog({vid: FeatureSet() for vid in ids})
    ds = build_data_space(sim, catalog, height=args.height, ids=ids)
    for k, d in ds.sweep:
        print(f"kappa {k} decode {format_real(d)}")
    print(f"chosen {ds.construction_k}")
    for line in _module_lines(ds.graph, ds.decoder):
        print(line)
    if args.graph_out:
        with open(args.graph_out, "w", encoding="utf-8") as fh:
            for u, v, w in ds.graph.edges:
                fh.write(f"{ds.graph.vertex_ids[u]}\t{ds.graph.vertex_ids[v]}\t{format_real(w)}\n")
    if args.space_out:
        _write_json(args.space_out, _space_doc(ds))
    return 0


def _space_doc(ds: DataSpace) -> dict:
    g = ds.graph
    return {
        "vertices": list(g.vertex_ids),
        "edges": [[g.vertex_ids[u], g.vertex_ids[v], w] for u, v, w in g.edges],
        "decoder": serialize(g, ds.decoder),
        "catalog": ds.catalog.to_dict(),
        "height": ds.height,
        "construction_k": ds.construction_k,
        "abstraction_source": ds.abstraction_source,
    }


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _space_from_doc(doc) -> DataSpace:
    for key in ("vertices", "edges", "decoder", "catalog", "height", "construction_k"):
        if not isinstance(doc, dict) or key not in doc:
            raise GraphParseError(f"space document: missing {key!r}")
    for key in ("height", "construction_k"):
        if not is_integer(doc[key]):
            raise GraphParseError(f"space document: {key!r} must be an integer")
    if not isinstance(doc["vertices"], list):
        raise GraphParseError("space document: 'vertices' must be a list")
    edges = doc["edges"]
    if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 3 for e in edges):
        raise GraphParseError("space document: each edge must be a [u, v, weight] list")
    if not all(_is_number(w) for _, _, w in edges):
        raise GraphParseError("space document: edge weights must be numbers")
    source = doc.get("abstraction_source", "syntax")
    if not isinstance(source, str):
        raise GraphParseError("space document: 'abstraction_source' must be a string")
    g = Graph(doc["vertices"], edges)
    decoder = deserialize(g, doc["decoder"])
    catalog = FeatureCatalog.from_dict(doc["catalog"])
    return DataSpace(g, decoder, catalog, doc["construction_k"], doc["height"], (), source)


def cmd_insert(args) -> int:
    ds = _space_from_doc(_read_json(args.space))
    point = _read_json(args.point)
    if not isinstance(point, dict) or "id" not in point or "sims" not in point:
        raise GraphParseError(f"{args.point}: point document needs 'id' and 'sims'")
    if not isinstance(point["id"], (str, int)) or isinstance(point["id"], bool):
        raise GraphParseError(f"{args.point}: 'id' must be a string or an integer")
    sims = point["sims"]
    if not isinstance(sims, dict) or not all(_is_number(w) for w in sims.values()):
        raise GraphParseError(f"{args.point}: 'sims' must map vertex ids to weights")
    for key in ("syntax", "semantics"):
        if not is_token_list(point.get(key, [])):
            raise GraphParseError(f"{args.point}: {key!r} must be a list of tokens")
    updated, report = insert_point(ds, point["id"], sims,
                                   syntax=point.get("syntax", []),
                                   semantics=point.get("semantics", []))
    print(f"abstraction {format_path(report.abstraction)}")
    print(f"k {report.chosen_k}")
    print(f"module {' '.join(report.module)}")
    print(f"h_before {format_real(report.h_before)}")
    print(f"h_after {format_real(report.h_after)}")
    if args.out:
        _write_json(args.out, _space_doc(updated))
    return 0


def _feature_tree_doc(g: Graph, root, leaf_vertex: bool) -> dict:
    def node_doc(node, children) -> dict:
        doc: dict = {"features": sorted(node.features)}
        if node.is_leaf and leaf_vertex and len(node.vertices) == 1:
            doc["vertex"] = g.vertex_ids[next(iter(node.vertices))]
        else:
            doc["vertices"] = sorted(g.vertex_ids[v] for v in node.vertices)
            doc["children"] = children
        return doc

    return fold(root, node_doc)


def cmd_knowledge(args) -> int:
    g = load_graph(args.graph)
    t = deserialize(g, _read_json(args.tree))
    catalog = FeatureCatalog.from_dict(_read_json(args.features))
    kt = knowledge_tree(g, t, catalog, source="all")
    at = abstraction_tree(kt)
    msg = check_strict_growth(at)
    if msg:
        raise InvariantViolation(msg)
    print(f"root-features {' '.join(sorted(kt.root.features))}".rstrip())
    if args.out:
        _write_json(args.out, {"knowledge": _feature_tree_doc(g, kt.root, True),
                               "abstractions": _feature_tree_doc(g, at.root, False)})
    return 0


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="structen",
        description="Structural entropy toolkit: tree-entropy metrics, "
                    "minimization, and data-space learning.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="degree entropy, tree report, or greedy minimum")
    p.add_argument("--graph", required=True, help="edge-list file: u v [weight]")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--tree", help="encoding-tree JSON for a full report")
    group.add_argument("--dim", type=int, help="greedy-minimize at this height cap")
    p.add_argument("--trace", help="with --dim: write the optimizer trace here")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("oracle", help="exact optimum (small graphs)")
    p.add_argument("--graph", required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--out", help="write the argmin tree JSON here")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("build", help="build a data space from a similarity CSV")
    p.add_argument("--similarity", required=True)
    p.add_argument("--height", type=int, default=2)
    p.add_argument("--features", help="feature catalog JSON (optional)")
    p.add_argument("--graph-out", help="write the chosen graph's edge list here")
    p.add_argument("--space-out", help="write the space JSON here")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("insert", help="stream one point into a stored space")
    p.add_argument("--space", required=True)
    p.add_argument("--point", required=True, help="JSON: id, sims, syntax, semantics")
    p.add_argument("--out", help="write the updated space here")
    p.set_defaults(func=cmd_insert)

    p = sub.add_parser("knowledge", help="knowledge and abstraction trees of a decoder")
    p.add_argument("--graph", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", help="write both tree documents here")
    p.set_defaults(func=cmd_knowledge)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trace", None) and args.dim is None:
        parser.error("--trace needs --dim")
    try:
        return args.func(args)
    except (StructenError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)  # a file that cannot be read exits 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
