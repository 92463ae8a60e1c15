"""Metamorphic checks: what the package decodes does not depend on the unit
of the weights, the order of the edges or the labels of the vertices.

Structural entropy reads weights only through ratios, g_a / vol(G) and
V_a / V_parent.  Multiplying every weight by 2^e is exact in floating
point, so it must change no output bit: every check of the package's own
numbers has to be scale-free for that to hold.  Reordering the edges or
relabelling the vertices reorders float folds, so entropies may move in
the last bits, but the trees must not.
"""

import contextlib
import io
import json
import math
import random
import sys
from pathlib import Path

import pytest

import structen as st
from structen.cli import main
from structen.tree import walk

sys.path.append(str(Path(__file__).resolve().parents[1] / "benchmarks"))
from inputs import (catalog, planted_blocks, point, sparse_graph,
                    write_edges, write_similarity)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def unscaled(doc, e):
    """A space document, or its `edges` and `decoder`, with every weight and
    cached stat divided by 2^e, which is exact."""
    doc["edges"] = [[u, v, math.ldexp(w, -e)] for u, v, w in doc["edges"]]
    nodes = [doc["decoder"]]
    for node in nodes:
        node["vol"], node["cut"] = math.ldexp(node["vol"], -e), math.ldexp(node["cut"], -e)
        nodes.extend(node.get("children", ()))
    return doc


class TestWeightUnit:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_entropy_command(self, tmp_path, seed, k):
        edges = sparse_graph(random.Random(seed), 60, 120)
        outputs = {}
        for e in (0, 20, 40):
            path = tmp_path / f"g{e}.tsv"
            write_edges(path, [(u, v, math.ldexp(w, e)) for u, v, w in edges])
            outputs[e] = run("entropy", "--graph", path, "--dim", k)
        assert outputs[0][0] == 0
        assert outputs[20] == outputs[0] and outputs[40] == outputs[0]

    @pytest.mark.parametrize("height", [2, 3])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_build_command(self, tmp_path, seed, height):
        ids, _, sim = planted_blocks(random.Random(seed), 4, 4)
        outputs = {}
        for e in (0, 24, 48):
            csv, space = tmp_path / f"sim{e}.csv", tmp_path / f"space{e}.json"
            write_similarity(csv, ids, [[math.ldexp(x, e) for x in row] for row in sim])
            result = run("build", "--similarity", csv, "--height", height, "--space-out", space)
            outputs[e] = result, space.exists() and unscaled(
                json.loads(space.read_text(encoding="utf-8")), e)
        assert outputs[0][0][0] == 0
        assert outputs[24] == outputs[0] and outputs[48] == outputs[0]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_insert_point(self, seed):
        def chain(e):
            rng = random.Random(seed)
            ids, block_of, sim = planted_blocks(rng, 4, 4)
            features = st.FeatureCatalog.from_dict(catalog(rng, block_of))
            ds = st.build_data_space([[math.ldexp(x, e) for x in row] for row in sim],
                                     features, height=2, ids=ids)
            reports = []
            for i in range(3):
                doc = point(rng, f"x{i}", rng.randrange(4), block_of)
                sims = {vid: math.ldexp(w, e) for vid, w in doc["sims"].items()}
                ds, report = st.insert_point(ds, doc["id"], sims, doc["syntax"], doc["semantics"])
                reports.append(report)
            decoder = st.serialize(ds.graph, ds.decoder)
            return ds.sweep, reports, unscaled({"edges": ds.graph.edges, "decoder": decoder}, e)

        assert chain(30) == chain(0)


@pytest.mark.parametrize("e", [0, 20], ids=["unit-1", "unit-2^20"])
@pytest.mark.parametrize("k", [2, 3])
def test_edge_order_and_vertex_labels(k, e):
    # 60 sparse graphs: a shuffled edge list decodes the same tree, and
    # relabelled vertices the relabelled tree, with the entropy within 1e-9
    n = 20

    def markers(result, label=lambda v: v):
        return {frozenset(map(label, node.vertices)) for _, node in walk(result.tree.root)}

    for seed in range(1, 61):
        rng = random.Random(seed)
        edges = [(int(u[1:]), int(v[1:]), math.ldexp(w, e))
                 for u, v, w in sparse_graph(rng, n, 2 * n)]
        base = st.minimize_kd(st.Graph.from_index_edges(n, edges), k)
        shuffled = rng.sample(edges, len(edges))
        moved = st.minimize_kd(st.Graph.from_index_edges(n, shuffled), k)
        assert markers(moved) == markers(base), seed
        assert moved.entropy == pytest.approx(base.entropy, abs=1e-9), seed
        label = rng.sample(range(n), n)
        relabelled = st.minimize_kd(st.Graph.from_index_edges(
            n, [(label[u], label[v], w) for u, v, w in edges]), k)
        assert markers(relabelled) == markers(base, label.__getitem__), seed
        assert relabelled.entropy == pytest.approx(base.entropy, abs=1e-9), seed
