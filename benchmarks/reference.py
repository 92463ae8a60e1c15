"""Reference computations and output checks, independent of structen.

Nothing here imports structen.  Tree entropy is computed from an edge list
and a tree document: every node's volume is summed from degrees, and every
node's cut is accumulated per edge from the two endpoints' root-to-leaf
chains.  Each `check_*` function returns a list of error strings; an empty
list means the output is correct.
"""

from __future__ import annotations

import math

# Printed reals carry 9 decimals, so a printed value may sit up to 5e-10
# from the exact one; the rest of the margin covers summation order.
TOL = 1e-9


def degrees(edges) -> dict[str, float]:
    deg: dict[str, float] = {}
    for u, v, w in edges:
        deg[u] = deg.get(u, 0.0) + w
        deg[v] = deg.get(v, 0.0) + w
    return deg


def degree_entropy(edges) -> float:
    """Shannon entropy of the degree distribution."""
    deg = degrees(edges)
    vol = sum(deg.values())
    return -sum(d / vol * math.log2(d / vol) for d in deg.values())


def _flatten(doc):
    """Nodes of a tree document as (parent index, leaf vertex or None), root first."""
    nodes = []
    stack = [(doc, -1)]
    while stack:
        node, parent = stack.pop()
        index = len(nodes)
        nodes.append((parent, node.get("vertex")))
        for child in node.get("children", ()):
            stack.append((child, index))
    return nodes


def _chains(nodes) -> dict[str, list[int]]:
    """Root-to-leaf node-index chain of every leaf vertex."""
    chains = {}
    for index, (_, vertex) in enumerate(nodes):
        if vertex is None:
            continue
        chain = []
        at = index
        while at != -1:
            chain.append(at)
            at = nodes[at][0]
        chains[str(vertex)] = chain[::-1]
    return chains


def tree_entropy(edges, doc) -> float:
    """H(T) = -sum over non-root nodes a of (g_a / vol) log2(V_a / V_parent)."""
    nodes = _flatten(doc)
    chains = _chains(nodes)
    deg = degrees(edges)
    vol_g = sum(deg.values())
    vol = [0.0] * len(nodes)
    cut = [0.0] * len(nodes)
    for vertex, chain in chains.items():
        for index in chain:
            vol[index] += deg[vertex]
    for u, v, w in edges:
        cu, cv = chains[u], chains[v]
        shared = 0
        while shared < min(len(cu), len(cv)) and cu[shared] == cv[shared]:
            shared += 1
        for index in cu[shared:] + cv[shared:]:
            cut[index] += w
    return -sum(cut[i] / vol_g * math.log2(vol[i] / vol[parent])
                for i, (parent, _) in enumerate(nodes) if parent != -1)


def partition_doc(modules) -> dict:
    """Two-level tree document: one child per module, singletons as leaves."""
    return {"children": [{"vertex": m[0]} if len(m) == 1 else
                         {"children": [{"vertex": v} for v in m]} for m in modules]}


def leaves_below(doc) -> list[str]:
    out = []
    stack = [doc]
    while stack:
        node = stack.pop()
        if "vertex" in node:
            out.append(str(node["vertex"]))
        stack.extend(node.get("children", ()))
    return out


def node_leaf_sets(doc) -> set[frozenset]:
    """Leaf-vertex set of every node of a tree document."""
    sets = set()

    def visit(node) -> frozenset:
        if "vertex" in node:
            below = frozenset((str(node["vertex"]),))
        else:
            below = frozenset().union(*(visit(c) for c in node.get("children", ())))
        sets.add(below)
        return below

    visit(doc)
    return sets


def tree_height(doc) -> int:
    height = 0
    stack = [(doc, 0)]
    while stack:
        node, depth = stack.pop()
        height = max(height, depth)
        stack.extend((c, depth + 1) for c in node.get("children", ()))
    return height


def _parse(stdout: str, errors: list[str]):
    """Map each leading keyword to its list of remaining-field lists."""
    fields: dict[str, list[list[str]]] = {}
    for line in stdout.splitlines():
        parts = line.split()
        if not parts:
            errors.append("blank output line")
            continue
        fields.setdefault(parts[0], []).append(parts[1:])
    return fields


def _real(fields, key, errors) -> float | None:
    values = fields.get(key, [])
    if len(values) != 1 or len(values[0]) != 1:
        errors.append(f"expected one '{key} <real>' line")
        return None
    try:
        return float(values[0][0])
    except ValueError:
        errors.append(f"'{key}' is not a number: {values[0][0]!r}")
        return None


def _modules(fields, vertices, errors) -> list[list[str]]:
    modules = fields.get("module", [])
    members = [v for m in modules for v in m]
    if not modules or any(not m for m in modules):
        errors.append("module lines missing or empty")
    elif len(members) != len(set(members)) or set(members) != set(vertices):
        errors.append("printed modules do not partition the vertices")
    return modules


def check_entropy_dim(stdout: str, edges, k: int) -> list[str]:
    """Output of `entropy --dim k` on the given edge list."""
    errors: list[str] = []
    fields = _parse(stdout, errors)
    h1, h_t = _real(fields, "h1", errors), _real(fields, "h_t", errors)
    modules = _modules(fields, degrees(edges), errors)
    if errors or set(fields) != {"h1", "h_t", "module"}:
        return errors or [f"unexpected output keywords {sorted(fields)}"]
    ref_h1 = degree_entropy(edges)
    if abs(h1 - ref_h1) > TOL:
        errors.append(f"h1 {h1!r} differs from reference {ref_h1!r}")
    if h_t > h1 + TOL:
        errors.append(f"h_t {h_t!r} exceeds h1 {h1!r}")
    if len(modules) < 2:
        errors.append("the root needs at least two modules")
        return errors
    h_partition = tree_entropy(edges, partition_doc(modules))
    if k == 2 and abs(h_t - h_partition) > TOL:
        errors.append(f"h_t {h_t!r} differs from the printed partition's entropy {h_partition!r}")
    if k > 2 and h_t > h_partition + TOL:
        errors.append(f"h_t {h_t!r} exceeds the printed partition's entropy {h_partition!r}")
    return errors


def positive_pairs(ids, sim) -> list[tuple[float, int, int]]:
    """Off-diagonal positive pairs, heaviest first, then by index pair."""
    n = len(ids)
    pairs = [(sim[i][j], i, j) for i in range(n) for j in range(i + 1, n) if sim[i][j] > 0]
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
    return pairs


def smallest_connecting_count(n: int, pairs) -> int:
    """Fewest heaviest pairs whose graph is connected (union by relabelling)."""
    label = list(range(n))
    components = n
    for count, (_, i, j) in enumerate(pairs, start=1):
        a, b = label[i], label[j]
        if a != b:
            label = [a if x == b else x for x in label]
            components -= 1
            if components == 1:
                return count
    raise ValueError("the pairs never connect the samples")


def read_tsv_edges(text: str) -> list[tuple[str, str, str]]:
    return [tuple(line.split("\t")) for line in text.splitlines()]


def check_build(stdout: str, ids, sim, block_of, height: int,
                graph_text: str, space: dict) -> list[str]:
    """Output of `build --height h` with --graph-out and --space-out."""
    errors: list[str] = []
    fields = _parse(stdout, errors)
    if errors or set(fields) != {"kappa", "chosen", "module"}:
        return errors or [f"unexpected output keywords {sorted(fields)}"]
    pairs = positive_pairs(ids, sim)
    first = smallest_connecting_count(len(ids), pairs)
    try:
        kappas = [int(f[0]) for f in fields["kappa"]]
        decodes = [float(f[2]) for f in fields["kappa"]]
        chosen = int(fields["chosen"][0][0])
    except (ValueError, IndexError):
        return ["kappa/chosen lines are malformed"]
    if kappas != list(range(first, len(pairs) + 1)):
        errors.append(f"kappa lines run {kappas[0]}..{kappas[-1]}, "
                      f"expected {first}..{len(pairs)}")
    if any(f[1] != "decode" for f in fields["kappa"]) or len(fields["chosen"]) != 1:
        errors.append("kappa/chosen lines are malformed")
    if chosen not in kappas:
        return errors + [f"chosen {chosen} is not a swept count"]
    best = max(decodes)
    if kappas[decodes.index(best)] != chosen:
        errors.append(f"chosen {chosen} is not the first argmax of the decode values")

    top = pairs[:chosen]
    expected_tsv = {(frozenset((ids[i], ids[j])), f"{w:.9f}") for w, i, j in top}
    written = read_tsv_edges(graph_text)
    if len(written) != chosen or {(frozenset(e[:2]), e[2]) for e in written} != expected_tsv:
        errors.append("the written graph does not hold exactly the top-chosen pairs")
    edges = space_edges(space)
    if len(edges) != chosen or \
            _by_pair(edges) != {frozenset((ids[i], ids[j])): w for w, i, j in top}:
        errors.append("the space document's edges are not the top-chosen pairs")
        return errors
    decode_ref = degree_entropy(edges) - tree_entropy(edges, space["decoder"])
    if abs(decodes[kappas.index(chosen)] - decode_ref) > TOL:
        errors.append(f"decode at chosen {decodes[kappas.index(chosen)]!r} differs from "
                      f"h1 - H(decoder) = {decode_ref!r}")
    if tree_height(space["decoder"]) > height or space["height"] != height:
        errors.append("the decoder is taller than the height cap")
    printed = {frozenset(m) for m in fields["module"]}
    if printed != {frozenset(leaves_below(c)) for c in space["decoder"].get("children", ())}:
        errors.append("the printed modules are not the decoder's top-level modules")
    # The planted blocks come back as nodes of the decoder.  At height 2 that
    # makes them the printed modules; above it a module may join whole blocks
    # that cross-block edges tie together, which can give a lower H(T) than
    # the planted partition's, so that is allowed.
    blocks: dict[int, set] = {}
    for vid, b in block_of.items():
        blocks.setdefault(b, set()).add(vid)
    nodes = node_leaf_sets(space["decoder"])
    if any(frozenset(b) not in nodes for b in blocks.values()):
        errors.append("the planted blocks are not nodes of the decoder")
    if sorted(leaves_below(space["decoder"])) != sorted(ids):
        errors.append("the decoder's leaves are not the samples")
    return errors


def space_edges(space) -> list[tuple[str, str, float]]:
    return [(str(u), str(v), float(w)) for u, v, w in space["edges"]]


def _by_pair(edges) -> dict[frozenset, float]:
    return {frozenset((u, v)): w for u, v, w in edges}


def _find_leaf(doc, vertex):
    """(parent node, depth) of every leaf carrying this vertex."""
    found = []
    stack = [(doc, None, 0)]
    while stack:
        node, parent, depth = stack.pop()
        if node.get("vertex") == vertex:
            found.append((parent, depth))
        stack.extend((c, node, depth + 1) for c in node.get("children", ()))
    return found


def check_insert(stdout: str, space_in: dict, space_out: dict, point: dict) -> list[str]:
    """Output of `insert --space in --point p --out out`."""
    errors: list[str] = []
    fields = _parse(stdout, errors)
    h_before, h_after = _real(fields, "h_before", errors), _real(fields, "h_after", errors)
    if errors or set(fields) != {"abstraction", "k", "module", "h_before", "h_after"}:
        return errors or [f"unexpected output keywords {sorted(fields)}"]
    pid = point["id"]
    try:
        k = int(fields["k"][0][0])
    except (ValueError, IndexError):
        return ["k line is malformed"]
    edges_in, edges_out = space_edges(space_in), space_edges(space_out)
    ref_before = tree_entropy(edges_in, space_in["decoder"])
    ref_after = tree_entropy(edges_out, space_out["decoder"])
    if abs(h_before - ref_before) > TOL:
        errors.append(f"h_before {h_before!r} differs from reference {ref_before!r}")
    if abs(h_after - ref_after) > TOL:
        errors.append(f"h_after {h_after!r} differs from reference {ref_after!r}")

    if space_out["vertices"] != space_in["vertices"] + [pid]:
        errors.append("the output vertices are not the input vertices plus the point")
    order = {vid: i for i, vid in enumerate(space_in["vertices"])}
    ranked = sorted(((w, order[v]) for v, w in point["sims"].items() if w > 0),
                    key=lambda t: (-t[0], t[1]))
    expected_new = {frozenset((space_in["vertices"][i], pid)): w for w, i in ranked[:k]}
    old, new = _by_pair(edges_in), _by_pair(edges_out)
    added = {e: w for e, w in new.items() if e not in old}
    if not 1 <= k <= len(ranked) or added != expected_new:
        errors.append(f"the new edges are not the point's top-{k} similarities")
    if any(new.get(e) != w for e, w in old.items()):
        errors.append("existing edges changed")

    leaves = _find_leaf(space_out["decoder"], pid)
    module = fields["module"]
    if len(leaves) != 1 or len(module) != 1:
        errors.append("the point is not exactly one leaf / one printed module")
    else:
        parent, depth = leaves[0]
        expected = [pid] if depth == 1 else leaves_below(parent)
        if sorted(expected) != sorted(module[0]):
            errors.append("the point's leaf is not inside the printed module")
    if tree_height(space_out["decoder"]) > space_in["height"]:
        errors.append("the decoder grew taller than the space's height")
    return errors
