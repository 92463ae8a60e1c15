"""Tree-entropy minimization: greedy merge/combine search plus exact oracles.

The greedy starts from the star tree and runs three phases:

  1. agglomerate: apply the sibling-pair operation with the largest
     positive entropy decrease, height-unbounded,
       * merge   - fuse two sibling modules into one (their children
                   become siblings under the fused node),
       * combine - insert a new common parent above two siblings;
  2. compress: while the tree exceeds the height cap, flatten the
     over-deep internal node whose removal costs the least entropy;
  3. polish: rerun phase 1 under the cap.

Restricting phase 1 to the cap traps the search in flat local optima
(merging across a bridge can beat completing a clique), which the
uncapped pass followed by compression avoids.  Only pairs with positive
cross weight are candidates, deltas are evaluated locally, and ties break
deterministically on (min vertex of A, min vertex of B) with merge
preferred over combine.

The phases are incremental.  Each keeps a parent map, cached subtree
heights and min vertices, updated along the changed path only (`_Shape`),
and a heap of candidates keyed by the tie-break, invalidated lazily by
per-node stamps.  The greedy phases also keep, for every sibling pair, the
indices of the edges between the two in `g.edges` order.  A merge or
combine re-scores only the pairs it touched: the new node with its
siblings, the pairs under a fused node (their parent volume changed), and
the parent with its own siblings (its children changed).  A flatten
re-scores the parent and the promoted children.  Every candidate is scored
by the same float expressions on the same operands as a full rescan would
use, and a pair's weight is summed over its edges in `g.edges` order, so
each step picks the same move with the same delta: traces, trees and
entropies are identical to the exhaustive search, bit for bit.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

from .errors import GraphParseError, InvariantViolation, SizeGuardExceeded
from .graph import Graph, left_sum, one_dim_entropy
from .metrics import structural_entropy
from .tree import (EncodingTree, TreeNode, build_tree, format_path,
                   from_partition, parse_path, refresh_stats, star_tree)

DELTA_TOL = 1e-12
REPLAY_TOL = 1e-9
_STEP_KINDS = ("merge", "combine", "flatten")


@dataclass(frozen=True)
class TraceStep:
    kind: str                # "merge", "combine" or "flatten"
    a: tuple[int, ...]       # path of the first operand when applied
    b: tuple[int, ...]       # second operand; the parent for a flatten
    delta: float

    def format(self, step: int) -> str:
        return f"{step} {self.kind} {format_path(self.a)} {format_path(self.b)} {self.delta:.9f}"


@dataclass(frozen=True)
class OptimizeResult:
    tree: EncodingTree
    entropy: float
    trace: tuple[TraceStep, ...]

    def partition(self) -> list[frozenset]:
        """Markers of the root's children, in child order."""
        return [c.vertices for c in self.tree.root.children]

    def trace_text(self) -> str:
        return "".join(s.format(i) + "\n" for i, s in enumerate(self.trace))


def cross_weight(g: Graph, a, b) -> float:
    """Total edge weight between two disjoint vertex sets, folded in edge order."""
    a, b = frozenset(a), frozenset(b)
    return left_sum(w for u, v, w in g.edges if u in a and v in b or u in b and v in a)


def _flat_merge_delta(vol: float, v_parent: float, va: float, ga: float,
                      vb: float, gb: float, w_ab: float) -> float:
    # Entropy drop from fusing flat sibling modules A, B under a parent of
    # volume v_parent; the per-leaf d*log2(d) parts cancel.
    lp = math.log2(v_parent)
    la, lb = math.log2(va), math.log2(vb)
    vm = va + vb
    gm = ga + gb - 2.0 * w_ab
    lm = math.log2(vm)
    return (ga * (lp - la) + gb * (lp - lb) - gm * (lp - lm)
            + va * la + vb * lb - vm * lm) / vol


def merge_delta(g: Graph, t: EncodingTree, a, b) -> float:
    """Entropy decrease from fusing two flat sibling modules (or leaves).

    Positive means the merge improves.  Depends only on the two modules'
    volumes, cuts, their cross weight, the parent volume and vol(G).
    """
    pa, pb = tuple(a), tuple(b)
    if not pa or not pb or pa[:-1] != pb[:-1] or pa == pb:
        raise InvariantViolation("merge_delta needs two distinct sibling nodes")
    na, nb = t.node_at(pa), t.node_at(pb)
    if max(na.height(), nb.height()) > 1:
        raise InvariantViolation("merge_delta needs flat modules (children must be leaves)")
    parent = t.node_at(pa[:-1])
    w = cross_weight(g, na.vertices, nb.vertices)
    return _flat_merge_delta(g.volume, parent.vol, na.vol, na.cut, nb.vol, nb.cut, w)


def _general_merge_delta(vol: float, parent: TreeNode, a: TreeNode, b: TreeNode,
                         w_ab: float) -> float:
    # Local recomputation over the affected terms: the two operands, their
    # children (re-parented under the fused node), and nothing else.
    def contrib(cut, v, v_up):
        return -(cut / vol) * math.log2(v / v_up)

    before = contrib(a.cut, a.vol, parent.vol) + contrib(b.cut, b.vol, parent.vol)
    for c in a.children:
        before += contrib(c.cut, c.vol, a.vol)
    for c in b.children:
        before += contrib(c.cut, c.vol, b.vol)
    vm = a.vol + b.vol
    gm = a.cut + b.cut - 2.0 * w_ab
    after = contrib(gm, vm, parent.vol)
    for c in (a.children or [a]):
        after += contrib(c.cut, c.vol, vm)
    for c in (b.children or [b]):
        after += contrib(c.cut, c.vol, vm)
    return before - after


def _combine_delta(vol: float, v_parent: float, va: float, vb: float, w_ab: float) -> float:
    # Only the shared prefix changes: 2 w_ab * log2(V_parent / (V_a + V_b)) / vol.
    return 2.0 * w_ab / vol * math.log2(v_parent / (va + vb))


def _merged_node(a: TreeNode, b: TreeNode, w_ab: float) -> TreeNode:
    children = list(a.children or [a]) + list(b.children or [b])
    children.sort(key=TreeNode.min_vertex)
    return TreeNode(a.vertices | b.vertices, a.vol + b.vol,
                    a.cut + b.cut - 2.0 * w_ab, children)


def _combined_node(a: TreeNode, b: TreeNode, w_ab: float) -> TreeNode:
    children = sorted([a, b], key=TreeNode.min_vertex)
    return TreeNode(a.vertices | b.vertices, a.vol + b.vol,
                    a.cut + b.cut - 2.0 * w_ab, children)


def _replace_pair(parent: TreeNode, a: TreeNode, b: TreeNode, new: TreeNode) -> None:
    # The new node takes the earlier operand's slot: min-vertex order holds.
    i, j = parent.children.index(a), parent.children.index(b)
    parent.children[min(i, j)] = new
    del parent.children[max(i, j)]


def combine_apply(g: Graph, t: EncodingTree, a, b, height_cap: int | None = None) -> EncodingTree:
    """Insert a new parent above siblings a and b; returns a new tree."""
    pa, pb = tuple(a), tuple(b)
    if not pa or not pb or pa[:-1] != pb[:-1] or pa == pb:
        raise InvariantViolation("combine_apply needs two distinct sibling nodes")
    out = t.copy()
    parent = out.node_at(pa[:-1])
    if len(parent.children) < 3:
        raise InvariantViolation("combine would leave the parent with a single child")
    na, nb = out.node_at(pa), out.node_at(pb)
    if height_cap is not None:
        depth = len(pa) - 1
        new_height = depth + 2 + max(na.height(), nb.height())
        if new_height > height_cap:
            raise InvariantViolation(f"height cap exceeded ({new_height} > {height_cap})")
    w = cross_weight(g, na.vertices, nb.vertices)
    _replace_pair(parent, na, nb, _combined_node(na, nb, w))
    parent.children.sort(key=TreeNode.min_vertex)  # a user's tree may be unordered
    return out


def minimize_2d(g: Graph) -> OptimizeResult:
    """Greedy two-level minimization; the root children are the partition."""
    return minimize_kd(g, 2)


class _Shape:
    """Parent links, subtree heights and min vertices of a tree that a phase
    edits in place; each edit updates them along the changed path only."""

    __slots__ = ("parent", "height", "low")

    def __init__(self, t: EncodingTree):
        self.parent: dict[TreeNode, TreeNode] = {}
        self.height: dict[TreeNode, int] = {}
        self.low: dict[TreeNode, int] = {}
        order = [t.root]
        for node in order:
            for c in node.children:
                self.parent[c] = node
                order.append(c)
        for node in reversed(order):
            if node.is_leaf:
                self.height[node], self.low[node] = 0, node.vertex
            else:
                self.height[node] = 1 + max(self.height[c] for c in node.children)
                self.low[node] = min(self.low[c] for c in node.children)

    def depth(self, node: TreeNode) -> int:
        d = 0
        while node in self.parent:
            node = self.parent[node]
            d += 1
        return d

    def path(self, node: TreeNode) -> tuple[int, ...]:
        out = []
        while node in self.parent:
            up = self.parent[node]
            out.append(up.children.index(node))
            node = up
        return tuple(reversed(out))

    def attach(self, node: TreeNode, up: TreeNode) -> None:
        """Register a node that a merge or combine just put under `up`."""
        for c in node.children:
            self.parent[c] = node
        self.parent[node] = up
        self.low[node] = self.low[node.children[0]]
        h = self.height[node] = 1 + max(self.height[c] for c in node.children)
        while up is not None and self.height[up] <= h:  # heights only grow here
            h = self.height[up] = h + 1
            up = self.parent.get(up)

    def detach(self, node: TreeNode) -> None:
        """Forget a node whose children were handed to another node."""
        del self.parent[node], self.height[node], self.low[node]

    def settle(self, node: TreeNode | None) -> None:
        """Recompute heights upward from a node that lost depth below it."""
        while node is not None:
            h = 1 + max(self.height[c] for c in node.children)
            if h == self.height[node]:
                return
            self.height[node] = h
            node = self.parent.get(node)


def _greedy_phase(g: Graph, t: EncodingTree, k: int | None,
                  trace: list[TraceStep]) -> None:
    # Apply the best merge or combine until none improves.  A lazily
    # invalidated heap holds every candidate keyed by the tie-break
    # (-delta, minA, minB, kind); an entry is live while both operands keep
    # the stamps they had when it was scored.  A node's stamp changes when
    # it moves to a new parent or its own children change, and each step
    # re-scores exactly the pairs whose operands, parent or parent volume
    # it changed.
    vol, edges = g.volume, g.edges
    shape = _Shape(t)
    parent, height, low = shape.parent, shape.height, shape.low
    tick = itertools.count()
    stamp = {node: next(tick) for node in height}
    leaf = {node.vertex: node for node in height if node.is_leaf}
    # rows[x][y]: indices of the edges between siblings x and y in g.edges
    # order; rows[x][y] and rows[y][x] are one list.
    rows: dict[TreeNode, dict[TreeNode, list[int]]] = {node: {} for node in height}
    for i, (u, v, _) in enumerate(edges):
        a, b = leaf[u], leaf[v]
        da, db = shape.depth(a), shape.depth(b)
        for _ in range(da - db):
            a = parent[a]
        for _ in range(db - da):
            b = parent[b]
        while parent[a] is not parent[b]:
            a, b = parent[a], parent[b]
        pair = rows[a].get(b)
        if pair is None:
            pair = rows[a][b] = rows[b][a] = []
        pair.append(i)

    heap: list[tuple] = []

    def fits(kind: int, a: TreeNode, b: TreeNode, up: TreeNode) -> bool:
        # The height cap; depth and heights never shrink within a phase, so
        # a pair that fails it once fails it for good.
        if k is None:
            return True
        depth = shape.depth(up)
        if kind == 0:
            return depth + 2 <= k or not (a.is_leaf or b.is_leaf)
        return depth + 2 + max(height[a], height[b]) <= k

    def score(a: TreeNode, b: TreeNode) -> None:
        up = parent[a]
        if len(up.children) < 3:  # child counts only shrink
            return
        if low[a] > low[b]:
            a, b = b, a
        w = 0.0
        for i in rows[a][b]:
            w += edges[i][2]
        if fits(0, a, b, up):
            if height[a] <= 1 and height[b] <= 1:
                d = _flat_merge_delta(vol, up.vol, a.vol, a.cut, b.vol, b.cut, w)
            else:
                d = _general_merge_delta(vol, up, a, b, w)
            if d > DELTA_TOL:
                heapq.heappush(heap, (-d, low[a], low[b], 0, next(tick),
                                      a, b, stamp[a], stamp[b], w))
        # A leaf-leaf combine builds the very tree the merge builds; skip it.
        if not (a.is_leaf and b.is_leaf) and fits(1, a, b, up):
            d = _combine_delta(vol, up.vol, a.vol, b.vol, w)
            if d > DELTA_TOL:
                heapq.heappush(heap, (-d, low[a], low[b], 1, next(tick),
                                      a, b, stamp[a], stamp[b], w))

    def score_children(node: TreeNode) -> None:
        for c in node.children:
            for x in rows[c]:
                if low[c] < low[x]:
                    score(c, x)

    for node in height:
        score_children(node)

    def live(entry: tuple) -> bool:
        return stamp.get(entry[5]) == entry[7] and stamp.get(entry[6]) == entry[8]

    kept = len(heap)
    while heap:
        if len(heap) > 2 * kept + 64:  # most entries are dead: drop them
            heap[:] = [entry for entry in heap if live(entry)]
            heapq.heapify(heap)
            kept = len(heap)
        entry = heapq.heappop(heap)
        if not live(entry):
            continue
        neg_d, _, _, kind, _, a, b, _, _, w = entry
        up = parent[a]
        if len(up.children) < 3 or not fits(kind, a, b, up):
            continue
        ppath = shape.path(up)
        trace.append(TraceStep("merge" if kind == 0 else "combine",
                               ppath + (up.children.index(a),),
                               ppath + (up.children.index(b),), -neg_d))
        new = _merged_node(a, b, w) if kind == 0 else _combined_node(a, b, w)
        _replace_pair(up, a, b, new)

        between = rows[a].pop(b)
        del rows[b][a]
        row: dict[TreeNode, list[int]] = {}
        for side in (a, b):
            for x, pair in rows.pop(side).items():
                del rows[x][side]
                prev = row.get(x)
                row[x] = pair if prev is None else sorted(prev + pair)
        for x, pair in row.items():
            rows[x][new] = pair
        rows[new] = row
        if kind == 0:
            for side in (a, b):
                if side.is_leaf:
                    rows[side] = {}
                else:
                    shape.detach(side)
                    del stamp[side]
            shape.attach(new, up)
            # Split the A-B edges among the fused node's children.
            for i in between:
                u, v, _ = edges[i]
                cu, cv = leaf[u], leaf[v]
                while parent[cu] is not new:
                    cu = parent[cu]
                while parent[cv] is not new:
                    cv = parent[cv]
                pair = rows[cu].get(cv)
                if pair is None:
                    pair = rows[cu][cv] = rows[cv][cu] = []
                pair.append(i)
        else:
            rows[a], rows[b] = {b: between}, {a: between}
            shape.attach(new, up)
        for node in (new, up, *new.children):
            stamp[node] = next(tick)
        for x in row:
            score(new, x)
        score_children(new)
        for y in rows[up]:
            score(up, y)


def _flatten_delta(vol: float, parent: TreeNode, node: TreeNode) -> float:
    # Promoting the node's children to its parent undoes the node's share:
    # always <= 0, with magnitude 2*(internal cross weight)*log2(Vp/Vn)/vol.
    internal = sum(c.cut for c in node.children) - node.cut
    return internal / vol * math.log2(node.vol / parent.vol)


def _flatten(parent: TreeNode, node: TreeNode) -> None:
    parent.children = [c for c in parent.children if c is not node]
    parent.children.extend(node.children)
    parent.children.sort(key=TreeNode.min_vertex)


def _compress_phase(g: Graph, t: EncodingTree, k: int,
                    trace: list[TraceStep]) -> None:
    # While too tall, flatten the over-deep internal node costing the least.
    # The heap key (-delta, min vertex, -marker size) orders like the path
    # tie-break: nodes sharing a min vertex lie on one first-child chain,
    # where the shorter path is the larger marker.  A node's delta reads its
    # parent's volume and its children's cuts, so a flatten re-scores the
    # parent and the promoted children only; depth + height never grows, so
    # an entry no longer over-deep is dropped for good.
    vol = g.volume
    shape = _Shape(t)
    parent, height = shape.parent, shape.height
    tick = itertools.count()
    stamp: dict[TreeNode, int] = {}
    heap: list[tuple] = []

    def score(node: TreeNode) -> None:
        stamp.pop(node, None)
        if node.is_leaf or node not in parent or shape.depth(node) + height[node] <= k:
            return
        s = stamp[node] = next(tick)
        d = _flatten_delta(vol, parent[node], node)
        heapq.heappush(heap, (-d, shape.low[node], -len(node.vertices), s, node))

    for node in height:
        score(node)
    while heap:
        neg_d, _, _, s, node = heapq.heappop(heap)
        if stamp.get(node) != s or shape.depth(node) + height[node] <= k:
            continue
        up = parent[node]
        path = shape.path(node)
        _flatten(up, node)
        trace.append(TraceStep("flatten", path, path[:-1], -neg_d))
        del stamp[node]
        shape.detach(node)
        for c in node.children:
            parent[c] = up
        shape.settle(up)
        score(up)
        for c in node.children:
            score(c)


def minimize_kd(g: Graph, k: int) -> OptimizeResult:
    """Greedy minimization over trees of height at most k.

    Agglomerates height-unbounded, compresses back to the cap, then
    polishes with capped moves.  Merge and combine trace deltas are
    positive; flatten deltas are the (non-positive) exact entropy change.
    """
    if k < 2:
        raise InvariantViolation("height cap must be at least 2")
    t = star_tree(g)
    trace: list[TraceStep] = []
    _greedy_phase(g, t, None, trace)
    _compress_phase(g, t, k, trace)
    _greedy_phase(g, t, k, trace)
    return OptimizeResult(t, structural_entropy(g, t), tuple(trace))


def parse_trace(text: str) -> tuple[TraceStep, ...]:
    """Read optimizer-trace text, as `OptimizeResult.trace_text` writes it."""
    steps = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        try:
            if len(fields) != 5 or fields[0] != str(len(steps)) or fields[1] not in _STEP_KINDS:
                raise ValueError
            steps.append(TraceStep(fields[1], parse_path(fields[2]), parse_path(fields[3]),
                                   float(fields[4])))
        except ValueError:
            raise GraphParseError(f"trace line {lineno}: expected "
                                  f"'{len(steps)} <kind> <pathA> <pathB> <delta>'") from None
    return tuple(steps)


def replay_trace(g: Graph, trace) -> EncodingTree:
    """Re-apply trace steps from the star tree, checking every logged delta.

    Merge and combine use the optimizer's own node operations; a flatten
    promotes the node's children to its parent.  After each step every
    statistic is recomputed from the graph, and the step's delta must equal
    the drop in `structural_entropy` to within REPLAY_TOL.  Raises
    InvariantViolation at the first step that does not apply or disagrees.
    """
    t = star_tree(g)
    h = structural_entropy(g, t)
    for i, step in enumerate(trace):
        where = f"trace step {i} ({step.kind} {format_path(step.a)} {format_path(step.b)})"
        if step.kind not in _STEP_KINDS or not step.a:
            raise InvariantViolation(f"{where}: not a step the optimizer takes")
        if step.kind == "flatten":
            if step.b != step.a[:-1]:
                raise InvariantViolation(f"{where}: the second path must be the parent")
            node = t.node_at(step.a)
            if node.is_leaf:
                raise InvariantViolation(f"{where}: cannot flatten a leaf")
            _flatten(t.node_at(step.b), node)
        else:
            if step.a[:-1] != step.b[:-1] or step.a == step.b:
                raise InvariantViolation(f"{where}: operands are not two distinct siblings")
            parent = t.node_at(step.a[:-1])
            if len(parent.children) < 3:
                raise InvariantViolation(f"{where}: would leave the parent with a single child")
            a, b = t.node_at(step.a), t.node_at(step.b)
            w = cross_weight(g, a.vertices, b.vertices)
            new = _merged_node(a, b, w) if step.kind == "merge" else _combined_node(a, b, w)
            _replace_pair(parent, a, b, new)
        refresh_stats(g, t)
        h_after = structural_entropy(g, t, check=False)
        if not abs((h - h_after) - step.delta) <= REPLAY_TOL:
            raise InvariantViolation(f"{where}: logged delta {step.delta!r}, "
                                     f"but the entropy dropped by {h - h_after!r}")
        h = h_after
    return t


def _restricted_growth_strings(n: int):
    """All set partitions of range(n) as block assignments, canonical order."""
    a = [0] * n
    b = [0] * n
    while True:
        yield a
        j = n - 1
        while j > 0 and a[j] == b[j - 1] + 1:
            j -= 1
        if j == 0:
            return
        a[j] += 1
        b[j] = max(b[j - 1], a[j])
        for i in range(j + 1, n):
            a[i] = 0
            b[i] = b[j]


def brute_force_2d(g: Graph, max_n: int = 10) -> OptimizeResult:
    """Exact two-level optimum over all set partitions of the vertex set.

    The single-block partition is excluded (the root may not have one
    child).  Tie-break: lexicographically smallest canonical partition.
    """
    n = g.n
    if n > max_n:
        raise SizeGuardExceeded(f"brute_force_2d limited to {max_n} vertices (got {n})")
    deg = g.degree
    vol = g.volume
    lvol = math.log2(vol)
    dlogd = sum(d * math.log2(d) for d in deg)
    edges = g.edges

    best_h = math.inf
    best_key: tuple | None = None
    for a in _restricted_growth_strings(n):
        m = max(a) + 1
        if m == 1:
            continue
        vols = [0.0] * m
        cuts = [0.0] * m
        for v in range(n):
            vols[a[v]] += deg[v]
        for u, v, w in edges:
            if a[u] != a[v]:
                cuts[a[u]] += w
                cuts[a[v]] += w
        acc = 0.0
        for i in range(m):
            lb = math.log2(vols[i])
            acc += cuts[i] * (lvol - lb) + vols[i] * lb
        h = (acc - dlogd) / vol
        if h < best_h:
            best_h = h
            best_key = _partition_key(a, m)
        elif h == best_h:
            key = _partition_key(a, m)
            if best_key is None or key < best_key:
                best_key = key
    assert best_key is not None
    tree = from_partition(g, [frozenset(block) for block in best_key])
    return OptimizeResult(tree, structural_entropy(g, tree), ())


def _partition_key(assign, m) -> tuple:
    blocks: list[list[int]] = [[] for _ in range(m)]
    for v, b in enumerate(assign):
        blocks[b].append(v)
    return tuple(tuple(b) for b in blocks)


def _set_partitions(items: tuple, min_blocks: int = 2):
    """Set partitions of items with at least min_blocks blocks, canonical order."""
    n = len(items)
    for a in _restricted_growth_strings(n):
        m = max(a) + 1
        if m < min_blocks:
            continue
        blocks: list[list] = [[] for _ in range(m)]
        for pos, b in enumerate(a):
            blocks[b].append(items[pos])
        yield [tuple(b) for b in blocks]


def _nested_specs(block: tuple, budget: int):
    """All encoding subtrees over a vertex block within a height budget."""
    if len(block) == 1:
        yield block[0]
        return
    if budget < 1:
        return
    for parts in _set_partitions(block, min_blocks=2):
        for combo in itertools.product(*(_nested_specs(p, budget - 1) for p in parts)):
            yield list(combo)


def _spec_key(spec):
    if isinstance(spec, int):
        return ((spec,), ())
    members: list[int] = []
    child_keys = []
    for child in spec:
        ckey = _spec_key(child)
        members.extend(ckey[0])
        child_keys.append(ckey)
    return (tuple(sorted(members)), tuple(child_keys))


def brute_force_kd(g: Graph, k: int, max_n: int = 6, max_k: int = 3) -> OptimizeResult:
    """Exact optimum over all encoding trees of height at most k.

    Trees are enumerated as nested partitions; guards are configurable but
    the space grows hyper-exponentially.
    """
    if k < 2:
        raise InvariantViolation("height cap must be at least 2")
    if g.n > max_n:
        raise SizeGuardExceeded(f"brute_force_kd limited to {max_n} vertices (got {g.n})")
    if k > max_k:
        raise SizeGuardExceeded(f"brute_force_kd limited to height {max_k} (got {k})")

    best_h = math.inf
    best_spec = None
    best_key = None
    for spec in _nested_specs(tuple(range(g.n)), k):
        tree = build_tree(g, spec)
        h = structural_entropy(g, tree, check=False)
        if h < best_h:
            best_h, best_spec, best_key = h, spec, None
        elif h == best_h:
            if best_key is None:
                best_key = _spec_key(best_spec)
            key = _spec_key(spec)
            if key < best_key:
                best_spec, best_key = spec, key
    assert best_spec is not None
    tree = build_tree(g, best_spec)
    return OptimizeResult(tree, structural_entropy(g, tree), ())


def decoding_info_k(g: Graph, k: int) -> float:
    """Greedy estimate of the information decodable at height k: H1 - H_greedy."""
    return one_dim_entropy(g) - minimize_kd(g, k).entropy


def compressing_ratio_k(g: Graph, k: int) -> float:
    """Decodable fraction of the degree entropy at height k (greedy)."""
    return decoding_info_k(g, k) / one_dim_entropy(g)


def is_compressible(g: Graph, n: int, k: int, rho: float) -> bool:
    """Whether g is an (n, k, rho)-compressible graph."""
    if not 0 < rho < 1:
        raise InvariantViolation("rho must lie in (0, 1)")
    if k < 2:
        raise InvariantViolation("k must be at least 2")
    return g.n == n and compressing_ratio_k(g, k) >= rho
