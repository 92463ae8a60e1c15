"""Tree-entropy minimization: greedy merge/combine search plus the exact oracle.

The greedy starts from the star tree and runs three phases:

  1. agglomerate: apply the sibling-pair operation with the largest
     positive entropy decrease, height-unbounded,
       * merge   - fuse two sibling modules into one (their children
                   become siblings under the fused node),
       * combine - insert a new common parent above two siblings;
  2. compress: while the tree exceeds the height cap, flatten the
     over-deep internal node whose removal costs the least entropy;
  3. polish: rerun phase 1 under the cap.

Measured, the uncapped pass does not avoid flat local optima better than
the cap: one capped pass from the star ends lower on 42 of 48 golden
trace rows, with a mean gap to the optimum of 0.4-1.0% against 1.4-4.5%
on `scripts/bench_rows.py`'s rows (3.6% against 1.8-2.3% at k = 3, n = 9).
The phases stay so that outputs do not move until that choice is made.
Only pairs with positive cross weight are candidates, deltas are computed
locally, and ties break on (min vertex of A, min vertex of B), merge first.

The phases are incremental and share one state per run (`_Shape`), built
from the star: a parent map, cached subtree heights and min vertices,
updated along the changed path only, for every sibling pair its row of
edges with their weight, and one stamp per node.  `merge_delta` and
`combine_apply` build the same state over a given tree.  `_Shape` is the
one home of the rules of a step: `siblings` resolves two operand paths,
`pair` (merge or combine) refuses to leave a parent one child, `flatten`
refuses a leaf, and `fits` is the height cap; only `merge_delta`'s flat
rule and `replay_trace`'s checks of a record live outside, and the greedy
skips the pairs they refuse.  The operators renew the stamp of every node
that moved or whose children changed.  Each phase keeps a heap of
candidates keyed by the tie-break, invalidated lazily by those stamps.  A merge or combine
re-scores only the pairs it touched: the new node with its siblings, the
pairs under a fused node (their parent volume changed), and the parent
with its own siblings (its children changed).  A flatten re-scores the
parent and the promoted children.  Every candidate is scored by the same
float expressions, folded in the same order, as a full rescan would use:
a row's weight is kept as the row grows and refolded when two rows join,
and a node's child terms are kept while its stamp lasts.  So each step
picks the same move with the same delta: traces, trees and entropies are
identical to the exhaustive search, bit for bit.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import GraphParseError, InvariantViolation, SizeGuardExceeded
from .graph import (Graph, check_integer, format_real, is_integer, left_sum, one_dim_entropy,
                    parse_real, real_weight, vertex_set)
from .metrics import cached_entropy, structural_entropy
from .tree import (EncodingTree, TreeNode, build_tree, check_valid, format_path, parse_path,
                   refresh_stats, star_tree)

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
        return (f"{step} {self.kind} {format_path(self.a)} {format_path(self.b)} "
                f"{format_real(self.delta)}")


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
    a, b = vertex_set(g, a), vertex_set(g, b)
    if a & b:
        raise InvariantViolation("cross_weight needs disjoint vertex sets")
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
    check_valid(g, t)
    shape = _Shape(g, t)
    up, i, j = shape.siblings(a, b)
    na, nb = up.children[i], up.children[j]
    if max(shape.height[na], shape.height[nb]) > 1:
        raise InvariantViolation("merge_delta needs flat modules (children must be leaves)")
    row = shape.rows[na].get(nb)
    w = 0.0 if row is None else row.w
    return _flat_merge_delta(g.volume, up.vol, na.vol, na.cut, nb.vol, nb.cut, w)


def _general_merge_delta(vol: float, v_parent: float, a: TreeNode, b: TreeNode, w_ab: float,
                         terms_a: list[float], terms_b: list[float]) -> float:
    """Entropy drop from fusing siblings a and b, over the operands and
    their children only.  terms_a is a's child terms -(c.cut / vol) *
    log2(c.vol / a.vol) in child order, kept by `_greedy_phase` per node
    under its stamp; each side is one left fold, in node order."""
    log2 = math.log2
    before = -(a.cut / vol) * log2(a.vol / v_parent) + -(b.cut / vol) * log2(b.vol / v_parent)
    for t in terms_a:
        before += t
    for t in terms_b:
        before += t
    vm = a.vol + b.vol
    gm = a.cut + b.cut - 2.0 * w_ab
    after = -(gm / vol) * log2(vm / v_parent)
    for c in a.children or (a,):
        after += -(c.cut / vol) * log2(c.vol / vm)
    for c in b.children or (b,):
        after += -(c.cut / vol) * log2(c.vol / vm)
    return before - after


def combine_apply(g: Graph, t: EncodingTree, a, b, height_cap: int | None = None) -> EncodingTree:
    """Insert a new parent above siblings a and b; returns a new tree."""
    check_valid(g, t)
    shape = _Shape(g, t.copy())
    up, i, j = shape.siblings(a, b)
    if height_cap is not None:
        _check_height(height_cap)
        if not shape.fits(up.children[i], up.children[j], up, height_cap)[1]:
            raise InvariantViolation(f"combine exceeds the height cap {height_cap}")
    shape.pair(1, up, i, j)
    up.children.sort(key=shape.low.__getitem__)  # a user's tree may be unordered
    return shape.tree


def _check_height(k) -> None:
    """The one check of a height cap: an integer, not a bool, of at least 2."""
    if not is_integer(k):
        raise InvariantViolation(f"height cap {k!r} is not an integer")
    if k < 2:
        raise InvariantViolation("height cap must be at least 2")


def minimize_2d(g: Graph) -> OptimizeResult:
    """Greedy two-level minimization; the root children are the partition."""
    return minimize_kd(g, 2)


class _Row(list):
    """Two siblings' edge indices, ascending, and `w`, their weights' left fold."""
    __slots__ = ("w",)


class _Shape:
    """The greedy's one state per run, built from the star or from a valid
    tree, not checked again, and edited in place by every phase and by
    `replay_trace` and `combine_apply`: parent links, subtree heights and
    min vertices (`low`), updated along the changed path only; each
    vertex's leaf; `rows`, where rows[x][y] is the `_Row` of the edges
    between siblings x and y (rows[y][x] is the same row), its weight
    extended by every append; and one `stamp` per live node, renewed
    whenever the node moves or its children change, so that a heap entry
    scored before the change can tell it is stale.  `siblings` checks two
    operand paths and `fits` the height cap; `pair` (given the parent and
    two positions `siblings` returns) and `flatten`, the only step
    operators, check their operands before any edit and keep every child
    list that was in `low` order in it.  Each kind of edit has one home:
    `split` files every edge under its sibling pair, a starting tree's (the
    star's too) at branch points, but a combine keeps its operands' row
    whole, as all of its edges join the two; `pair` alone re-keys rows onto
    a new node, refolding two rows it joins; and past the start, `adopt`
    sets every parent link and stamp."""

    __slots__ = ("tree", "edges", "leaf", "parent", "height", "low", "rows", "stamp", "tick")

    def __init__(self, g: Graph, tree: EncodingTree | None = None):
        self.tree = star_tree(g) if tree is None else tree
        self.edges = g.edges
        order = [self.tree.root]  # breadth-first, so every node follows its parent
        for node in order:
            order.extend(node.children)
        self.parent: dict[TreeNode, TreeNode] = {c: up for up in order for c in up.children}
        self.height: dict[TreeNode, int] = dict.fromkeys(order, 0)
        self.low: dict[TreeNode, int] = {}
        for node in reversed(order):
            if node.children:
                self.height[node] = 1 + max(map(self.height.__getitem__, node.children))
                self.low[node] = min(map(self.low.__getitem__, node.children))
            else:
                self.low[node] = node.vertex
        self.leaf = sorted((x for x in order if x.is_leaf), key=self.low.__getitem__)
        self.rows: dict[TreeNode, dict[TreeNode, _Row]] = {node: {} for node in order}
        branches: dict[TreeNode, list[int]] = {}
        for i, (u, v, _) in enumerate(g.edges):
            up = self.leaf[u]
            while v not in up.vertices:  # climb to the branch point of u and v
                up = self.parent[up]
            branches.setdefault(up, []).append(i)
        for up, ids in branches.items():
            self.split(ids, up)
        self.tick = itertools.count()
        self.stamp: dict[TreeNode, int] = {node: next(self.tick) for node in order}

    def siblings(self, a, b) -> tuple[TreeNode, int, int]:
        """The parent of two distinct sibling paths and their positions
        under it; every path resolves through `node_at`."""
        a, b = tuple(a), tuple(b)
        if not a or not b or a[:-1] != b[:-1] or a == b:
            raise InvariantViolation("operands are not two distinct siblings")
        up, _, _ = map(self.tree.node_at, (a[:-1], a, b))
        return up, a[-1], b[-1]

    def fits(self, a: TreeNode, b: TreeNode, up: TreeNode, k: int) -> tuple[bool, bool]:
        """Whether a merge and a combine of siblings a and b under `up` fit
        height k, a merge in a tree within k.  Depth and heights never shrink
        within a greedy phase, so a pair that fails once fails for good."""
        room = k - 2  # levels a new child of `up` may hold below it
        while up in self.parent:
            up = self.parent[up]
            room -= 1
        ha, hb = self.height[a], self.height[b]
        return room >= 0 or 0 < ha and 0 < hb, max(ha, hb) <= room

    def path(self, node: TreeNode) -> tuple[int, ...]:
        out = []
        while node in self.parent:
            up = self.parent[node]
            out.append(up.children.index(node))
            node = up
        return tuple(reversed(out))

    def pair(self, kind: int, up: TreeNode, i: int, j: int) -> TreeNode:
        """Merge (kind 0) or combine (kind 1) children i and j of `up`; the
        new node takes the earlier slot and is returned.  The weight between
        the two is their row's, the one `score` read."""
        if len(up.children) < 3:
            raise InvariantViolation("would leave the parent with a single child")
        rows, a, b = self.rows, up.children[i], up.children[j]
        between = rows[a].pop(b, None)  # None: only a replayed step, never the greedy
        rows[b].pop(a, None)
        w = 0.0 if between is None else between.w
        children = [a, b] if kind else [*(a.children or [a]), *(b.children or [b])]
        children.sort(key=self.low.__getitem__)
        new = TreeNode(a.vertices | b.vertices, a.vol + b.vol, a.cut + b.cut - 2.0 * w, children)
        up.children[min(i, j)] = new
        del up.children[max(i, j)]
        row = rows.pop(a)  # becomes the new node's row, b's joined into it
        for x in row:
            del rows[x][a]
        for x, ids in rows.pop(b).items():
            del rows[x][b]
            prev = row.get(x)
            if prev is not None:
                ids = _Row(sorted(prev + ids))
                ids.w = left_sum(self.edges[e][2] for e in ids)
            row[x] = ids
        for x, ids in row.items():
            rows[x][new] = ids
        rows[new] = row
        self.attach(new, up)
        for side in (a, b):
            if kind or side.is_leaf:
                rows[side] = {}
            else:
                self.detach(side)
        if not kind:
            self.split(between or (), new)
        elif between is not None:  # every edge of a combine joins a and b
            rows[a][b] = rows[b][a] = between
        return new

    def flatten(self, node: TreeNode) -> None:
        """Promote an internal node's children to its parent, in `low`
        order, and forget the node."""
        if node.is_leaf:
            raise InvariantViolation("cannot flatten a leaf")
        up = self.parent[node]
        up.children = [c for c in up.children if c is not node] + node.children
        up.children.sort(key=self.low.__getitem__)
        self.detach(node)
        self.adopt(node.children, up)
        for x, ids in self.rows.pop(node).items():
            del self.rows[x][node]
            self.split(ids, up)
        self.settle(up)

    def attach(self, node: TreeNode, up: TreeNode) -> None:
        """Register a node that a merge or combine just put under `up`."""
        self.adopt(node.children, node)
        self.adopt((node,), up)
        self.low[node] = self.low[node.children[0]]
        h = self.height[node] = 1 + max(map(self.height.__getitem__, node.children))
        while up is not None and self.height[up] <= h:  # heights only grow here
            h = self.height[up] = h + 1
            up = self.parent.get(up)

    def adopt(self, children: Iterable[TreeNode], up: TreeNode) -> None:
        """Make `up` the parent of each child, renewing the stamps of every
        child and of `up`."""
        for c in children:
            self.parent[c] = up
            self.stamp[c] = next(self.tick)
        self.stamp[up] = next(self.tick)

    def detach(self, node: TreeNode) -> None:
        """Forget a node whose children were handed to another node."""
        del self.parent[node], self.height[node], self.low[node], self.stamp[node]

    def settle(self, node: TreeNode | None) -> None:
        """Recompute heights upward from a node that lost depth below it."""
        while node is not None:
            h = 1 + max(map(self.height.__getitem__, node.children))
            if h == self.height[node]:
                return
            self.height[node] = h
            node = self.parent.get(node)

    def split(self, between: Iterable[int], up: TreeNode) -> None:
        """File edges, in order, under the pair of children of `up` that they
        now join: the starting tree's edges at their branch points, the
        edges between a merge's operands, and a flattened node's rows.
        Every such pair must be new to `rows`, so each row stays ascending
        and its weight the left fold of its edges' weights in that order."""
        parent, rows = self.parent, self.rows
        for i in between:
            u, v, w = self.edges[i]
            cu, cv = self.leaf[u], self.leaf[v]
            while parent[cu] is not up:
                cu = parent[cu]
            while parent[cv] is not up:
                cv = parent[cv]
            row = rows[cu].get(cv)
            if row is None:
                row = rows[cu][cv] = rows[cv][cu] = _Row((i,))
                row.w = w  # 0.0 + w, where the fold starts
            else:
                row.append(i)
                row.w += w


def _greedy_phase(g: Graph, shape: _Shape, k: int | None,
                  trace: list[TraceStep]) -> None:
    # Apply the best merge or combine until none improves.  A lazily
    # invalidated heap holds every candidate keyed by the tie-break
    # (-delta, minA, minB, kind); an entry is live while both operands keep
    # the stamps they had when it was scored, and each step re-scores
    # exactly the pairs whose operands, parent or parent volume it changed.
    # A node's child terms are kept while it keeps its stamp; its pairs share them.
    vol, log2, push = g.volume, math.log2, heapq.heappush
    parent, height, low, rows = shape.parent, shape.height, shape.low, shape.rows
    stamp = shape.stamp
    terms: dict[TreeNode, tuple[int, list[float]]] = {}
    pushes = itertools.count()
    heap: list[tuple] = []

    def child_terms(a: TreeNode) -> list[float]:
        got = terms.get(a)
        if got is None or got[0] != stamp[a]:
            va = a.vol
            got = terms[a] = (stamp[a], [-(c.cut / vol) * log2(c.vol / va) for c in a.children])
        return got[1]

    def score(a: TreeNode, b: TreeNode) -> None:
        up = parent[a]
        if len(up.children) < 3:  # child counts only shrink
            return
        la, lb = low[a], low[b]
        if la > lb:
            a, b, la, lb = b, a, lb, la
        w = rows[a][b].w
        ha, hb = height[a], height[b]
        merges, combines = (True, True) if k is None else shape.fits(a, b, up, k)
        dm = dc = 0.0
        if merges:
            if ha <= 1 and hb <= 1:
                dm = _flat_merge_delta(vol, up.vol, a.vol, a.cut, b.vol, b.cut, w)
            else:
                dm = _general_merge_delta(vol, up.vol, a, b, w, child_terms(a), child_terms(b))
        # A leaf-leaf combine builds the very tree the merge builds; skip it.
        if combines and (ha or hb):  # only the shared prefix changes
            dc = 2.0 * w / vol * log2(up.vol / (a.vol + b.vol))
        # Queue only the better move; the other would pop second and be stale.
        if dm >= dc:  # the combine pops second, and the merge fits wherever it does
            dc = 0.0
        elif k is None:  # the merge pops second, and no cap can stop the combine
            dm = 0.0
        if dm > DELTA_TOL:
            push(heap, (-dm, la, lb, 0, next(pushes), a, b, stamp[a], stamp[b]))
        if dc > DELTA_TOL:
            push(heap, (-dc, la, lb, 1, next(pushes), a, b, stamp[a], stamp[b]))

    def score_children(node: TreeNode) -> None:
        for c in node.children:
            for x in rows[c]:
                if low[c] < low[x]:
                    score(c, x)

    for node in height:
        score_children(node)

    kept = len(heap)
    while heap:
        if len(heap) > 2 * kept + 64:  # most entries are dead: drop them
            heap[:] = [e for e in heap if stamp.get(e[5]) == e[7] and stamp.get(e[6]) == e[8]]
            heapq.heapify(heap)
            kept = len(heap)
        neg_d, _, _, kind, _, a, b, sa, sb = heapq.heappop(heap)
        if stamp.get(a) != sa or stamp.get(b) != sb:
            continue
        up = parent[a]
        if len(up.children) < 3 or k is not None and not shape.fits(a, b, up, k)[kind]:
            continue
        ppath, i, j = shape.path(up), up.children.index(a), up.children.index(b)
        trace.append(TraceStep(_STEP_KINDS[kind], ppath + (i,), ppath + (j,), -neg_d))
        new = shape.pair(kind, up, i, j)
        for x in rows[new]:
            score(new, x)
        score_children(new)
        for y in rows[up]:
            score(up, y)


def _flatten_delta(vol: float, parent: TreeNode, node: TreeNode) -> float:
    # Promoting the node's children to its parent undoes the node's share:
    # always <= 0, with magnitude 2*(internal cross weight)*log2(Vp/Vn)/vol.
    internal = left_sum(c.cut for c in node.children) - node.cut
    return internal / vol * math.log2(node.vol / parent.vol)


def _compress_phase(g: Graph, shape: _Shape, k: int,
                    trace: list[TraceStep]) -> None:
    # While too tall, flatten the over-deep internal node costing the least.
    # The heap key (-delta, min vertex, -marker size) orders like the path
    # tie-break: nodes sharing a min vertex lie on one first-child chain,
    # where the shorter path is the larger marker.  A node's delta reads its
    # parent's volume and its children's cuts, so a flatten re-scores the
    # parent and the promoted children only, whose stamps it renewed;
    # depth + height never grows, so an entry no longer over-deep is
    # dropped for good.
    vol = g.volume
    parent, height, stamp = shape.parent, shape.height, shape.stamp
    heap: list[tuple] = []

    def score(node: TreeNode, depth: int) -> None:
        if not depth or not height[node] or depth + height[node] <= k:  # root, leaf, low enough
            return
        d = _flatten_delta(vol, parent[node], node)
        heapq.heappush(heap, (-d, shape.low[node], -len(node.vertices), stamp[node], node))

    level, depth = [shape.tree.root], 0
    while level:  # every node with its depth, a level at a time
        for node in level:
            score(node, depth)
        level, depth = [c for node in level for c in node.children], depth + 1
    while heap:
        neg_d, _, _, s, node = heapq.heappop(heap)
        if stamp.get(node) != s:
            continue
        path = shape.path(node)
        if len(path) + height[node] <= k:
            continue
        up = parent[node]
        trace.append(TraceStep("flatten", path, path[:-1], -neg_d))
        shape.flatten(node)
        score(up, len(path) - 1)
        for c in node.children:
            score(c, len(path))


def minimize_kd(g: Graph, k: int) -> OptimizeResult:
    """Greedy minimization over trees of height at most k.

    Agglomerates height-unbounded, compresses back to the cap, then
    polishes with capped moves, kept only so that outputs do not move (see
    the module docstring).  Merge and combine trace deltas are positive;
    flatten deltas are the (non-positive) exact entropy change.
    """
    _check_height(k)
    shape = _Shape(g)
    trace: list[TraceStep] = []
    _greedy_phase(g, shape, None, trace)
    _compress_phase(g, shape, k, trace)
    _greedy_phase(g, shape, k, trace)
    return OptimizeResult(shape.tree, structural_entropy(g, shape.tree), tuple(trace))


def parse_trace(text: str) -> tuple[TraceStep, ...]:
    """Read optimizer-trace text, as `OptimizeResult.trace_text` writes it."""
    steps = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        try:
            if len(fields) != 5 or fields[0] != str(len(steps)) or fields[1] not in _STEP_KINDS:
                raise ValueError
            steps.append(TraceStep(fields[1], parse_path(fields[2]), parse_path(fields[3]),
                                   parse_real(fields[4])))
        except ValueError:
            raise GraphParseError(f"trace line {lineno}: expected "
                                  f"'{len(steps)} <kind> <pathA> <pathB> <delta>'") from None
    return tuple(steps)


def replay_trace(g: Graph, trace) -> EncodingTree:
    """Re-apply trace steps from the star tree, checking every logged delta.

    Every step goes through the optimizer's own operators (`_Shape.pair`
    and `_Shape.flatten`).  After each step every statistic is recomputed
    from the graph, and the step's delta must equal the drop in
    `structural_entropy` to within REPLAY_TOL.  Raises InvariantViolation at
    the first step that does not apply or disagrees.
    """
    shape = _Shape(g)
    t = shape.tree
    h = structural_entropy(g, t)
    for i, step in enumerate(trace):
        where = f"trace step {i} ({step.kind} {format_path(step.a)} {format_path(step.b)})"
        if step.kind not in _STEP_KINDS or not step.a:
            raise InvariantViolation(f"{where}: not a step the optimizer takes")
        try:  # every check raises before the edit
            if step.kind != "flatten":
                shape.pair(_STEP_KINDS.index(step.kind), *shape.siblings(step.a, step.b))
            elif step.b != step.a[:-1]:
                raise InvariantViolation("the second path must be the parent")
            else:  # the parent resolves first, so a bad path is named at its shortest
                _, node = map(t.node_at, (step.b, step.a))
                shape.flatten(node)
        except InvariantViolation as err:
            raise InvariantViolation(f"{where}: {err}") from None
        refresh_stats(g, t)
        h_after = cached_entropy(t, g.volume)
        if not abs((h - h_after) - step.delta) <= REPLAY_TOL:
            raise InvariantViolation(f"{where}: logged delta {step.delta!r}, "
                                     f"but the entropy dropped by {h - h_after!r}")
        h = h_after
    return t


def brute_force_2d(g: Graph, max_n: int | None = None) -> OptimizeResult:
    """Exact two-level optimum: `brute_force_kd` at height 2, with the size
    guard it takes there."""
    return brute_force_kd(g, 2, max_n=max_n)


def brute_force_kd(g: Graph, k: int, max_n: int | None = None) -> OptimizeResult:
    """Exact optimum over all encoding trees of height at most k, by a subset DP.

    F(S, h), the least cost of a subtree on marker S within height h, is the
    minimum over partitions P of S into at least 2 blocks of
    sum over B in P of (g_B / vol) log2(V_S / V_B) + F(B, h - 1), with
    F({v}, h) = 0 and F(S, 1) the flat subtree.  A partition is built block
    by block, each block holding the lowest vertex left, so the cost is
    O(4^n k).  Volumes and cuts come from the degrees and `g.edges` alone.

    Tie rule: among the trees whose cost is within DELTA_TOL of the optimum,
    the first in canonical order wins: children by marker as a sorted tuple,
    compared depth-first.  The size guard `max_n` defaults to 10 vertices
    at height 2 and 6 above.  Any k of at least 2 is taken: no partition
    tree over n vertices is taller than n - 1, so k is clamped there.
    """
    _check_height(k)
    if max_n is None:
        max_n = 10 if k == 2 else 6
    check_integer(max_n, "max_n")
    if g.n > max_n:
        raise SizeGuardExceeded(f"exact oracle limited to {max_n} vertices (got {g.n})")
    k = min(k, max(2, g.n - 1))
    n, vol = g.n, g.volume
    masks = range(1 << n)
    vols = [0.0] * len(masks)
    for s in masks[1:]:
        low = s & -s
        vols[s] = vols[s ^ low] + g.degree[low.bit_length() - 1]
    cuts = [0.0] * len(masks)
    for u, v, w in g.edges:
        for s in masks:
            if (s >> u & 1) != (s >> v & 1):
                cuts[s] += w
    logs = [0.0] + [math.log2(x) for x in vols[1:]]

    def members(s: int) -> list[int]:
        return [v for v in range(n) if s >> v & 1]

    def term(s: int, b: int) -> float:  # (g_b / vol) log2(V_s / V_b)
        return cuts[b] / vol * (logs[s] - logs[b])

    def blocks(s: int, r: int):
        # Submasks of r holding its lowest vertex, other than s itself.
        low = r & -r
        rest = sub = r ^ low
        while True:
            if sub | low != s:
                yield sub | low
            if not sub:
                return
            sub = (sub - 1) & rest

    def splits(s: int, below: list[float]):
        # best[r] for each submask r of s: the least cost of splitting r into
        # blocks under s, a block b costing cost(r, b).
        def cost(r: int, b: int) -> float:
            return term(s, b) + below[b] + best[r ^ b]

        best = [0.0] * len(masks)
        r = 0
        while r != s:
            r = (r - s) & s  # the next submask of s
            best[r] = min(cost(r, b) for b in blocks(s, r))
        return best, cost

    # tables[h][s] = F(s, h); a singleton costs 0 at any height.
    tables = [[], [left_sum(term(s, 1 << v) for v in members(s)) for s in masks]]
    for h in range(2, k):
        tables.append([splits(s, tables[h - 1])[0][s] if s & (s - 1) else 0.0
                       for s in masks])

    def pick(s: int, h: int, slack: float):
        # The canonically first subtree on s within height h costing at most
        # slack above F(s, h); returns it as a spec with the slack left.
        if not s & (s - 1):
            return members(s)[0], slack
        if h == 1:
            return members(s), slack
        best, cost = splits(s, tables[h - 1])
        spec, r = [], s
        while r:
            for b in sorted(blocks(s, r), key=members):
                over = cost(r, b) - best[r]
                if over <= slack:  # the cheapest block always fits
                    break
            child, slack = pick(b, h - 1, slack - over)
            spec.append(child)
            r ^= b
        return spec, slack

    tree = build_tree(g, pick(len(masks) - 1, k, DELTA_TOL)[0])
    return OptimizeResult(tree, structural_entropy(g, tree), ())


def decoding_info_k(g: Graph, k: int) -> float:
    """Greedy estimate of the information decodable at height k: H1 - H_greedy."""
    return one_dim_entropy(g) - minimize_kd(g, k).entropy


def compressing_ratio_k(g: Graph, k: int) -> float:
    """Decodable fraction of the degree entropy at height k (greedy)."""
    return decoding_info_k(g, k) / one_dim_entropy(g)


def is_compressible(g: Graph, n: int, k: int, rho: float) -> bool:
    """Whether g is an (n, k, rho)-compressible graph."""
    check_integer(n, "n")
    if not 0 < real_weight(rho, "rho") < 1:
        raise InvariantViolation("rho must lie in (0, 1)")
    _check_height(k)
    return g.n == n and compressing_ratio_k(g, k) >= rho
