"""Encoding trees: rooted partition trees over a graph's vertex set.

Every node carries its marker (a vertex set) plus cached statistics: the
marker's volume and its cut weight.  Children of an internal node partition
the parent marker; leaves are singletons; child order is by smallest vertex.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterator

from .errors import GraphParseError, InvariantViolation
from .graph import Graph, VertexSet, is_integer, left_sum

STAT_TOL = 1e-9  # the stale-stats bound of `validate`, as a fraction of vol(G)

NodePath = tuple  # child indices from the root; () is the root itself


class TreeNode:
    __slots__ = ("vertices", "vol", "cut", "children")

    def __init__(self, vertices, vol: float = 0.0, cut: float = 0.0, children=None):
        self.vertices: VertexSet = frozenset(vertices)
        self.vol = float(vol)
        self.cut = float(cut)
        self.children: list[TreeNode] = list(children) if children else []

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def vertex(self) -> int:
        if not self.is_leaf or len(self.vertices) != 1:
            raise InvariantViolation("node is not a singleton leaf")
        return next(iter(self.vertices))

    def min_vertex(self) -> int:
        return min(self.vertices)

    def height(self) -> int:
        return fold(self, lambda node, heights: 1 + max(heights) if heights else 0)

    def copy(self) -> "TreeNode":
        return fold(self, lambda node, kids: TreeNode(node.vertices, node.vol, node.cut, kids))

    def __repr__(self):
        kind = "leaf" if self.is_leaf else f"node[{len(self.children)}]"
        return f"<{kind} {sorted(self.vertices)} vol={self.vol:g} cut={self.cut:g}>"


class EncodingTree:
    """A rooted partition tree; the root marker is the whole vertex set."""

    __slots__ = ("root",)

    def __init__(self, root: TreeNode):
        self.root = root

    @property
    def n(self) -> int:
        return len(self.root.vertices)

    def copy(self) -> "EncodingTree":
        return EncodingTree(self.root.copy())

    def height(self) -> int:
        return self.root.height()

    def node_at(self, path) -> TreeNode:
        node = self.root
        for i in path:
            if not (is_integer(i) and 0 <= i < len(node.children)):
                raise InvariantViolation(f"no node at path {format_path(path)}")
            node = node.children[i]
        return node

    def walk(self) -> Iterator[tuple[NodePath, TreeNode]]:
        return walk(self.root)

    def __eq__(self, other):
        if not isinstance(other, EncodingTree):
            return NotImplemented
        # equal markers and child counts in preorder pin down the same shape
        return all(a.vertices == b.vertices and len(a.children) == len(b.children)
                   for (_, a), (_, b) in zip(walk(self.root), walk(other.root)))

    def __repr__(self):
        return f"EncodingTree(n={self.n}, height={self.height()})"


def fold(root, f: Callable, children: Callable = attrgetter("children")):
    """Children-first fold without recursion: `f(node, child_results)` runs
    on every node after all of its children, with a fresh list it may keep;
    returns its value at the root.
    """
    order = [root]  # breadth-first, so each node's children form one slice
    bounds = [1]  # the children of order[i] are order[bounds[i]:bounds[i + 1]]
    for node in order:
        order.extend(children(node))
        bounds.append(len(order))
    hi = len(order)
    for i in range(hi - 1, -1, -1):  # each result replaces its node in place
        lo = bounds[i]
        order[i] = f(order[i], order[lo:hi])
        hi = lo
    return order[0]


def walk(root) -> Iterator[tuple[NodePath, object]]:
    """Preorder traversal of any node with `.children`, yielding (path, node)."""
    stack = [((), root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for i in range(len(node.children) - 1, -1, -1):
            stack.append((path + (i,), node.children[i]))


def format_path(path) -> str:
    return "root" if not path else ".".join(str(i) for i in path)


def parse_path(text: str) -> NodePath:
    """Inverse of `format_path`; raises ValueError on anything else."""
    if text == "root":
        return ()
    parts = text.split(".")
    if not all(p.isdigit() for p in parts):
        raise ValueError(f"bad node path {text!r}")
    return tuple(int(p) for p in parts)


def star_tree(g: Graph) -> EncodingTree:
    """Root with one leaf child per vertex, in index order."""
    leaves = [TreeNode((v,), d, d) for v, d in enumerate(g.degree)]
    root = TreeNode(range(g.n), g.volume, 0.0, leaves)
    return EncodingTree(root)


def from_partition(g: Graph, parts) -> EncodingTree:
    """Two-level tree over a partition; singleton parts become depth-1 leaves."""
    parts = [frozenset(p) for p in parts]
    if any(not p for p in parts):
        raise InvariantViolation("empty part")
    if len(parts) < 2:
        raise InvariantViolation("a partition tree needs at least 2 parts")
    if sum(map(len, parts)) != g.n or frozenset().union(*parts) != frozenset(range(g.n)):
        raise InvariantViolation(
            "invalid encoding tree: children do not partition the marker at root")
    return build_tree(g, [sorted(part) if len(part) > 1 else min(part)
                          for part in sorted(parts, key=min)])


def build_tree(g: Graph, spec) -> EncodingTree:
    """Build a tree from a nested spec: an `is_integer` value is a leaf, stored
    as an int, a list/tuple a node; any other value, a bool too, raises InvariantViolation.

    Example: [[0, 1], [2, [3, 4]]] is a height-3 tree over 5 vertices.
    Each marker is the union of its children's, and the stats are computed
    from the graph.  Only `optimize._Shape.pair` and
    `learning._apply_position` make markers elsewhere, in trees they edit.
    """

    def node(s, children) -> TreeNode:
        if is_integer(s):
            return TreeNode((int(s),))
        if not children:
            raise InvariantViolation("empty node spec")
        return TreeNode(frozenset().union(*(c.vertices for c in children)), children=children)

    t = EncodingTree(fold(spec, node, _spec_children))
    refresh_stats(g, t)
    return t


def _spec_children(s):
    if isinstance(s, (list, tuple)):
        return s
    if is_integer(s):
        return ()
    raise InvariantViolation(f"bad node spec {s!r}")


def leaf_chains(t: EncodingTree, n: int, invalid: str = "invalid encoding tree: "
                ) -> tuple[list[tuple[NodePath, TreeNode]], dict[int, tuple[int, ...]]]:
    """Every (path, node) in preorder, and each vertex's chain of indices
    into that list, from the root to its leaf.

    The same walk checks that t is a partition tree over n items: the root
    marker is range(n), every leaf is a singleton, and every internal node
    has at least 2 children that partition its marker.  The first violation
    in preorder raises InvariantViolation(invalid + reason).
    """
    def fail(reason: str):
        raise InvariantViolation(invalid + reason)

    if t.root.vertices != frozenset(range(n)):
        fail("root marker must be the whole item set (at root)")
    nodes: list[tuple[NodePath, TreeNode]] = []
    chains: dict[int, tuple[int, ...]] = {}  # vertex -> node indices, root first
    stack = [((), t.root, ())]
    while stack:
        path, node, chain = stack.pop()
        chain += (len(nodes),)
        nodes.append((path, node))
        kids = node.children
        if not kids:
            if len(node.vertices) != 1:
                fail(f"leaf marker is not a singleton at {format_path(path)}")
            chains[next(iter(node.vertices))] = chain
            continue
        if len(kids) < 2:
            fail(f"internal node has fewer than 2 children at {format_path(path)}")
        markers = [c.vertices for c in kids]
        if (sum(map(len, markers)) != len(node.vertices)
                or frozenset().union(*markers) != node.vertices):
            fail(f"children do not partition the marker at {format_path(path)}")
        for i in range(len(kids) - 1, -1, -1):
            stack.append((path + (i,), kids[i], chain))
    return nodes, chains


def add_crossing(cuts: list[float], chains, edges) -> None:
    """Add each edge's weight to `cuts[i]` for every node i strictly below
    the branch point of its endpoints' leaf chains, in edge order."""
    for u, v, w in edges:
        cu, cv = chains[u], chains[v]
        branch = 1
        while cu[branch] == cv[branch]:
            branch += 1
        for i in cu[branch:] + cv[branch:]:
            cuts[i] += w


def _node_stats(t: EncodingTree, degree, edges, invalid: str = "invalid encoding tree: "):
    """The one stats walk, over any degree sequence and edge list: the
    `leaf_chains` of t over len(degree) items, then each node's vol and
    cut, as lists in the same preorder.  A vol folds its marker's degrees
    in the frozenset's order and a cut its edges' weights in `edges` order,
    as `cut_weight` does.  A shape fault raises as in `leaf_chains`."""
    nodes, chains = leaf_chains(t, len(degree), invalid)
    cuts = [0.0] * len(nodes)
    add_crossing(cuts, chains, edges)
    vols = [left_sum(map(degree.__getitem__, node.vertices)) for _, node in nodes]
    return nodes, chains, vols, cuts


def refresh_stats(g: Graph, t: EncodingTree) -> None:
    """Check t's shape and write `_node_stats` over the graph into every
    node, in place.  Only `learning._best_count` also writes node stats,
    from the same walk, into its own placement copy."""
    nodes, _, vols, cuts = _node_stats(t, g.degree, g.edges)
    for (_, node), vol, cut in zip(nodes, vols, cuts):
        node.vol, node.cut = vol, cut


def validate(g: Graph, t: EncodingTree) -> str | None:
    """Ground-truth check of all invariants; returns the first violation or
    None.  Shape faults come first, in preorder, then stale stats: a vol or cut
    off by more than `STAT_TOL * g.volume`, a bound on rounding at any scale."""
    try:
        nodes, _, vols, cuts = _node_stats(t, g.degree, g.edges, invalid="")
    except InvariantViolation as err:
        return str(err)
    tol = STAT_TOL * g.volume
    for (path, node), vol, cut in zip(nodes, vols, cuts):
        if abs(node.vol - vol) > tol:
            return f"stale cached stats (vol {node.vol!r} vs {vol!r}) at {format_path(path)}"
        if abs(node.cut - cut) > tol:
            return f"stale cached stats (cut {node.cut!r} vs {cut!r}) at {format_path(path)}"
    return None


def check_valid(g: Graph, t: EncodingTree) -> None:
    msg = validate(g, t)
    if msg:
        raise InvariantViolation(f"invalid encoding tree: {msg}")


def codeword(t: EncodingTree, v: int) -> NodePath:
    """Path of the unique leaf whose marker is {v}, an `is_integer` vertex."""
    if not (is_integer(v) and v in t.root.vertices):
        raise InvariantViolation(f"unknown vertex {v!r}")
    path: list[int] = []
    node = t.root
    while not node.is_leaf:
        for i, child in enumerate(node.children):
            if v in child.vertices:
                path.append(i)
                node = child
                break
        else:
            raise InvariantViolation(f"vertex {v!r} lost below {format_path(path)}")
    return tuple(path)


def serialize(g: Graph, t: EncodingTree) -> dict:
    """JSON-shaped document; stats are always emitted."""

    def doc(node: TreeNode, children) -> dict:
        if node.is_leaf:
            return {"vertex": g.vertex_ids[node.vertex], "vol": node.vol, "cut": node.cut}
        return {"children": children, "vol": node.vol, "cut": node.cut}

    return fold(t.root, doc)


def deserialize(g: Graph, doc) -> EncodingTree:
    """Rebuild a tree from a document, checked node by node; its stats are not trusted."""

    def children(d):
        if not isinstance(d, dict):
            raise GraphParseError("tree document: node must be an object")
        if "vertex" in d:
            vid = str(d["vertex"])
            if vid not in g.index:
                raise GraphParseError(f"tree document: unknown vertex id {vid!r}")
            return ()
        if "children" not in d or not isinstance(d["children"], list) or not d["children"]:
            raise GraphParseError("tree document: node needs 'vertex' or a non-empty 'children'")
        return d["children"]

    spec = fold(doc, lambda d, specs: g.index[str(d["vertex"])] if "vertex" in d else specs,
                children)
    return build_tree(g, spec)
