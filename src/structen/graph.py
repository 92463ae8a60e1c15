"""Weighted undirected graphs: cuts, conductance, degree entropy, top-k construction.

Vertices carry external string identifiers and are indexed densely in
first-appearance order.  All cuts, degrees and volumes are weighted sums;
unit weights recover plain edge counting.
"""

from __future__ import annotations

import csv
import math
from functools import reduce
from operator import add
from typing import Iterable, Sequence

import numpy as np

from .errors import GraphParseError, InvariantViolation, SizeGuardExceeded

# dense vertex indices; frozenset keeps subsets hashable and immutable
VertexSet = frozenset

_VOLUME_REL_TOL = 1e-12
_DISTRIBUTION_TOL = 1e-9
_SYMMETRY_TOL = 1e-9


def left_sum(values: Iterable[float], start: float = 0.0) -> float:
    """Left-to-right float sum: ((start + a) + b) + ..., on every CPython.

    From 3.12 on, the builtin `sum` compensates float rounding, so it would
    no longer match a running `total += w`.
    """
    return reduce(add, values, start)


def _checked_edge(index: dict[str, int], u_id, v_id, w) -> tuple[int, int, float]:
    """One edge as `(u index, v index, float weight)`, after the checks
    every edge must pass: both endpoints are vertices, no self-loop, and a
    positive finite weight."""
    u_id, v_id = str(u_id), str(v_id)
    if u_id not in index or v_id not in index:
        missing = u_id if u_id not in index else v_id
        raise InvariantViolation(f"edge endpoint {missing!r} is not a vertex")
    try:
        w = float(w)
    except OverflowError:  # an integer beyond the float range
        w = math.inf
    if u_id == v_id:
        raise InvariantViolation(f"self-loop at vertex {u_id!r}")
    if not w > 0:
        raise InvariantViolation(f"non-positive weight on edge {u_id!r}-{v_id!r}")
    if w == math.inf:
        raise InvariantViolation(f"non-finite weight on edge {u_id!r}-{v_id!r}")
    return index[u_id], index[v_id], w


def _checked_volume(degree: Sequence[float], edges, connected: bool) -> float:
    """Volume of a graph with these degrees and edges, after the checks on
    its totals: a finite volume, connectivity, and a volume equal to twice
    the total weight up to rounding."""
    volume = left_sum(degree)
    if volume == math.inf:
        raise InvariantViolation("graph volume overflows to inf")
    if not connected:
        raise InvariantViolation("graph is disconnected")
    twice_weight = 2.0 * left_sum(w for _, _, w in edges)
    if abs(volume - twice_weight) > _VOLUME_REL_TOL * volume:
        raise InvariantViolation("volume bookkeeping out of tolerance")
    return volume


def _connected(adj: Sequence[dict[int, float]]) -> bool:
    seen = {0}
    queue = [0]
    for u in queue:  # breadth first: the loop reads what it appends
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(adj)


class Graph:
    """Immutable weighted undirected connected graph.

    `edges` lists `(u, v, w)` with u < v in input order, `degree[v]` is the
    weighted degree of vertex v and `volume` is the sum of all degrees (2m
    for unit weights).  Construction validates every invariant: no
    self-loops, no duplicate edges, positive finite weights, at least one
    edge, and a single connected component.
    """

    __slots__ = ("vertex_ids", "index", "edges", "degree", "volume")

    def __init__(self, vertex_ids: Sequence[str], edges: Iterable[tuple[str, str, float]]):
        ids = tuple(str(v) for v in vertex_ids)
        if len(set(ids)) != len(ids):
            raise InvariantViolation("duplicate vertex identifier")
        if len(ids) < 2:
            raise InvariantViolation("a graph needs at least 2 vertices")
        self.vertex_ids = ids
        self.index = {v: i for i, v in enumerate(ids)}

        adj: list[dict[int, float]] = [dict() for _ in ids]
        edge_list: list[tuple[int, int, float]] = []
        for u_id, v_id, w in edges:
            u, v, w = _checked_edge(self.index, u_id, v_id, w)
            if v in adj[u]:
                raise InvariantViolation(f"duplicate edge {ids[u]!r}-{ids[v]!r}")
            adj[u][v] = w
            adj[v][u] = w
            edge_list.append((min(u, v), max(u, v), w))
        if not edge_list:
            raise InvariantViolation("a graph needs at least one edge")

        self.edges = tuple(edge_list)
        self.degree = tuple(left_sum(nbrs.values()) for nbrs in adj)
        self.volume = _checked_volume(self.degree, self.edges, connected=_connected(adj))

    def with_vertex(self, vid, edges: Iterable[tuple[str, float]]) -> "Graph":
        """This graph plus vertex `vid`, joined by a `(neighbour id, weight)`
        edge to each listed neighbour; `self` is left as it is.

        The result equals `Graph(vertex_ids + (vid,), old edges + [(nbr,
        vid, w), ...])` bit for bit, with the same checks and messages, but
        only the new edges are checked: every degree, the volume and the
        total weight are the left folds that rebuild makes, and the graph
        stays connected as long as one new edge exists.
        """
        vid = str(vid)
        if vid in self.index:
            raise InvariantViolation("duplicate vertex identifier")
        x = self.n
        index = {**self.index, vid: x}
        adj_x: dict[int, float] = {}
        for u_id, w in edges:
            u, _, w = _checked_edge(index, u_id, vid, w)
            if u in adj_x:
                raise InvariantViolation(f"duplicate edge {self.vertex_ids[u]!r}-{vid!r}")
            adj_x[u] = w
        degree = list(self.degree)
        for u, w in adj_x.items():  # x is each old vertex's last neighbour
            degree[u] += w
        degree.append(left_sum(adj_x.values()))

        out = Graph.__new__(Graph)
        out.vertex_ids = self.vertex_ids + (vid,)
        out.index = index
        out.edges = self.edges + tuple((u, x, w) for u, w in adj_x.items())
        out.degree = tuple(degree)
        out.volume = _checked_volume(out.degree, out.edges, connected=bool(adj_x))
        return out

    @classmethod
    def from_index_edges(cls, n: int, edges: Iterable[tuple[int, int, float]],
                         ids: Sequence[str] | None = None) -> "Graph":
        """Build from integer-indexed edges; ids default to "0".."n-1"."""
        ids = tuple(ids) if ids is not None else tuple(str(i) for i in range(n))
        if len(ids) != n:
            raise InvariantViolation(f"expected {n} vertex ids, got {len(ids)}")
        return cls(ids, [(ids[u], ids[v], w) for u, v, w in edges])

    @property
    def n(self) -> int:
        return len(self.vertex_ids)


def load_graph(path) -> Graph:
    """Parse an edge-list file.

    One edge per line: `<u> <v> [<weight>]`, whitespace separated, weight
    defaulting to 1.0; lines starting with `#` and blank lines are skipped.
    Vertex order is first appearance.
    """
    ids: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str, float]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) not in (2, 3):
                raise GraphParseError(f"{path}:{lineno}: expected 'u v [weight]', got {len(fields)} fields")
            u, v = fields[0], fields[1]
            if u == v:
                raise InvariantViolation(f"{path}:{lineno}: self-loop at vertex {u!r}")
            if len(fields) == 3:
                try:
                    w = float(fields[2])
                except ValueError:
                    raise GraphParseError(f"{path}:{lineno}: bad weight {fields[2]!r}") from None
            else:
                w = 1.0
            for x in (u, v):
                if x not in seen:
                    seen.add(x)
                    ids.append(x)
            edges.append((u, v, w))
    return Graph(ids, edges)


def _check_subset(g: Graph, s) -> VertexSet:
    s = frozenset(s)
    if not s:
        raise InvariantViolation("subset is empty")
    if not all(isinstance(v, int) and 0 <= v < g.n for v in s):
        raise InvariantViolation("subset contains an out-of-range vertex")
    if len(s) == g.n:
        raise InvariantViolation("subset equals the whole vertex set")
    return s


def cut_weight(g: Graph, s) -> float:
    """Total weight of edges with exactly one endpoint in s."""
    s = _check_subset(g, s)
    return left_sum(w for u, v, w in g.edges if (u in s) != (v in s))


def subset_volume(g: Graph, s) -> float:
    return left_sum(g.degree[v] for v in s)


def conductance_subset(g: Graph, s) -> float:
    """cut(s) divided by the volume of the lighter side."""
    s = _check_subset(g, s)
    cut = cut_weight(g, s)
    vol_s = subset_volume(g, s)
    return cut / min(vol_s, g.volume - vol_s)


def conductance_exact(g: Graph, max_n: int = 24) -> tuple[float, VertexSet]:
    """Minimum conductance over all nonempty proper subsets, by enumeration.

    Returns (value, argmin subset); among tied argmins the subset with the
    lexicographically smallest membership vector wins.  Cost is
    O(2^(n-1) * (n + m)), hence the configurable size guard.
    """
    n = g.n
    if n > max_n:
        raise SizeGuardExceeded(f"conductance enumeration limited to {max_n} vertices (got {n})")
    deg = g.degree
    vol = g.volume
    edges = g.edges
    best: tuple[float, tuple[int, ...]] | None = None
    # The argmin set is closed under complement and one of each pair omits
    # vertex 0, so only even masks (bit0 = 0) need scanning.
    for mask in range(2, 1 << n, 2):
        vol_s = 0.0
        for i in range(1, n):
            if mask >> i & 1:
                vol_s += deg[i]
        cut = 0.0
        for u, v, w in edges:
            if (mask >> u & 1) != (mask >> v & 1):
                cut += w
        phi = cut / min(vol_s, vol - vol_s)
        if best is None or phi < best[0]:
            best = (phi, tuple(mask >> i & 1 for i in range(n)))
        elif phi == best[0]:
            vec = tuple(mask >> i & 1 for i in range(n))
            if vec < best[1]:
                best = (phi, vec)
    assert best is not None
    value, vec = best
    return value, frozenset(i for i, bit in enumerate(vec) if bit)


def check_distribution(p: Sequence[float]) -> tuple[float, ...]:
    try:
        p = tuple(map(float, p))
    except OverflowError:  # an integer beyond the float range
        raise InvariantViolation("distribution has a non-finite entry") from None
    if not p:
        raise InvariantViolation("empty distribution")
    if not all(map(math.isfinite, p)):
        raise InvariantViolation("distribution has a non-finite entry")
    if min(p) < 0:
        raise InvariantViolation("distribution has a negative entry")
    total = sum(p)
    if abs(total - 1.0) > _DISTRIBUTION_TOL:
        raise InvariantViolation(f"distribution sums to {total!r}, not 1")
    return p


def shannon_entropy(p: Sequence[float]) -> float:
    """-sum p_i log2 p_i with 0 log 0 = 0."""
    log2 = math.log2
    return -sum([x * log2(x) for x in check_distribution(p) if x > 0])


def one_dim_entropy(g: Graph) -> float:
    """Shannon entropy of the degree distribution d_v / vol(G)."""
    return shannon_entropy(tuple(d / g.volume for d in g.degree))


def _check_similarity(sim) -> np.ndarray:
    try:
        a = np.asarray(sim, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise InvariantViolation("similarity matrix has a non-finite entry") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvariantViolation("similarity matrix must be square")
    if a.shape[0] < 2:
        raise InvariantViolation("similarity matrix needs at least 2 rows")
    if not np.isfinite(a).all():
        raise InvariantViolation("similarity matrix has a non-finite entry")
    if np.abs(a - a.T).max() > _SYMMETRY_TOL:
        raise InvariantViolation("similarity matrix is not symmetric")
    off = a - np.diag(np.diag(a))
    if off.min() < 0:
        raise InvariantViolation("similarity matrix has a negative entry")
    return a


def positive_pairs(sim) -> list[tuple[float, int, int]]:
    """Off-diagonal pairs with positive weight, heaviest first, index ties first."""
    a = _check_similarity(sim)
    n = a.shape[0]
    pairs = [(float(a[i, j]), i, j) for i in range(n) for j in range(i + 1, n) if a[i, j] > 0]
    pairs.sort(key=lambda t: (-t[0], t[1], t[2]))
    return pairs


def build_topk_graph(sim, k: int, ids: Sequence[str] | None = None) -> Graph:
    """Keep exactly the k heaviest vertex pairs of a similarity matrix as edges.

    Ties break toward the smaller index pair.  The diagonal is ignored.
    Raises if fewer than k positive pairs exist or if the result is
    disconnected (k too small).
    """
    pairs = positive_pairs(sim)
    n = np.asarray(sim).shape[0]
    if not 1 <= k <= len(pairs):
        raise InvariantViolation(f"k={k} but only {len(pairs)} positive pairs are available")
    k_min = smallest_connected(n, pairs)
    if k_min is None or k < k_min:
        raise InvariantViolation(f"top-{k} graph is disconnected (k too small)")
    return Graph.from_index_edges(n, [(i, j, w) for w, i, j in pairs[:k]], ids=ids)


def smallest_connected(n: int, pairs) -> int | None:
    """Smallest count of leading (w, i, j) pairs joining all n vertices, by union-find."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = n
    for k, (_, i, j) in enumerate(pairs, start=1):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            components -= 1
            if components == 1:
                return k
    return None


def load_similarity_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a symmetric similarity matrix: first row and column are identifiers.

    The diagonal is ignored (zeroed).  Non-finite cells, asymmetry, negative
    entries and shape problems are parse errors.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 3:
        raise GraphParseError(f"{path}: similarity matrix needs at least 2 samples")
    ids = tuple(x.strip() for x in rows[0][1:])
    n = len(ids)
    values = np.zeros((n, n))
    if len(rows) != n + 1:
        raise GraphParseError(f"{path}: expected {n + 1} rows, got {len(rows)}")
    for r, row in enumerate(rows[1:]):
        if len(row) != n + 1:
            raise GraphParseError(f"{path}: row {r + 2} has {len(row)} fields, expected {n + 1}")
        if row[0].strip() != ids[r]:
            raise GraphParseError(f"{path}: row {r + 2} identifier {row[0]!r} does not match header")
        for c, cell in enumerate(row[1:]):
            try:
                values[r, c] = float(cell)
            except ValueError:
                values[r, c] = math.nan
            if not math.isfinite(values[r, c]):
                raise GraphParseError(f"{path}: row {r + 2}: bad number {cell!r}")
    np.fill_diagonal(values, 0.0)
    try:
        _check_similarity(values)
    except InvariantViolation as exc:
        raise GraphParseError(f"{path}: {exc}") from None
    return ids, values
