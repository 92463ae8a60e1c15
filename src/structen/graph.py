"""Weighted undirected graphs: cuts, conductance, degree entropy, top-k construction.

Vertices carry external string identifiers and are indexed densely in
first-appearance order.  All cuts, degrees and volumes are weighted sums;
unit weights recover plain edge counting.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from functools import reduce
from operator import add, sub
from typing import Iterable, Sequence

from .errors import GraphParseError, InvariantViolation, SizeGuardExceeded

# dense vertex indices; frozenset keeps subsets hashable and immutable
VertexSet = frozenset

_DISTRIBUTION_TOL = 1e-9
_SYMMETRY_TOL = 1e-9


def left_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum: ((0.0 + a) + b) + ..., on every CPython.

    From 3.12 on, the builtin `sum` compensates float rounding, so it would
    no longer match a running `total += w`.
    """
    return reduce(add, values, 0.0)


def is_integer(x) -> bool:
    """Whether x is an integer, a numpy one included, and not a bool."""
    # the exact int test first: an isinstance check against an ABC is slow
    return type(x) is int or isinstance(x, numbers.Integral) and not isinstance(x, bool)


def check_integer(x, name: str) -> None:
    """The check of a count or size guard passed as `name`: `is_integer`."""
    if not is_integer(x):
        raise InvariantViolation(f"{name}={x!r} is not an integer")


def format_real(x: float) -> str:
    """`x` with 9 decimals, the one format of every real number the package
    prints; a value that rounds to zero prints without a sign."""
    text = f"{x:.9f}"
    return text[1:] if text[0] == "-" and float(text) == 0 else text


def parse_real(text: str) -> float:
    """A number as written in an input file: `float(text)`, except that a
    digit separator is a ValueError, so a typo such as `1_5` is not read
    as 15."""
    if "_" in text:
        raise ValueError(f"digit separator in {text!r}")
    return float(text)


def real_weight(w, what: str) -> float:
    """`w` as a float, inf for an integer beyond the float range; a value
    that is not a real number, or is a bool, raises InvariantViolation."""
    # the exact float test first: an isinstance check against an ABC is slow
    if type(w) is not float and (not isinstance(w, numbers.Real) or isinstance(w, bool)):
        raise InvariantViolation(f"{what} is not a real number")
    try:
        return float(w)
    except OverflowError:  # an integer beyond the float range
        return math.inf


def _checked_volume(degree: Sequence[float], connected: bool) -> float:
    """Volume of a graph with these degrees, after the checks on its totals:
    a finite volume and connectivity."""
    volume = left_sum(degree)
    if volume == math.inf:
        raise InvariantViolation("graph volume overflows to inf")
    if not connected:
        raise InvariantViolation("graph is disconnected")
    return volume


def _file_edges(index: dict[str, int], edges, degree: list[float]) -> list[tuple[int, int, float]]:
    """`(u id, v id, w)` edges as `(min index, max index, w)`, in order,
    after the checks every edge must pass: both endpoints are vertices, no
    self-loop, a finite positive real weight, and no repeat within `edges`.
    Each weight is added to both endpoints' `degree`, a running left fold."""
    out: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    for u_id, v_id, w in edges:
        u_id, v_id = str(u_id), str(v_id)
        if u_id not in index or v_id not in index:
            missing = u_id if u_id not in index else v_id
            raise InvariantViolation(f"edge endpoint {missing!r} is not a vertex")
        w = real_weight(w, f"weight on edge {u_id!r}-{v_id!r}")
        if u_id == v_id:
            raise InvariantViolation(f"self-loop at vertex {u_id!r}")
        if not math.isfinite(w):
            raise InvariantViolation(f"non-finite weight on edge {u_id!r}-{v_id!r}")
        if not w > 0:
            raise InvariantViolation(f"non-positive weight on edge {u_id!r}-{v_id!r}")
        u, v = index[u_id], index[v_id]
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise InvariantViolation(f"duplicate edge {u_id!r}-{v_id!r}")
        seen.add(key)
        degree[u] += w
        degree[v] += w
        out.append((*key, w))
    return out


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

        degree = [0.0] * len(ids)
        edge_list = _file_edges(self.index, edges, degree)
        if not edge_list:
            raise InvariantViolation("a graph needs at least one edge")

        self.edges = tuple(edge_list)
        self.degree = tuple(degree)
        connected = smallest_connected(len(ids), ((w, u, v) for u, v, w in edge_list)) is not None
        self.volume = _checked_volume(self.degree, connected)

    def with_vertex(self, vid, edges: Iterable[tuple[str, float]]) -> "Graph":
        """This graph plus vertex `vid`, joined by a `(neighbour id, weight)`
        edge to each listed neighbour; `self` is left as it is.

        The result equals `Graph(vertex_ids + (vid,), old edges + [(nbr,
        vid, w), ...])` bit for bit, with the same checks and messages, but
        only the new edges are checked: every degree and the volume are the
        left folds that rebuild makes, and the graph stays connected as
        long as one new edge exists.
        """
        vid = str(vid)
        if vid in self.index:
            raise InvariantViolation("duplicate vertex identifier")
        ids = self.vertex_ids + (vid,)
        index = {**self.index, vid: self.n}
        degree = [*self.degree, 0.0]
        new_edges = _file_edges(index, ((u_id, vid, w) for u_id, w in edges), degree)

        out = Graph.__new__(Graph)
        out.vertex_ids = ids
        out.index = index
        out.edges = self.edges + tuple(new_edges)
        out.degree = tuple(degree)
        out.volume = _checked_volume(out.degree, connected=bool(new_edges))
        return out

    @classmethod
    def from_index_edges(cls, n: int, edges: Iterable[tuple[int, int, float]],
                         ids: Sequence[str] | None = None) -> "Graph":
        """Build from integer-indexed edges; ids default to "0".."n-1".
        n and every endpoint must be integers, not bools; each endpoint in range(n)."""
        check_integer(n, "n")
        ids = tuple(ids) if ids is not None else tuple(str(i) for i in range(n))
        if len(ids) != n:
            raise InvariantViolation(f"expected {n} vertex ids, got {len(ids)}")

        def vertex_id(x) -> str:
            if not (is_integer(x) and 0 <= x < n):
                raise InvariantViolation(f"edge endpoint {x!r} is not a vertex index in range({n})")
            return ids[x]

        return cls(ids, [(vertex_id(u), vertex_id(v), w) for u, v, w in edges])

    @property
    def n(self) -> int:
        return len(self.vertex_ids)


def read_text(path, newline: str | None = None) -> str:
    """A whole file decoded as UTF-8; bytes that do not decode are a parse
    error naming the file.  `newline` is passed to `open`."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise GraphParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_graph(path) -> Graph:
    """Parse an edge-list file.

    One edge per line: `<u> <v> [<weight>]`, whitespace separated, weight
    defaulting to 1.0; lines starting with `#` and blank lines are skipped.
    Vertex order is first appearance.
    """
    ids: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str, float]] = []
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
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
                w = parse_real(fields[2])
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


def vertex_set(g: Graph, s) -> VertexSet:
    """s as a set of vertex indices of g; a member that is not an integer
    in range(g.n), or is a bool, raises InvariantViolation."""
    s = frozenset(s)
    if not all(is_integer(v) and 0 <= v < g.n for v in s):
        raise InvariantViolation("subset contains an out-of-range vertex")
    return s


def _check_subset(g: Graph, s) -> VertexSet:
    s = frozenset(s)
    if not s:
        raise InvariantViolation("subset is empty")
    if len(vertex_set(g, s)) == g.n:
        raise InvariantViolation("subset equals the whole vertex set")
    return s


def cut_weight(g: Graph, s) -> float:
    """Total weight of edges with exactly one endpoint in s."""
    s = _check_subset(g, s)
    return left_sum(w for u, v, w in g.edges if (u in s) != (v in s))


def subset_volume(g: Graph, s) -> float:
    """Total degree of the vertices in s, which may be empty or every vertex."""
    return left_sum(g.degree[v] for v in vertex_set(g, s))


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
    check_integer(max_n, "max_n")
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
    """`p` as a tuple of floats, each entry read by `real_weight`, after the
    checks every distribution must pass: nonempty, finite, no negative
    entry, and a sum within 1e-9 of 1."""
    p = tuple([real_weight(x, "distribution entry") for x in p])
    if not p:
        raise InvariantViolation("empty distribution")
    if not all(map(math.isfinite, p)):
        raise InvariantViolation("distribution has a non-finite entry")
    if min(p) < 0:
        raise InvariantViolation("distribution has a negative entry")
    total = left_sum(p)
    if abs(total - 1.0) > _DISTRIBUTION_TOL:
        raise InvariantViolation(f"distribution sums to {total!r}, not 1")
    return p


def shannon_entropy(p: Sequence[float]) -> float:
    """-sum p_i log2 p_i with 0 log 0 = 0."""
    log2 = math.log2
    return -left_sum([x * log2(x) for x in check_distribution(p) if x > 0])


def one_dim_entropy(g: Graph) -> float:
    """Shannon entropy of the degree distribution d_v / vol(G)."""
    return shannon_entropy(tuple(d / g.volume for d in g.degree))


def _check_similarity(sim) -> list[list[float]]:
    """`sim` as rows of floats, each cell read by `real_weight`, after the
    checks every similarity matrix must pass: square, at least 2 rows,
    finite, symmetric to 1e-9 of the largest |cell| off the diagonal, and
    no negative cell off the diagonal."""
    try:
        n = len(sim)
        rows = [[real_weight(x, "similarity matrix cell") for x in row] for row in sim]
    except TypeError:  # sim, or one of its rows, is not a sequence
        raise InvariantViolation("similarity matrix must be square") from None
    if any(len(row) != n for row in rows):
        raise InvariantViolation("similarity matrix must be square")
    if n < 2:
        raise InvariantViolation("similarity matrix needs at least 2 rows")
    if not all(all(map(math.isfinite, row)) for row in rows):
        raise InvariantViolation("similarity matrix has a non-finite entry")
    tol = _SYMMETRY_TOL * max(max(map(abs, r[:i] + r[i + 1:])) for i, r in enumerate(rows))
    if any(max(map(abs, map(sub, r, c))) > tol for r, c in zip(rows, zip(*rows))):
        raise InvariantViolation("similarity matrix is not symmetric")
    if any(min(row[:i] + row[i + 1:]) < 0 for i, row in enumerate(rows)):
        raise InvariantViolation("similarity matrix has a negative entry")
    return rows


def positive_pairs(sim) -> list[tuple[float, int, int]]:
    """Off-diagonal pairs with positive weight, heaviest first, index ties first."""
    rows = _check_similarity(sim)
    pairs = [(w, i, j) for i, row in enumerate(rows)
             for j, w in enumerate(row[i + 1:], start=i + 1) if w > 0]
    pairs.sort(key=lambda t: (-t[0], t[1], t[2]))
    return pairs


def build_topk_graph(sim, k: int, ids: Sequence[str] | None = None) -> Graph:
    """Keep exactly the k heaviest vertex pairs of a similarity matrix as edges.

    Ties break toward the smaller index pair.  The diagonal is ignored.
    Raises if fewer than k positive pairs exist or if the result is
    disconnected (k too small).
    """
    pairs = positive_pairs(sim)
    n = len(sim)
    check_integer(k, "k")
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


def load_similarity_csv(path) -> tuple[tuple[str, ...], list[list[float]]]:
    """Read a symmetric similarity matrix: first row and column are identifiers.

    The diagonal is ignored (zeroed).  Non-finite cells, asymmetry, negative
    entries and shape problems are parse errors.  The matrix comes back as
    rows of floats, indexed `values[r][c]`.
    """
    rows = list(csv.reader(io.StringIO(read_text(path, newline=""), newline="")))
    if len(rows) < 3:
        raise GraphParseError(f"{path}: similarity matrix needs at least 2 samples")
    ids = tuple(x.strip() for x in rows[0][1:])
    n = len(ids)
    if len(rows) != n + 1:
        raise GraphParseError(f"{path}: expected {n + 1} rows, got {len(rows)}")
    values = [[0.0] * n for _ in range(n)]
    for r, row in enumerate(rows[1:]):
        if len(row) != n + 1:
            raise GraphParseError(f"{path}: row {r + 2} has {len(row)} fields, expected {n + 1}")
        if row[0].strip() != ids[r]:
            raise GraphParseError(f"{path}: row {r + 2} identifier {row[0]!r} does not match header")
        for c, cell in enumerate(row[1:]):
            try:
                values[r][c] = parse_real(cell)
            except ValueError:
                values[r][c] = math.nan
            if not math.isfinite(values[r][c]):
                raise GraphParseError(f"{path}: row {r + 2}: bad number {cell!r}")
        values[r][r] = 0.0
    try:
        return ids, _check_similarity(values)
    except InvariantViolation as exc:
        raise GraphParseError(f"{path}: {exc}") from None
