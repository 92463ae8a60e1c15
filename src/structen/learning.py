"""Structure-driven learning over data spaces.

Pipeline: connect observed points into a graph by sweeping an edge-count
parameter and keeping the value that maximizes decodable information; read
the minimizing tree as the space's decoder; annotate it with common feature
sets (knowledge tree); contract equal-feature edges (tree of abstractions);
then place newly observed points by abstraction matching followed by a
local entropy-driven re-fit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import GraphParseError, InvariantViolation
from .graph import (Graph, left_sum, one_dim_entropy, positive_pairs, shannon_entropy,
                    smallest_connected)
from .metrics import cached_entropy, node_terms, structural_entropy, term_sum
from .optimize import minimize_kd
from .tree import (EncodingTree, TreeNode, add_crossing, codeword, fold, leaf_chains,
                   validate_structure, walk)


@dataclass(frozen=True)
class FeatureSet:
    """Feature tokens of one data point, split into syntax and semantics."""

    syntax: frozenset = frozenset()
    semantics: frozenset = frozenset()

    @property
    def all(self) -> frozenset:
        return self.syntax | self.semantics

    def pick(self, source: str) -> frozenset:
        if source == "all":
            return self.all
        if source == "syntax":
            return self.syntax
        if source == "semantics":
            return self.semantics
        raise InvariantViolation(f"unknown feature source {source!r}")


class FeatureCatalog:
    """Per-vertex feature sets, keyed by external vertex id."""

    def __init__(self, entries: Mapping[str, FeatureSet] | None = None):
        self._entries: dict[str, FeatureSet] = dict(entries or {})

    def entry(self, vid) -> FeatureSet:
        try:
            return self._entries[str(vid)]
        except KeyError:
            raise InvariantViolation(f"missing catalog entry for vertex {vid!r}") from None

    def with_entry(self, vid, features: FeatureSet) -> "FeatureCatalog":
        out = dict(self._entries)
        out[str(vid)] = features
        return FeatureCatalog(out)

    def require_cover(self, g: Graph) -> None:
        for vid in g.vertex_ids:
            if vid not in self._entries:
                raise InvariantViolation(f"missing catalog entry for vertex {vid!r}")

    @classmethod
    def from_dict(cls, doc) -> "FeatureCatalog":
        if not isinstance(doc, dict):
            raise GraphParseError("feature catalog: expected an object of vertex entries")
        entries = {}
        for vid, entry in doc.items():
            if not isinstance(entry, dict):
                raise GraphParseError(f"feature catalog: entry for {vid!r} must be an object")
            syntax = entry.get("syntax", [])
            semantics = entry.get("semantics", [])
            if not isinstance(syntax, list) or not isinstance(semantics, list):
                raise GraphParseError(f"feature catalog: token lists expected for {vid!r}")
            entries[str(vid)] = FeatureSet(frozenset(map(str, syntax)),
                                           frozenset(map(str, semantics)))
        return cls(entries)

    def to_dict(self) -> dict:
        return {vid: {"syntax": sorted(fs.syntax), "semantics": sorted(fs.semantics)}
                for vid, fs in sorted(self._entries.items())}


@dataclass
class FeatureNode:
    """Node of a knowledge or abstraction tree."""

    features: frozenset
    vertices: frozenset
    decoder_path: tuple[int, ...]
    children: list["FeatureNode"] = field(default_factory=list)
    path: tuple[int, ...] = ()       # position in its own tree, set after build

    @property
    def is_leaf(self) -> bool:
        return not self.children


class _FeatureTree:
    __slots__ = ("root",)
    mirrors_decoder = False  # True for a tree with the decoder's shape

    def __init__(self, root: FeatureNode):
        self.root = root
        for path, node in walk(root):
            node.path = path
            if self.mirrors_decoder:
                node.decoder_path = path


class KnowledgeTree(_FeatureTree):
    """Decoder annotated with the common features of each marker."""

    mirrors_decoder = True


class AbstractionTree(_FeatureTree):
    """Knowledge tree with equal-feature parent-child edges contracted."""


def knowledge_tree(g: Graph, t: EncodingTree, catalog: FeatureCatalog,
                   source: str = "all") -> KnowledgeTree:
    """Annotate every tree node with the intersection of member feature sets."""
    catalog.require_cover(g)

    def annotate(node: TreeNode, children) -> FeatureNode:
        if node.is_leaf:
            feats = catalog.entry(g.vertex_ids[node.vertex]).pick(source)
        else:
            feats = frozenset.intersection(*(c.features for c in children))
        return FeatureNode(feats, node.vertices, (), children)

    return KnowledgeTree(fold(t.root, annotate))


def abstraction_tree(kt: KnowledgeTree) -> AbstractionTree:
    """Contract equal-feature parent-child edges; feature sets grow strictly."""

    # Each result is (node, its smallest vertex, its children's smallest
    # vertices), so every marker's minimum is taken once, over its children.
    def contract(node: FeatureNode, children) -> tuple[FeatureNode, int, list[int]]:
        kids: list[FeatureNode] = []
        lows: list[int] = []
        for child, low, child_lows in children:
            if child.features == node.features:
                kids += child.children  # absorb; grandchildren are strict already
                lows += child_lows
            else:
                kids.append(child)
                lows.append(low)
        if lows != sorted(lows):
            order = sorted(range(len(lows)), key=lows.__getitem__)
            kids, lows = [kids[i] for i in order], [lows[i] for i in order]
        low = min([r[1] for r in children]) if children else min(node.vertices)
        return FeatureNode(node.features, node.vertices, node.decoder_path, kids), low, lows

    return AbstractionTree(fold(kt.root, contract)[0])


def check_strict_growth(at: AbstractionTree) -> str | None:
    for _, node in walk(at.root):
        for child in node.children:
            if not node.features < child.features:
                return f"feature sets do not grow strictly below {node.path}"
    return None


def flow_of_abstractions(ds: "DataSpace", vid) -> list[frozenset]:
    """Feature-set chain along the vertex's root-to-leaf path, root last."""
    v = _vertex_index(ds.graph, vid)
    path = codeword(ds.decoder, v)
    chain = [ds.knowledge.root.features]
    node = ds.knowledge.root
    for i in path:
        node = node.children[i]
        chain.append(node.features)
    chain.reverse()
    return chain


def least_common_abstraction(ds: "DataSpace", uid, vid) -> frozenset:
    """Features at the deepest common ancestor of two distinct vertices."""
    u = _vertex_index(ds.graph, uid)
    v = _vertex_index(ds.graph, vid)
    if u == v:
        raise InvariantViolation("least_common_abstraction needs two distinct vertices")
    pu, pv = codeword(ds.decoder, u), codeword(ds.decoder, v)
    node = ds.knowledge.root
    for a, b in zip(pu, pv):
        if a != b:
            break
        node = node.children[a]
    return node.features


def choose_abstraction(ds: "DataSpace", features: Iterable[str]) -> FeatureNode:
    """Deepest abstraction whose feature set is contained in the query.

    Empty feature sets never match; ties prefer the larger feature set and
    then the smaller tree position.  Falls back to the root.
    """
    query = frozenset(map(str, features))
    best = None
    best_key = None
    for path, node in walk(ds.abstractions.root):
        if node.features and node.features <= query:
            key = (-len(path), -len(node.features), path)
            if best_key is None or key < best_key:
                best_key, best = key, node
    return best if best is not None else ds.abstractions.root


def _vertex_index(g: Graph, vid) -> int:
    try:
        return g.index[str(vid)]
    except KeyError:
        raise InvariantViolation(f"unknown vertex {vid!r}") from None


@dataclass(frozen=True)
class DataSpace:
    """Graph, decoder and catalog of one learned space; its feature trees
    are derived on first read."""

    graph: Graph
    decoder: EncodingTree
    catalog: FeatureCatalog
    construction_k: int
    height: int
    sweep: tuple[tuple[int, float], ...] = ()
    abstraction_source: str = "syntax"

    @classmethod
    def from_decoder(cls, g: Graph, decoder: EncodingTree, catalog: FeatureCatalog,
                     construction_k: int, height: int, sweep=(),
                     abstraction_source: str = "syntax") -> "DataSpace":
        """Space over a given graph and decoder.  A catalog that misses a
        vertex, or an unknown abstraction source, is rejected here."""
        catalog.require_cover(g)
        FeatureSet().pick(abstraction_source)
        return cls(g, decoder, catalog, construction_k, height, tuple(sweep),
                   abstraction_source)

    @cached_property
    def knowledge(self) -> KnowledgeTree:
        return knowledge_tree(self.graph, self.decoder, self.catalog, source="all")

    @cached_property
    def abstractions(self) -> AbstractionTree:
        return abstraction_tree(knowledge_tree(self.graph, self.decoder, self.catalog,
                                               source=self.abstraction_source))


def build_data_space(sim, catalog: FeatureCatalog, height: int = 2,
                     ids: Sequence[str] | None = None,
                     abstraction_source: str = "syntax") -> DataSpace:
    """Sweep the kept-edge count and keep the graph with maximal decodable info.

    The sweep runs from the smallest count giving a connected graph up to
    every positive pair; ties prefer the smaller count.
    """
    pairs = positive_pairs(sim)
    n = np.asarray(sim).shape[0]
    ids = tuple(ids) if ids is not None else tuple(str(i) for i in range(n))

    k_min = smallest_connected(n, pairs)
    if k_min is None:
        raise InvariantViolation("no edge count connects the samples (zero rows?)")

    sweep = []
    best = None
    best_d = -1.0
    for k in range(k_min, len(pairs) + 1):
        gk = Graph.from_index_edges(n, [(i, j, w) for w, i, j in pairs[:k]], ids=ids)
        result = minimize_kd(gk, height)
        d = one_dim_entropy(gk) - result.entropy
        sweep.append((k, d))
        if d > best_d:
            best_d, best = d, (k, gk, result.tree)
    best_k, graph, decoder = best
    return DataSpace.from_decoder(graph, decoder, catalog, best_k, height, sweep,
                                  abstraction_source)


@dataclass(frozen=True)
class InsertReport:
    """What happened while placing one new point."""

    abstraction: tuple[int, ...]   # position in the abstraction tree
    chosen_k: int
    module: tuple[str, ...]        # ids of the final module containing the point
    h_before: float
    h_after: float


def insert_point(ds: DataSpace, point_id, sims: Mapping[str, float],
                 syntax: Iterable[str] = (), semantics: Iterable[str] = ()
                 ) -> tuple[DataSpace, InsertReport]:
    """Stream one new point into the space.

    Abstraction matching selects the target module.  The slots near it are,
    in order: the module's subtree in preorder, its parent, its siblings.
    The first is the home slot: the module itself, or its parent when the
    module is a leaf at the height cap.  The attachment edge count is swept
    for maximal decodable information with the point in the home slot; on
    the winning graph, scored home first, each other slot replaces the best
    so far only if its entropy is lower by more than 1e-12.  No slot lets
    the decoder grow past the space's height.
    """
    point_id = str(point_id)
    g = ds.graph
    if point_id in g.index:
        raise InvariantViolation(f"vertex id {point_id!r} already present")
    if ds.decoder.height() > ds.height:
        raise InvariantViolation(f"decoder is taller than the height cap {ds.height}")
    weights = []
    for vid, w in sims.items():
        v = _vertex_index(g, vid)
        try:
            w = float(w)
        except OverflowError:  # an integer beyond the float range
            w = math.inf
        if not 0 <= w < math.inf:
            raise InvariantViolation(f"negative or non-finite similarity for {vid!r}")
        if w > 0:
            weights.append((w, v))
    if not weights:
        raise InvariantViolation("all similarities are zero")
    weights.sort(key=lambda t: (-t[0], t[1]))

    features = FeatureSet(frozenset(map(str, syntax)), frozenset(map(str, semantics)))
    target = choose_abstraction(ds, features.pick(ds.abstraction_source))
    h_before = structural_entropy(g, ds.decoder)
    x = g.n
    base = _marker_cuts(g, ds.decoder)
    placements = [_apply_position(ds.decoder, path, x)
                  for path in _slots(ds.decoder, target.decoder_path, ds.height)]
    placed = [_placed_cuts(tree, base, x) for tree in placements]
    attachment = [(g.vertex_ids[v], w) for w, v in weights]
    g.with_vertex(point_id, attachment)  # checks every count: each is a subgraph of this
    best_k = _best_count(g, placements[0], placed[0], weights)
    new_graph = g.with_vertex(point_id, attachment[:best_k])
    new_edges = new_graph.edges[len(g.edges):]
    degree_of = new_graph.degree.__getitem__
    new_tree, best_h = None, math.inf
    for tree, (nodes, chains, cuts) in zip(placements, placed):  # home first
        add_crossing(cuts, chains, new_edges)
        for (_, node), cut in zip(nodes, cuts):
            node.vol, node.cut = left_sum(map(degree_of, node.vertices)), cut
        h = cached_entropy(tree, new_graph.volume)
        if h < best_h - 1e-12:
            best_h, new_tree = h, tree
    h_after = structural_entropy(new_graph, new_tree)

    catalog = ds.catalog.with_entry(point_id, features)
    out = DataSpace.from_decoder(new_graph, new_tree, catalog, ds.construction_k,
                                 ds.height, ds.sweep, ds.abstraction_source)
    leaf_path = codeword(new_tree, x)
    if len(leaf_path) > 1:
        module = new_tree.node_at(leaf_path[:-1]).vertices
    else:
        module = frozenset((x,))
    report = InsertReport(abstraction=target.path, chosen_k=best_k,
                          module=tuple(sorted(new_graph.vertex_ids[v] for v in module)),
                          h_before=h_before, h_after=h_after)
    return out, report


def _marker_cuts(g: Graph, t: EncodingTree) -> dict:
    """Every marker of t, a valid tree over g, mapped to its cut, from one
    pass over g's edges; the empty marker maps to 0.0."""
    nodes, chains = leaf_chains(t)
    cuts = [0.0] * len(nodes)
    add_crossing(cuts, chains, g.edges)
    base = {node.vertices: cut for (_, node), cut in zip(nodes, cuts)}
    base[frozenset()] = 0.0
    return base


def _placed_cuts(t: EncodingTree, base, x: int):
    """Preorder nodes and leaf chains of a placement of a new vertex x,
    after its structure check, and each node's cut over the old edges.

    A node crosses the same old edges as its marker without x, so its cut
    is read from `_marker_cuts` of the tree x was placed in; x's own leaf
    crosses none.
    """
    msg = validate_structure(t, x + 1)
    if msg:
        raise InvariantViolation(f"invalid encoding tree: {msg}")
    nodes, chains = leaf_chains(t)
    return nodes, chains, [base[node.vertices - {x}] for _, node in nodes]


def _best_count(g: Graph, home: EncodingTree, placed, weights) -> int:
    """Attachment count k with the most decodable information, H1 - H(home),
    on g plus the edges from x = g.n to the first k (w, v) of `weights`;
    ties keep the smaller k.

    Starts from home's `_placed_cuts`, which it leaves as they are; then
    each count costs O(n + nodes).  H's terms are kept in flat lists, in the
    order `metrics.cached_entropy` sums them, and a count recomputes only
    the terms of the nodes on the two changed leaf chains and of their
    children.  A count's graph lists its new edges after every old one, and
    every degree, volume, vol and cut is a left fold, so each value here is
    bit for bit what `Graph` and `refresh_stats` compute on that graph.  The
    caller has checked the graph with every edge of `weights`.
    """
    x = g.n
    nodes, chains, cuts = placed
    cuts = list(cuts)
    deg = [*g.degree, 0.0]
    degree_of = deg.__getitem__
    markers = [node.vertices for _, node in nodes]
    vols = [left_sum(map(degree_of, marker)) for marker in markers]
    at = {id(node): i for i, (_, node) in enumerate(nodes)}
    terms = [(at[id(c)], at[id(p)]) for c, p in node_terms(home)]
    term_of = [None] * len(nodes)  # node -> position of its term; the root has none
    parent = [None] * len(nodes)
    kids: list[list[int]] = [[] for _ in nodes]
    for pos, (i, p) in enumerate(terms):
        term_of[i], parent[i] = pos, p
        kids[p].append(i)
    term_cuts = [cuts[i] for i, _ in terms]
    # x's leaf has vol 0 until the first count, which sets its log
    logs = [math.log2(vols[i] / vols[p]) if vols[i] else 0.0 for i, p in terms]
    best_d = -math.inf
    for k, (w, v) in enumerate(weights, start=1):
        deg[v] = g.degree[v] + w
        deg[x] += w
        volume = left_sum(deg)
        add_crossing(cuts, chains, ((v, x, w),))
        changed = {*chains[v], *chains[x]}
        for i in changed:
            vols[i] = left_sum(map(degree_of, markers[i]))
        for i in changed:  # a changed vol moves its own term's log and its children's
            for j in (i, *kids[i]):
                if term_of[j] is not None:
                    logs[term_of[j]] = math.log2(vols[j] / vols[parent[j]])
            if term_of[i] is not None:
                term_cuts[term_of[i]] = cuts[i]
        h = term_sum(zip(term_cuts, logs), volume)
        d = shannon_entropy([dv / volume for dv in deg]) - h
        if d > best_d:
            best_d, best_k = d, k
    return best_k


def _slots(t: EncodingTree, module_path, cap: int) -> list[tuple[int, ...]]:
    """Paths of the nodes x may join, in trial order, within the height cap.

    The module's subtree in preorder, then the module's parent, then its
    siblings; only paths shorter than `cap` stay, since x lands one level
    below its slot.
    """
    paths = [module_path + p for p, _ in walk(t.node_at(module_path))]
    if module_path:
        parent_path = module_path[:-1]
        paths.append(parent_path)
        paths += [parent_path + (i,) for i in range(len(t.node_at(parent_path).children))
                  if i != module_path[-1]]
    return [p for p in paths if len(p) < cap]


def _apply_position(decoder: EncodingTree, path, x: int) -> EncodingTree:
    """Decoder copy with x inserted as a new leaf at the node at path.

    An internal node gains x as one more child; a leaf grows into a
    two-leaf module holding its vertex and x.  Its stats are left stale.
    """
    t = decoder.copy()
    node = t.root
    for i in path:  # the node's marker and every ancestor marker gain x
        node.vertices |= {x}
        node = node.children[i]
    leaf = TreeNode((x,))
    if node.is_leaf:
        node.children = [TreeNode(node.vertices), leaf]
    else:
        node.children.append(leaf)
        node.children.sort(key=TreeNode.min_vertex)
    node.vertices |= {x}
    return t


def classify_by_abstraction(abstraction_sets: Sequence[tuple[str, Iterable[str]]],
                            sample: Mapping[str, float]) -> str:
    """Label whose abstraction set has the largest mean sample value.

    Tokens absent from the sample count as 0; ties keep the first label in
    input order.  Every sample value must be a finite real number.
    """
    for tok, value in sample.items():
        try:
            finite = isinstance(value, numbers.Real) and math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise InvariantViolation(f"sample value for {tok!r} is not a finite number")
    best_label = None
    best_mean = -float("inf")
    for label, tokens in abstraction_sets:
        tokens = tuple(tokens)
        if not tokens:
            raise InvariantViolation(f"empty abstraction set for label {label!r}")
        mean = sum(float(sample.get(tok, 0.0)) for tok in tokens) / len(tokens)
        if mean > best_mean:
            best_mean, best_label = mean, label
    if best_label is None:
        raise InvariantViolation("no abstraction sets given")
    return best_label
