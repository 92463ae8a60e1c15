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
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import GraphParseError, InvariantViolation
from .graph import (Graph, is_integer, left_sum, one_dim_entropy, positive_pairs,
                    real_weight, smallest_connected)
from .metrics import cached_entropy, node_terms, structural_entropy, term_sum
from .optimize import DELTA_TOL, _check_height, minimize_kd
from .tree import (EncodingTree, TreeNode, _node_stats, add_crossing, codeword, fold,
                   leaf_chains, refresh_stats, walk)


def is_token_list(tokens) -> bool:
    """Whether a document's token list is a JSON list of strings."""
    return isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)


@dataclass(frozen=True)
class FeatureSet:
    """Feature tokens of one data point, split into syntax and semantics.
    Each is given as a collection of string tokens, not one string, and
    stored as a frozenset; any other token is rejected, as in a document."""

    syntax: frozenset = frozenset()
    semantics: frozenset = frozenset()

    def __post_init__(self):
        for name in ("syntax", "semantics"):
            object.__setattr__(self, name, _token_set(getattr(self, name), name))

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
    """Per-vertex feature sets, keyed by external vertex id as a string:
    an entry given under `0` is the entry of vertex `'0'`."""

    def __init__(self, entries: Mapping[object, FeatureSet] | None = None):
        self._entries: dict[str, FeatureSet] = {}
        for vid, features in dict(entries or {}).items():
            if not isinstance(features, FeatureSet):
                raise InvariantViolation(f"catalog entry for vertex {vid!r} is not a FeatureSet")
            if str(vid) in self._entries:
                raise InvariantViolation(f"two catalog entries for vertex {str(vid)!r}")
            self._entries[str(vid)] = features

    def entry(self, vid) -> FeatureSet:
        try:
            return self._entries[str(vid)]
        except KeyError:
            raise InvariantViolation(f"missing catalog entry for vertex {vid!r}") from None

    def with_entry(self, vid, features: FeatureSet) -> "FeatureCatalog":
        out = dict(self._entries)
        out[str(vid)] = features
        return FeatureCatalog(out)

    def require_cover(self, vertex_ids: Iterable[str]) -> None:
        for vid in vertex_ids:
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
            if not (is_token_list(syntax) and is_token_list(semantics)):
                raise GraphParseError(f"feature catalog: token lists expected for {vid!r}")
            entries[vid] = FeatureSet(syntax, semantics)
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
    catalog.require_cover(g.vertex_ids)
    leaf_chains(t, g.n)

    def annotate(node: TreeNode, children) -> FeatureNode:
        if node.is_leaf:
            feats = catalog.entry(g.vertex_ids[node.vertex]).pick(source)
        else:
            feats = frozenset.intersection(*(c.features for c in children))
        return FeatureNode(feats, node.vertices, (), children)

    return KnowledgeTree(fold(t.root, annotate))


def abstraction_tree(kt: KnowledgeTree) -> AbstractionTree:
    """Contract equal-feature parent-child edges; feature sets grow strictly."""

    def contract(node: FeatureNode, children) -> FeatureNode:
        kids: list[FeatureNode] = []
        for child in children:
            if child.features == node.features:
                kids += child.children  # absorb; grandchildren are strict already
            else:
                kids.append(child)
        kids.sort(key=lambda c: min(c.vertices))  # absorbed grandchildren may fall between
        return FeatureNode(node.features, node.vertices, node.decoder_path, kids)

    return AbstractionTree(fold(kt.root, contract))


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
    then the smaller tree position.  Falls back to the root.  The query's
    tokens must be strings, as a `FeatureSet`'s are.
    """
    query = _token_set(features, "feature query")
    best = None
    best_key = None
    for path, node in walk(ds.abstractions.root):
        if node.features and node.features <= query:
            key = (-len(path), -len(node.features), path)
            if best_key is None or key < best_key:
                best_key, best = key, node
    return best if best is not None else ds.abstractions.root


def _tokens(tokens, what: str):
    """`tokens` as given, unless it is one string, which would read as a
    set of characters."""
    if isinstance(tokens, str):
        raise InvariantViolation(f"{what} is a string, not a collection of tokens")
    return tokens


def _token_set(tokens, what: str) -> frozenset:
    """`tokens` as a frozenset, each of them a string."""
    tokens = list(_tokens(tokens, what))
    if not is_token_list(tokens):
        raise InvariantViolation(f"{what} tokens must be strings")
    return frozenset(tokens)


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

    def __post_init__(self):
        """A catalog that misses a vertex, an unknown abstraction source, a
        height cap that `_check_height` rejects, a construction count that
        is not an integer, or a decoder that is not a partition tree over
        the graph's vertices or is taller than the height is rejected when
        the space is made, `dataclasses.replace` included."""
        self.catalog.require_cover(self.graph.vertex_ids)
        _check_height(self.height)
        if not is_integer(self.construction_k):
            raise InvariantViolation(f"construction_k {self.construction_k!r} is not an integer")
        _, chains = leaf_chains(self.decoder, self.graph.n)
        if max(map(len, chains.values())) > self.height + 1:  # a chain starts at the root
            raise InvariantViolation(f"decoder is taller than the height cap {self.height}")
        FeatureSet().pick(self.abstraction_source)
        object.__setattr__(self, "sweep", tuple(self.sweep))

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
    every positive pair; ties prefer the smaller count.  The catalog, the
    abstraction source and the height cap are checked before the sweep,
    right after the matrix, whose size gives the default ids.
    """
    pairs = positive_pairs(sim)
    n = len(sim)
    ids = tuple(map(str, ids)) if ids is not None else tuple(str(i) for i in range(n))
    catalog.require_cover(ids)
    FeatureSet().pick(abstraction_source)
    _check_height(height)

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
    return DataSpace(graph, decoder, catalog, best_k, height, sweep, abstraction_source)


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
    for maximal decodable information with the point in the home slot.
    Then `refresh_stats` checks each slot and computes its stats on the
    winning graph, home first, and a slot replaces the best so far only if
    its entropy is lower by more than `DELTA_TOL`; `h_after` is the
    winner's.  No slot lets the decoder grow past the space's height.
    """
    point_id = str(point_id)
    g = ds.graph
    if point_id in g.index:
        raise InvariantViolation(f"vertex id {point_id!r} already present")
    weights = []
    for vid, w in sims.items():
        v = _vertex_index(g, vid)
        w = real_weight(w, f"similarity for {vid!r}")
        if not 0 <= w < math.inf:
            raise InvariantViolation(f"negative or non-finite similarity for {vid!r}")
        if w > 0:
            weights.append((w, v))
    if not weights:
        raise InvariantViolation("all similarities are zero")
    weights.sort(key=lambda t: (-t[0], t[1]))

    features = FeatureSet(syntax, semantics)
    target = choose_abstraction(ds, features.pick(ds.abstraction_source))
    h_before = structural_entropy(g, ds.decoder)
    x = g.n
    placements = [(path, _apply_position(ds.decoder, path, x))
                  for path in _slots(ds.decoder, target.decoder_path, ds.height)]
    attachment = [(g.vertex_ids[v], w) for w, v in weights]
    g.with_vertex(point_id, attachment)  # checks every count: each is a subgraph of this
    best_k = _best_count(g, placements[0][1], weights)
    new_graph = g.with_vertex(point_id, attachment[:best_k])
    h_after = math.inf
    for path, tree in placements:  # home first
        refresh_stats(new_graph, tree)
        h = cached_entropy(tree, new_graph.volume)
        if h < h_after - DELTA_TOL:
            slot, new_tree, h_after = path, tree, h

    catalog = ds.catalog.with_entry(point_id, features)
    out = replace(ds, graph=new_graph, decoder=new_tree, catalog=catalog)
    module = new_tree.node_at(slot).vertices if slot else (x,)  # x's parent is its slot
    report = InsertReport(abstraction=target.path, chosen_k=best_k,
                          module=tuple(sorted(new_graph.vertex_ids[v] for v in module)),
                          h_before=h_before, h_after=h_after)
    return out, report


def _best_count(g: Graph, home: EncodingTree, weights) -> int:
    """Attachment count k with the most decodable information in `home`,
    scored as `metrics.compressing_info` (which equals H1 - H), on g plus
    the edges from x = g.n to the first k (w, v) of `weights`; ties keep
    the smaller k.

    `tree._node_stats` over g's degrees, plus 0.0 for x, and over g's
    edges gives home's checked preorder, its leaf chains and every node's
    old-edge vol and cut (x has no old edge), which are written into
    home's own nodes.  A count then refolds only the nodes on the two
    changed leaf chains and sums vol - cut with `term_sum` over home's
    stats in `node_terms` order.  A count's graph lists its new edges
    after every old one, and every degree, volume, vol and cut is a left
    fold, so each score is bit for bit `compressing_info` of home on that
    graph.  Home's stats are left at the last count's; the caller's
    `refresh_stats` rewrites them.  The caller has checked the graph with
    every edge of `weights`.
    """
    x = g.n
    deg = [*g.degree, 0.0]
    degree_of = deg.__getitem__
    nodes, chains, vols, cuts = _node_stats(home, deg, g.edges)
    for (_, node), vol, cut in zip(nodes, vols, cuts):
        node.vol, node.cut = vol, cut
    terms = list(node_terms(home))
    log2 = math.log2
    best_d = -math.inf
    for k, (w, v) in enumerate(weights, start=1):
        deg[v] = g.degree[v] + w
        deg[x] += w
        volume = left_sum(deg)
        add_crossing(cuts, chains, ((v, x, w),))
        for i in {*chains[v], *chains[x]}:
            node = nodes[i][1]
            node.vol, node.cut = left_sum(map(degree_of, node.vertices)), cuts[i]
        d = term_sum([(c.vol - c.cut, log2(c.vol / p.vol)) for c, p in terms], volume)
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
    """Decoder copy with x, a vertex above all of the decoder's, inserted
    as a new leaf at the node at path.

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
        node.children.append(leaf)  # x is the largest vertex, so order needs no sort
    node.vertices |= {x}
    return t


def classify_by_abstraction(abstraction_sets: Sequence[tuple[str, Iterable[str]]],
                            sample: Mapping[str, float]) -> str:
    """Label whose abstraction set has the largest mean sample value.

    Tokens absent from the sample count as 0; ties keep the first label in
    input order.  Every sample value must be a finite real number, not a
    bool, and every token set a collection of tokens, not one string.
    """
    values = {}
    for tok, value in sample.items():
        try:
            values[tok] = real_weight(value, "sample value")
        except InvariantViolation:
            values[tok] = math.nan
        if not math.isfinite(values[tok]):
            raise InvariantViolation(f"sample value for {tok!r} is not a finite number")
    best_label = None
    best_mean = -float("inf")
    for label, tokens in abstraction_sets:
        tokens = tuple(_tokens(tokens, f"abstraction set for label {label!r}"))
        if not tokens:
            raise InvariantViolation(f"empty abstraction set for label {label!r}")
        mean = left_sum(values.get(tok, 0.0) for tok in tokens) / len(tokens)
        if mean > best_mean:
            best_mean, best_label = mean, label
    if best_label is None:
        raise InvariantViolation("no abstraction sets given")
    return best_label
