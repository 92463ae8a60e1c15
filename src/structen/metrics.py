"""Entropy and information functionals of a (graph, encoding tree) pair.

The tree functional is

    H(T) = -sum over non-root nodes a of (g_a / vol) * log2(V_a / V_parent)

where g_a is the cut weight of the node's marker and V_a its volume.
Replacing g_a by other set functions gives the module-function variants;
replacing it by V_a - g_a gives the compressed (eliminated) information.
Each dense formula is paired with an independent edgewise oracle that walks
codeword paths per edge, so the two routes can be cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import InvariantViolation
from .graph import (Graph, VertexSet, check_distribution, conductance_exact,
                    cut_weight, format_real, left_sum, one_dim_entropy, real_weight,
                    subset_volume)
from .tree import EncodingTree, TreeNode, check_valid, fold, leaf_chains

IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class ModuleFunction:
    """Weighting of tree-node markers: cut, volume, or a user-supplied map."""

    kind: str
    fn: Callable[[VertexSet], float] | None = None

    @classmethod
    def cut(cls) -> "ModuleFunction":
        return cls("cut")

    @classmethod
    def volume(cls) -> "ModuleFunction":
        return cls("volume")

    @classmethod
    def custom(cls, fn: Callable[[VertexSet], float]) -> "ModuleFunction":
        return cls("custom", fn)

    def __call__(self, g: Graph, marker: VertexSet) -> float:
        if self.kind == "cut":
            return cut_weight(g, marker)
        if self.kind == "volume":
            return subset_volume(g, marker)
        if self.kind == "custom" and self.fn is not None:
            value = real_weight(self.fn(marker), "module function value")
            if not 0 <= value < math.inf:
                raise InvariantViolation(f"module function returned {value!r} on {sorted(marker)}")
            return value
        raise InvariantViolation(f"unknown module function kind {self.kind!r}")


def node_terms(t: EncodingTree):
    """Yield (node, parent) for every non-root node, in the order H sums them."""
    stack = [t.root]
    while stack:
        parent = stack.pop()
        for child in parent.children:
            yield child, parent
            if not child.is_leaf:
                stack.append(child)


def term_sum(terms: Iterable[tuple[float, float]], vol: float) -> float:
    """-sum of w / vol * l over (w, l) terms, in the order given, where l is
    a node's log2(V_a / V_parent): the one H sum in the package, run on
    each caller's own node stats."""
    return -left_sum([w / vol * l for w, l in terms])


def _tree_sum(t: EncodingTree, vol: float, weight: Callable[[TreeNode], float]) -> float:
    # the tree functional for any marker weighting, from the cached stats
    log2 = math.log2
    return term_sum([(weight(c), log2(c.vol / p.vol)) for c, p in node_terms(t)], vol)


def cached_entropy(t: EncodingTree, vol: float) -> float:
    """`structural_entropy` from the tree's cached stats alone, for a graph
    of volume vol; nothing is checked."""
    return _tree_sum(t, vol, lambda c: c.cut)


def structural_entropy(g: Graph, t: EncodingTree) -> float:
    """Uncertainty left in the graph under the tree's encoding (cut weighting)."""
    check_valid(g, t)
    return cached_entropy(t, g.volume)


def compressing_info(g: Graph, t: EncodingTree) -> float:
    """Uncertainty eliminated by the tree: weights V_a - g_a instead of g_a."""
    check_valid(g, t)
    return _tree_sum(t, g.volume, lambda c: c.vol - c.cut)


def module_entropy(g: Graph, t: EncodingTree, f: ModuleFunction) -> float:
    """Generalized tree entropy with an arbitrary marker weighting; the cut
    and volume kinds read the checked stats, as `structural_entropy` does."""
    check_valid(g, t)
    weight = {"cut": lambda c: c.cut, "volume": lambda c: c.vol}.get(
        f.kind, lambda c: f(g, c.vertices))
    return _tree_sum(t, g.volume, weight)


def decoding_info(g: Graph, t: EncodingTree) -> float:
    """Information gained from the graph by the tree: H1 minus tree entropy."""
    return one_dim_entropy(g) - structural_entropy(g, t)


def distribution_entropy(p: Sequence[float], t: EncodingTree) -> float:
    """Tree entropy of a bare distribution; node mass plays both weights.

    Independent of the tree and equal to the Shannon entropy of p; summed
    over the nodes of positive mass, so a one-point p gives -0.0.
    """
    p = check_distribution(p)
    leaf_chains(t, len(p), "invalid items tree: ")  # checks the shape

    masses: dict[int, float] = {}

    def mass(node: TreeNode, child_masses) -> float:
        m = p[node.vertex] if node.is_leaf else left_sum(child_masses)
        masses[id(node)] = m
        return m

    total = fold(t.root, mass)
    return term_sum([(m, math.log2(m / masses[id(parent)])) for child, parent in node_terms(t)
                     if (m := masses[id(child)]) > 0], total)


def _path_nodes(t: EncodingTree) -> dict[int, list[TreeNode]]:
    """For each vertex, the nodes along its root-to-leaf path (root first)."""
    out: dict[int, list[TreeNode]] = {}
    stack: list[tuple[TreeNode, list[TreeNode]]] = [(t.root, [t.root])]
    while stack:
        node, chain = stack.pop()
        if node.is_leaf:
            out[node.vertex] = chain
        else:
            for child in node.children:
                stack.append((child, chain + [child]))
    return out


def _edgewise_sum(g: Graph, t: EncodingTree, below_branch: bool) -> float:
    # Each undirected edge contributes in both directions, weighted by its
    # weight: the codeword-path cost from just below the branch point down to
    # the arrival leaf, or the cost of the shared prefix above it.
    check_valid(g, t)
    chains = _path_nodes(t)
    acc = 0.0
    for u, v, w in g.edges:
        for x, y in ((u, v), (v, u)):
            cx, cy = chains[x], chains[y]
            branch = 0
            while branch < len(cx) and branch < len(cy) and cx[branch] is cy[branch]:
                branch += 1
            for depth in range(branch, len(cy)) if below_branch else range(1, branch):
                acc -= w * math.log2(cy[depth].vol / cy[depth - 1].vol)
    return acc / g.volume


def structural_entropy_edgewise(g: Graph, t: EncodingTree) -> float:
    """Oracle for structural_entropy via per-edge codeword walks below the branch point."""
    return _edgewise_sum(g, t, True)


def compressing_info_edgewise(g: Graph, t: EncodingTree) -> float:
    """Oracle for compressing_info: per-edge shared-prefix (mutual) information."""
    return _edgewise_sum(g, t, False)


@dataclass(frozen=True)
class InfoReport:
    """Bundle of the information metrics of one (graph, tree) pair."""

    h1: float
    h_t: float
    compress: float
    decode: float
    ratio: float

    def to_dict(self) -> dict:
        return {"h1": self.h1, "h_t": self.h_t, "compress": self.compress,
                "decode": self.decode, "ratio": self.ratio}

    def to_text(self) -> str:
        lines = [f"{k} {format_real(v)}" for k, v in self.to_dict().items()]
        return "\n".join(lines) + "\n"


def info_report(g: Graph, t: EncodingTree) -> InfoReport:
    compress = compressing_info(g, t)  # the one check of the tree
    h1 = one_dim_entropy(g)
    h_t = cached_entropy(t, g.volume)
    decode = h1 - h_t
    if abs(compress - decode) > IDENTITY_TOL or abs(h1 - (h_t + compress)) > IDENTITY_TOL:
        raise InvariantViolation("compress/decode identity out of tolerance")
    return InfoReport(h1=h1, h_t=h_t, compress=compress, decode=decode, ratio=compress / h1)


def entropy_lower_bound(g: Graph, max_n: int = 24) -> float:
    """Conductance-based floor under every encoding tree: phi * (H1 - 1)."""
    phi, _ = conductance_exact(g, max_n=max_n)
    return phi * (one_dim_entropy(g) - 1.0)
