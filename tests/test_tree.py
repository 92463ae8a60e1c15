import json
import random
import re
import sys

import pytest

import structen as st
from structen import GraphParseError, InvariantViolation
from structen.learning import check_strict_growth
from structen.tree import TreeNode

from conftest import complete_graph, random_connected_graph, random_encoding_tree


class TestStarTree:
    def test_k4_shape(self, k4):
        t = st.star_tree(k4)
        assert t.height() == 1
        assert len(t.root.children) == 4
        assert all(c.is_leaf for c in t.root.children)

    def test_p3_leaf_stats(self, p3):
        t = st.star_tree(p3)
        for leaf in t.root.children:
            d = p3.degree[leaf.vertex]
            assert leaf.vol == d and leaf.cut == d

    def test_barbell_leaf_volumes_partition(self, barbell):
        t = st.star_tree(barbell)
        assert sum(c.vol for c in t.root.children) == pytest.approx(14.0)


class TestFromPartition:
    def test_barbell_two_part(self, barbell):
        t = st.from_partition(barbell, [{0, 1, 2}, {3, 4, 5}])
        assert st.validate(barbell, t) is None
        for module in t.root.children:
            assert module.vol == pytest.approx(7.0)
            assert module.cut == pytest.approx(1.0)

    def test_singletons_give_star(self, k4):
        t = st.from_partition(k4, [{0}, {1}, {2}, {3}])
        assert t == st.star_tree(k4) and not t != st.star_tree(k4)
        other = st.from_partition(k4, [{0, 1}, {2}, {3}])
        assert t != other and not t == other
        assert t != "star" and not t == "star"

    def test_overlap_rejected(self, k4):
        with pytest.raises(InvariantViolation, match="partition"):
            st.from_partition(k4, [{0, 1}, {1, 2, 3}])

    def test_missing_vertex_rejected(self, k4):
        with pytest.raises(InvariantViolation, match="partition"):
            st.from_partition(k4, [{0, 1}, {2}])

    def test_single_part_rejected(self, k4):
        with pytest.raises(InvariantViolation, match="at least 2"):
            st.from_partition(k4, [{0, 1, 2, 3}])

    def test_part_ordering_by_smallest_member(self, barbell):
        t = st.from_partition(barbell, [{3, 4, 5}, {0, 1, 2}])
        assert [min(c.vertices) for c in t.root.children] == [0, 3]


class TestValidate:
    def test_star_ok(self, k4):
        assert st.validate(k4, st.star_tree(k4)) is None

    def test_missing_leaf_is_partition_violation_at_root(self, k4):
        children = [TreeNode((v,), k4.degree[v], k4.degree[v]) for v in range(3)]
        t = st.EncodingTree(TreeNode(range(4), k4.volume, 0.0, children))
        msg = st.validate(k4, t)
        assert msg is not None and "partition" in msg and "root" in msg

    def test_stale_stats_named(self, barbell):
        t = st.from_partition(barbell, [{0, 1, 2}, {3, 4, 5}])
        t.root.children[1].cut = 9.0
        msg = st.validate(barbell, t)
        assert msg == "stale cached stats (cut 9.0 vs 1.0) at 1"

    def test_single_child_rejected(self, k4):
        inner = TreeNode((0, 1, 2, 3), k4.volume, 0.0,
                         [TreeNode((v,), k4.degree[v], k4.degree[v]) for v in range(4)])
        t = st.EncodingTree(TreeNode(range(4), k4.volume, 0.0, [inner]))
        msg = st.validate(k4, t)
        assert msg == "internal node has fewer than 2 children at root"

    def test_non_singleton_leaf_rejected(self, k4):
        t = st.EncodingTree(TreeNode(range(4), k4.volume, 0.0, [
            TreeNode((0, 1), 6.0, 4.0),
            TreeNode((2,), 3.0, 3.0),
            TreeNode((3,), 3.0, 3.0),
        ]))
        msg = st.validate(k4, t)
        assert msg == "leaf marker is not a singleton at 0"

    @pytest.mark.parametrize("tree, message", [
        # (tree over k4 as nested (marker, children, stale stats), first fault)
        (([0, 1, 2, 3], [([0, 1], [([0, 1], [])]), ([2, 3], [])]),
         "internal node has fewer than 2 children at 0"),
        (([0, 1, 2, 3], [([0, 1, 2], [([0], []), ([1, 2], [])]), ([3], [([3], [])])]),
         "leaf marker is not a singleton at 0.1"),
        (([0, 1, 2, 3], [([0, 1], [([0], [], {"cut": 9.0}), ([0, 1], [])]),
                         ([2], []), ([3], [])]),
         "children do not partition the marker at 0"),
        (([0, 1, 2, 3], [([0], [], {"cut": 9.0}), ([1, 2, 3], [([1], []), ([2], [])])]),
         "children do not partition the marker at 1"),
        (([0, 1, 2, 3], [([0, 1], [([0], [])]), ([2, 3], [([2], []), ([3], [])])]),
         "internal node has fewer than 2 children at 0"),
        (([0, 1, 2], [([0], []), ([1, 2], [([1, 2], [])])]),
         "root marker must be the whole item set (at root)"),
        (([0, 1, 2, 3], [([0, 1], [([0], []), ([1], [])]), ([1, 2, 3], [([1, 2, 3], [])])]),
         "children do not partition the marker at root"),
        (([0, 1, 2, 3], [([0, 1, 2], [([0], []), ([1], []), ([2], [])], {"vol": 1.0}),
                         ([2, 3], [([2], []), ([3], [])])]),
         "children do not partition the marker at root"),
    ], ids=["single-child-before-big-leaf", "deep-before-shallow",
            "partition-above-stale-cut", "stale-cut-before-partition",
            "single-child-before-partition-same-node", "root-marker-first",
            "partition-before-child-faults", "partition-above-stale-vol"])
    def test_first_fault_in_preorder(self, k4, tree, message):
        # shape faults come first, in preorder, then stale stats; every
        # entry point reports the same fault, behind its own prefix
        def node(marker, children, stale=None):
            kids = [node(*c) for c in children]
            cut = st.cut_weight(k4, marker) if len(marker) < k4.n else 0.0
            out = TreeNode(marker, st.subset_volume(k4, marker), cut, kids)
            for attr, value in (stale or {}).items():
                setattr(out, attr, value)
            return out

        t = st.EncodingTree(node(*tree))
        assert st.validate(k4, t) == message
        with pytest.raises(InvariantViolation) as err:
            st.refresh_stats(k4, t)
        assert str(err.value) == f"invalid encoding tree: {message}"
        with pytest.raises(InvariantViolation) as err:
            st.distribution_entropy([0.25] * 4, t)
        assert str(err.value) == f"invalid items tree: {message}"

    @pytest.mark.parametrize("unit, stale, message", [
        (1.0, {(0,): {"cut": 9.0}, (1,): {"vol": 5.0}},
         "stale cached stats (cut 9.0 vs 4.0) at 0"),
        (1.0, {(1,): {"vol": 5.0, "cut": 9.0}}, "stale cached stats (vol 5.0 vs 6.0) at 1"),
        (1.0, {(1, 0): {"cut": 0.5}, (): {"vol": 2.0}},
         "stale cached stats (vol 2.0 vs 12.0) at root"),
        (1.0, {(1,): {"vol": 0.5}, (0, 1): {"cut": 0.5}},
         "stale cached stats (cut 0.5 vs 3.0) at 0.1"),
        # a doubled vol is stale in any unit, here with every weight 2^-40
        (2.0 ** -40, {(0,): {"vol": 12 * 2.0 ** -40}},
         "stale cached stats (vol 1.0913936421275139e-11 vs 5.4569682106375694e-12) at 0"),
    ], ids=["earlier-node-first", "vol-before-cut", "root-first", "preorder-not-depth",
            "doubled-vol-in-a-small-unit"])
    def test_first_stale_stat_in_preorder(self, k4, unit, stale, message):
        g = st.Graph.from_index_edges(4, [(u, v, w * unit) for u, v, w in k4.edges])
        t = st.from_partition(g, [{0, 1}, {2, 3}])
        for path, stats in stale.items():
            for attr, value in stats.items():
                setattr(t.node_at(path), attr, value)
        assert st.validate(g, t) == message


class TestCodeword:
    def test_star(self, k4):
        assert st.codeword(st.star_tree(k4), 2) == (2,)

    def test_two_part(self, barbell):
        t = st.from_partition(barbell, [{0, 1, 2}, {3, 4, 5}])
        assert st.codeword(t, 4) == (1, 1)

    def test_singleton_part_is_depth_one(self, barbell):
        t = st.from_partition(barbell, [{0, 1, 2, 3, 4}, {5}])
        assert st.codeword(t, 5) == (1,)

    def test_unknown_vertex(self, k4):
        with pytest.raises(InvariantViolation, match="unknown vertex"):
            st.codeword(st.star_tree(k4), 9)


class TestStructuralProperties:
    def test_markers_strictly_nested_and_volumes_additive(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_connected_graph(rng)
            t = random_encoding_tree(g, rng)
            assert st.validate(g, t) is None
            for path, node in t.walk():
                if node.is_leaf:
                    continue
                assert sum(c.vol for c in node.children) == pytest.approx(node.vol, abs=1e-9)
                for child in node.children:
                    assert child.vertices < node.vertices

    def test_leaf_stats_equal_degree(self):
        rng = random.Random(8)
        g = random_connected_graph(rng)
        t = random_encoding_tree(g, rng)
        for _, node in t.walk():
            if node.is_leaf:
                d = g.degree[node.vertex]
                assert node.vol == pytest.approx(d) and node.cut == pytest.approx(d)


class TestSerialization:
    def test_round_trip_star(self, k4):
        t = st.star_tree(k4)
        doc = st.serialize(k4, t)
        back = st.deserialize(k4, json.loads(json.dumps(doc)))
        assert back == t
        for (_, a), (_, b) in zip(t.walk(), back.walk()):
            assert a.vol == b.vol and a.cut == b.cut

    def test_round_trip_random(self):
        rng = random.Random(9)
        for _ in range(15):
            g = random_connected_graph(rng)
            t = random_encoding_tree(g, rng)
            assert st.deserialize(g, st.serialize(g, t)) == t

    def test_unknown_vertex_id(self, k4):
        doc = {"children": [{"vertex": "0"}, {"vertex": "z"}]}
        with pytest.raises(GraphParseError, match="unknown vertex id"):
            st.deserialize(k4, doc)

    def test_malformed_document(self, k4):
        with pytest.raises(GraphParseError):
            st.deserialize(k4, {"children": []})
        with pytest.raises(GraphParseError):
            st.deserialize(k4, ["vertex"])

    def test_stats_recomputed_on_read(self, barbell):
        doc = {"children": [
            {"children": [{"vertex": "0"}, {"vertex": "1"}, {"vertex": "2"}],
             "vol": 99.0, "cut": 99.0},
            {"children": [{"vertex": "3"}, {"vertex": "4"}, {"vertex": "5"}]},
        ]}
        t = st.deserialize(barbell, doc)
        assert st.validate(barbell, t) is None
        assert t.root.children[0].vol == pytest.approx(7.0)

    def test_hand_written_barbell_doc_entropy(self, barbell):
        doc = {"children": [
            {"children": [{"vertex": "0"}, {"vertex": "1"}, {"vertex": "2"}]},
            {"children": [{"vertex": "3"}, {"vertex": "4"}, {"vertex": "5"}]},
        ]}
        t = st.deserialize(barbell, doc)
        assert st.structural_entropy(barbell, t) == pytest.approx(1.699513850, abs=1e-6)


class TestRepr:
    def test_reprs_and_size_on_a_path(self):
        g = st.Graph(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 1.0)])
        t = st.build_tree(g, [[0, 1], 2])
        assert repr(t.root) == "<node[2] [0, 1, 2] vol=4 cut=0>"
        assert repr(t.root.children[0]) == "<node[2] [0, 1] vol=3 cut=1>"
        assert repr(t.root.children[1]) == "<leaf [2] vol=1 cut=1>"
        assert repr(t) == "EncodingTree(n=3, height=2)"
        assert t.n == 3


class TestBuildTree:
    def test_nested_spec(self, barbell):
        t = st.build_tree(barbell, [[0, 1, 2], [3, [4, 5]]])
        assert st.validate(barbell, t) is None
        assert t.height() == 3

    @pytest.mark.parametrize("spec, message", [
        ([[0, 1], [1, 2, 3]], "children do not partition the marker at root"),
        ([[0, 1], [2, 3, 3]], "children do not partition the marker at 1"),
        ([[0, 1], [2]], "root marker must be the whole item set (at root)"),
    ])
    def test_repeated_or_missing_vertex(self, k4, spec, message):
        # vertex ints repeat across the spec (and small ints are shared
        # objects), so nothing may be keyed by node identity
        def doc(s):
            if isinstance(s, int):
                return {"vertex": str(s)}
            return {"children": [doc(c) for c in s]}

        for build in (lambda: st.build_tree(k4, spec), lambda: st.deserialize(k4, doc(spec))):
            with pytest.raises(InvariantViolation) as err:
                build()
            assert str(err.value) == f"invalid encoding tree: {message}"

    @pytest.mark.parametrize("bad, spec", [
        ("'23'", [[0, 1], "23"]),  # a one-letter string iterates to itself
        ("2.0", [0, [1, 2.0], 3]),
        ("None", [0, [1, None], 3]),
        ("{2: 0, 3: 0}", [[0, 1], {2: 0, 3: 0}]),
        ("True", [[0, 1], [2, 3], True]),
        ("False", [[False, 1], [2, 3]]),
    ], ids=["string", "float", "none", "dict", "true", "false"])
    def test_bad_spec_rejected(self, k4, bad, spec):
        with pytest.raises(InvariantViolation, match=f"^bad node spec {re.escape(bad)}$"):
            st.build_tree(k4, spec)

    def test_refresh_stats_fixes_staleness(self, k4):
        t = st.star_tree(k4)
        t.root.children[0].vol = 123.0
        st.refresh_stats(k4, t)
        assert st.validate(k4, t) is None


class TestOnePassStats:
    def test_stats_bit_identical_to_per_node_sums(self):
        # exact equality, not approx: with non-dyadic weights, any change to
        # the order in which a node's cut or volume is summed shows up here
        rng = random.Random(11)
        for _ in range(30):
            base = random_connected_graph(rng, 6, 14, extra=0.4)
            g = st.Graph.from_index_edges(base.n, [
                (u, v, rng.choice((0.1, 0.3, 0.7, 1.3, 2.9))) for u, v, _ in base.edges])
            for t in (random_encoding_tree(g, rng), st.minimize_kd(g, rng.choice((2, 3))).tree):
                st.refresh_stats(g, t)
                assert t.root.cut == 0.0
                for _, node in t.walk():
                    assert node.vol == st.subset_volume(g, node.vertices)
                    if node is not t.root:
                        assert node.cut == st.cut_weight(g, node.vertices)

    def test_refresh_stats_rejects_invalid_structure(self, k4):
        t = st.star_tree(k4)
        t.root.children.pop()
        with pytest.raises(InvariantViolation, match="invalid encoding tree"):
            st.refresh_stats(k4, t)


class TestDeepTrees:
    def test_caterpillar_through_public_calls(self):
        # every internal node holds one leaf and the next internal node, so
        # the tree is as deep as a path graph allows; no call may recurse
        assert sys.getrecursionlimit() == 1000
        depth = 3000
        n = depth + 1
        g = st.Graph.from_index_edges(n, [(i, i + 1, 1.0) for i in range(n - 1)])
        spec = [n - 2, n - 1]
        for v in range(n - 3, -1, -1):
            spec = [v, spec]
        t = st.build_tree(g, spec)
        assert t.height() == depth
        dup = t.copy()
        assert dup == t and dup.root is not t.root
        assert st.deserialize(g, st.serialize(g, t)) == t
        assert st.structural_entropy(g, t) == pytest.approx(
            st.structural_entropy_edgewise(g, t), abs=1e-9)
        assert st.codeword(t, n - 1) == (1,) * depth
        assert st.codeword(t, 5) == (1,) * 5 + (0,)

        total = n * (n + 1) / 2
        p = [(v + 1) / total for v in range(n)]
        assert st.distribution_entropy(p, t) == pytest.approx(st.shannon_entropy(p), abs=1e-9)

        catalog = st.FeatureCatalog({str(v): st.FeatureSet(frozenset({"c"}), frozenset({f"v{v}"}))
                                     for v in range(n)})
        ds = st.DataSpace(g, t, catalog, construction_k=n - 1, height=depth)
        pairs = list(zip(t.walk(), st.tree.walk(ds.knowledge.root)))
        assert max(len(path) for (path, _), _ in pairs) == depth
        for (path, node), (kpath, knode) in pairs:
            assert kpath == path and knode.path == knode.decoder_path == path
            assert knode.vertices == node.vertices
            assert knode.features == ({"c", f"v{node.vertex}"} if node.is_leaf else {"c"})
        # every syntax set is {"c"}, so the whole chain contracts into the root
        assert check_strict_growth(ds.abstractions) is None
        assert ds.abstractions.root.features == {"c"} and ds.abstractions.root.is_leaf

    def test_merge_and_combine_on_a_caterpillar(self):
        # the bottom node holds three leaves, 1500 levels down; merging or
        # combining the last two gives the same tree
        assert sys.getrecursionlimit() == 1000
        depth = 1500
        n = depth + 2
        g = st.Graph.from_index_edges(n, [(i, i + 1, 1.0) for i in range(n - 1)])
        spec, paired = [n - 3, n - 2, n - 1], [n - 3, [n - 2, n - 1]]
        for v in range(n - 4, -1, -1):
            spec, paired = [v, spec], [v, paired]
        t, expected = st.build_tree(g, spec), st.build_tree(g, paired)
        a, b = (1,) * (depth - 1) + (1,), (1,) * (depth - 1) + (2,)
        drop = st.structural_entropy(g, t) - st.structural_entropy(g, expected)
        assert st.merge_delta(g, t, a, b) == pytest.approx(drop, abs=1e-9)
        out = st.combine_apply(g, t, a, b)
        assert out == expected and out.height() == depth + 1


INPUT_CHECKS = {
    # id -> (call, message); each call raises InvariantViolation
    "partition with an empty part": (
        lambda: st.from_partition(complete_graph(4), [{0, 1}, set(), {2, 3}]), "empty part"),
    "empty node spec": (lambda: st.build_tree(complete_graph(4), [[0, 1], [], [2, 3]]),
                        "empty node spec"),
    "vertex of an internal node": (lambda: st.star_tree(complete_graph(4)).root.vertex,
                                   "node is not a singleton leaf"),
}


@pytest.mark.parametrize("call, message", INPUT_CHECKS.values(), ids=INPUT_CHECKS.keys())
def test_input_check(call, message):
    with pytest.raises(InvariantViolation) as err:
        call()
    assert str(err.value) == message
