import dataclasses
import math
import random

import numpy as np
import pytest

import structen as st
from structen import FeatureCatalog, FeatureSet, InvariantViolation
from structen.learning import AbstractionTree, FeatureNode, check_strict_growth

from conftest import (assert_children_ordered, partition_ids, planted_similarity,
                      random_connected_graph, random_encoding_tree)


def catalog_of(entries):
    return FeatureCatalog({
        vid: FeatureSet(frozenset(syn), frozenset(sem))
        for vid, (syn, sem) in entries.items()})


def _path(n):
    return st.Graph.from_index_edges(n, [(v, v + 1, 1.0) for v in range(n - 1)])


@pytest.fixture
def worked_example(triangle):
    # vertices 0, 1 share a module; 2 stands alone
    tree = st.from_partition(triangle, [{0, 1}, {2}])
    catalog = catalog_of({
        "0": ({"a", "b", "c"}, set()),
        "1": ({"a", "b", "d"}, set()),
        "2": ({"a", "e"}, set()),
    })
    return triangle, tree, catalog


class TestKnowledgeTree:
    def test_worked_intersections(self, worked_example):
        g, tree, catalog = worked_example
        kt = st.knowledge_tree(g, tree, catalog)
        assert kt.root.features == {"a"}
        module = kt.root.children[0]
        assert module.features == {"a", "b"}
        assert module.vertices == {0, 1}

    def test_disjoint_features_empty_intersection(self, triangle):
        tree = st.from_partition(triangle, [{0, 1}, {2}])
        catalog = catalog_of({"0": ({"x"}, set()), "1": ({"y"}, set()),
                              "2": ({"z"}, set())})
        kt = st.knowledge_tree(triangle, tree, catalog)
        assert kt.root.features == frozenset()
        assert kt.root.children[0].features == frozenset()

    def test_singleton_module_keeps_full_set(self, worked_example):
        g, tree, catalog = worked_example
        kt = st.knowledge_tree(g, tree, catalog)
        assert kt.root.children[1].features == {"a", "e"}

    @pytest.mark.parametrize("n", [3, 5], ids=["fewer vertices", "more vertices"])
    def test_tree_over_another_vertex_set_rejected(self, n):
        # with 3 vertices vertex 3 was dropped; with 5 a bare IndexError
        g = _path(4)
        catalog = catalog_of({str(v): ({"a"}, set()) for v in range(4)})
        with pytest.raises(InvariantViolation) as err:
            st.knowledge_tree(g, st.star_tree(_path(n)), catalog)
        assert str(err.value) == ("invalid encoding tree: root marker must be the whole "
                                  "item set (at root)")

    @pytest.mark.parametrize("entry", [["a"], "a", None], ids=["list", "string", "none"])
    def test_catalog_entry_must_be_a_feature_set(self, entry):
        # such an entry failed later, as a bare AttributeError in knowledge_tree
        with pytest.raises(InvariantViolation) as err:
            FeatureCatalog({"0": FeatureSet(["a"]), "1": entry})
        assert str(err.value) == "catalog entry for vertex '1' is not a FeatureSet"

    def test_catalog_int_keys_name_their_vertices(self):
        # int keys were stored as given but looked up as str(vid)
        g = _path(2)
        catalog = FeatureCatalog({0: FeatureSet(["a"]), 1: FeatureSet(["a", "b"])})
        kt = st.knowledge_tree(g, st.star_tree(g), catalog)
        assert kt.root.features == frozenset({"a"})
        assert catalog.to_dict() == {"0": {"syntax": ["a"], "semantics": []},
                                     "1": {"syntax": ["a", "b"], "semantics": []}}

    def test_catalog_with_an_int_entry_writes_its_document(self):
        # mixed int and str keys made to_dict's sort raise a bare TypeError
        catalog = FeatureCatalog({0: FeatureSet(["a"])}).with_entry(2, FeatureSet(["b"]))
        assert catalog.to_dict() == {"0": {"syntax": ["a"], "semantics": []},
                                     "2": {"syntax": ["b"], "semantics": []}}
        assert catalog.entry("2") == catalog.entry(2) == FeatureSet(["b"])

    def test_catalog_keys_naming_one_vertex_rejected(self):
        with pytest.raises(InvariantViolation) as err:
            FeatureCatalog({0: FeatureSet(["a"]), "0": FeatureSet(["b"])})
        assert str(err.value) == "two catalog entries for vertex '0'"

    def test_nested_along_every_path(self):
        rng = random.Random(30)
        for _ in range(20):
            g = random_connected_graph(rng, 4, 9)
            decoder = st.minimize_kd(g, rng.choice([2, 3])).tree
            tokens = ["t%d" % i for i in range(6)]
            catalog = FeatureCatalog({
                vid: FeatureSet(frozenset(rng.sample(tokens, rng.randint(0, 4))),
                                frozenset(rng.sample(tokens, rng.randint(0, 2))))
                for vid in g.vertex_ids})
            kt = st.knowledge_tree(g, decoder, catalog)
            stack = [kt.root]
            while stack:
                node = stack.pop()
                for child in node.children:
                    assert node.features <= child.features
                    stack.append(child)

    def test_missing_entry_rejected(self, worked_example):
        g, tree, _ = worked_example
        catalog = catalog_of({"0": ({"a"}, set()), "1": ({"a"}, set())})
        with pytest.raises(InvariantViolation, match="missing catalog entry"):
            st.knowledge_tree(g, tree, catalog)

    def test_entry_of_a_missing_id_rejected(self, worked_example):
        _, _, catalog = worked_example
        assert catalog.entry(2) == catalog.entry("2")
        with pytest.raises(InvariantViolation) as err:
            catalog.entry(3)
        assert str(err.value) == "missing catalog entry for vertex 3"

    def test_syntax_source_restricts_tokens(self, triangle):
        tree = st.from_partition(triangle, [{0, 1}, {2}])
        catalog = catalog_of({"0": ({"s"}, {"m"}), "1": ({"s"}, {"m"}),
                              "2": ({"s"}, {"m"})})
        kt_all = st.knowledge_tree(triangle, tree, catalog, source="all")
        kt_syn = st.knowledge_tree(triangle, tree, catalog, source="syntax")
        assert kt_all.root.features == {"s", "m"}
        assert kt_syn.root.features == {"s"}


class TestAbstractionTree:
    def test_equal_feature_chain_contracts(self, barbell):
        decoder = st.build_tree(barbell, [[0, 1, 2], [3, [4, 5]]])
        catalog = catalog_of({
            "0": ({"a", "p"}, set()), "1": ({"a", "p"}, set()), "2": ({"a", "q"}, set()),
            "3": ({"a"}, set()), "4": ({"a"}, set()), "5": ({"a"}, set()),
        })
        kt = st.knowledge_tree(barbell, decoder, catalog)
        # module {3,4,5} and its nested {4,5} both intersect to {a} = root
        at = st.abstraction_tree(kt)
        assert check_strict_growth(at) is None
        assert at.root.features == {"a"}
        child_feats = sorted(sorted(c.features) for c in at.root.children)
        assert ["a", "p"] in child_feats

    def test_already_strict_tree_unchanged(self, worked_example):
        g, tree, catalog = worked_example
        kt = st.knowledge_tree(g, tree, catalog)
        at = st.abstraction_tree(kt)
        assert at.root.features == {"a"}
        assert len(at.root.children) == 2
        assert check_strict_growth(at) is None

    def test_empty_internal_features_collapse_to_root(self, k4):
        tree = st.from_partition(k4, [{0, 1}, {2, 3}])
        catalog = catalog_of({"0": ({"w"}, set()), "1": ({"x"}, set()),
                              "2": ({"y"}, set()), "3": ({"z"}, set())})
        at = st.abstraction_tree(st.knowledge_tree(k4, tree, catalog))
        assert at.root.features == frozenset()
        assert all(c.is_leaf for c in at.root.children)
        assert len(at.root.children) == 4

    def test_a_repeated_feature_set_is_reported(self):
        # hand-built: the leaf below node (1,) repeats that node's features
        def node(features, vertices, children=()):
            return FeatureNode(frozenset(features), frozenset(vertices), (), list(children))

        at = AbstractionTree(node({"a"}, {0, 1}, [
            node({"a", "x"}, {0}), node({"a", "b"}, {1}, [node({"a", "b"}, {1})])]))
        assert check_strict_growth(at) == "feature sets do not grow strictly below (1,)"

    def test_strict_growth_on_random_catalogs(self):
        rng = random.Random(31)
        for _ in range(100):
            g = random_connected_graph(rng, 4, 9)
            decoder = st.minimize_kd(g, rng.choice([2, 3])).tree
            tokens = ["t%d" % i for i in range(5)]
            catalog = FeatureCatalog({
                vid: FeatureSet(frozenset(rng.sample(tokens, rng.randint(0, 5))))
                for vid in g.vertex_ids})
            at = st.abstraction_tree(st.knowledge_tree(g, decoder, catalog))
            assert check_strict_growth(at) is None


    def test_matches_the_min_vertex_sort(self):
        # reference: every node re-sorts its merged children by min(c.vertices)
        def reference(node):
            merged = []
            for child in map(reference, node.children):
                merged += child.children if child.features == node.features else [child]
            merged.sort(key=lambda c: min(c.vertices))
            return FeatureNode(node.features, node.vertices, node.decoder_path, merged)

        rng = random.Random(32)
        tokens = ["t0", "t1", "t2"]
        for _ in range(200):
            g = random_connected_graph(rng, 4, 12)
            # random trees list children in any order, greedy ones by min vertex
            decoder = (random_encoding_tree(g, rng) if rng.random() < 0.5
                       else st.minimize_kd(g, rng.choice([2, 3])).tree)
            catalog = FeatureCatalog({
                vid: FeatureSet(frozenset(rng.sample(tokens, rng.randint(0, 3))))
                for vid in g.vertex_ids})
            kt = st.knowledge_tree(g, decoder, catalog)
            assert st.abstraction_tree(kt).root == AbstractionTree(reference(kt.root)).root


BAD_SPACE_FIELDS = [
    # (field, value, message) on a height-2 space over a 4-vertex path
    ("catalog", catalog_of({str(v): ({"a"}, set()) for v in range(3)}),
     "missing catalog entry for vertex '3'"),
    ("abstraction_source", "tags", "unknown feature source 'tags'"),
    ("height", 0, "height cap must be at least 2"),
    ("height", 1, "height cap must be at least 2"),
    ("height", 2.5, "height cap 2.5 is not an integer"),
    ("height", True, "height cap True is not an integer"),
    ("construction_k", "x", "construction_k 'x' is not an integer"),
    ("construction_k", 2.5, "construction_k 2.5 is not an integer"),
    ("decoder", st.star_tree(_path(3)),
     "invalid encoding tree: root marker must be the whole item set (at root)"),
    ("decoder", st.star_tree(_path(5)),
     "invalid encoding tree: root marker must be the whole item set (at root)"),
    ("decoder", st.build_tree(_path(4), [[[0, 1], 2], 3]),
     "decoder is taller than the height cap 2"),
]


class TestDataSpaceChecks:
    @pytest.fixture
    def fields(self):
        g = _path(4)
        return {"graph": g, "decoder": st.build_tree(g, [[0, 1], [2, 3]]),
                "catalog": catalog_of({str(v): ({"a"}, set()) for v in range(4)}),
                "construction_k": 3, "height": 2}

    @pytest.mark.parametrize("name, value, message", BAD_SPACE_FIELDS,
                             ids=[f"{f}={v!r:.30}" for f, v, _ in BAD_SPACE_FIELDS])
    def test_constructor_and_replace_reject(self, fields, name, value, message):
        space = st.DataSpace(**fields)
        with pytest.raises(InvariantViolation) as err:
            st.DataSpace(**{**fields, name: value})
        assert str(err.value) == message
        with pytest.raises(InvariantViolation) as err:
            dataclasses.replace(space, **{name: value})
        assert str(err.value) == message

    def test_decoder_as_tall_as_the_height_accepted(self, fields):
        tall = st.build_tree(fields["graph"], [[[0, 1], 2], 3])
        space = st.DataSpace(**{**fields, "decoder": tall, "height": 3})
        assert space.sweep == () and space.abstraction_source == "syntax"
        assert [len(c) for c in st.flow_of_abstractions(space, "0")] == [1] * 4


class TestDataSpaceFeatureTrees:
    def test_from_decoder_checks_catalog_and_source(self, worked_example):
        g, tree, catalog = worked_example
        partial = catalog_of({"0": ({"a"}, set()), "1": ({"a"}, set())})
        with pytest.raises(InvariantViolation, match="missing catalog entry for vertex '2'"):
            st.DataSpace(g, tree, partial, construction_k=3, height=2)
        with pytest.raises(InvariantViolation, match="unknown feature source 'tags'"):
            st.DataSpace(g, tree, catalog, construction_k=3, height=2, abstraction_source="tags")
        for height in (2.5, None, True):
            with pytest.raises(InvariantViolation) as err:
                st.DataSpace(g, tree, catalog, construction_k=3, height=height)
            assert str(err.value) == f"height cap {height!r} is not an integer"

    def test_from_decoder_checks_construction_count(self, worked_example):
        g, tree, catalog = worked_example
        for k in (2.5, True):
            with pytest.raises(InvariantViolation) as err:
                st.DataSpace(g, tree, catalog, construction_k=k, height=2)
            assert str(err.value) == f"construction_k {k!r} is not an integer"

    def test_from_decoder_checks_the_decoder_covers_the_graph(self, worked_example):
        g, _, catalog = worked_example
        square = st.Graph.from_index_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
        with pytest.raises(InvariantViolation) as err:
            st.DataSpace(g, st.star_tree(square), catalog, construction_k=3, height=2)
        assert str(err.value) == ("invalid encoding tree: root marker must be the whole "
                                  "item set (at root)")

    @pytest.mark.parametrize("kwargs, key", [
        ({"syntax": "b1"}, "syntax"),
        ({"semantics": "x"}, "semantics"),
    ], ids=["syntax", "semantics"])
    def test_feature_set_of_a_string_rejected(self, kwargs, key):
        # "b1" would otherwise be stored as is: pick("syntax") gave 'b1'
        with pytest.raises(InvariantViolation) as err:
            FeatureSet(**kwargs)
        assert str(err.value) == f"{key} is a string, not a collection of tokens"

    def test_feature_set_stores_frozensets_of_strings(self):
        fs = FeatureSet(["a", "1"], ("b",))
        assert fs.syntax == frozenset({"a", "1"}) and fs.semantics == frozenset({"b"})
        assert fs.all == frozenset({"a", "1", "b"}) and fs == FeatureSet({"1", "a"}, ["b"])

    @pytest.mark.parametrize("key", ["syntax", "semantics"])
    @pytest.mark.parametrize("tokens", [["a", 1], [None], [1.5], [True]],
                             ids=["int", "none", "float", "bool"])
    def test_feature_set_of_non_string_tokens_rejected(self, key, tokens):
        # the JSON readers reject these tokens too, so both entry points agree
        with pytest.raises(InvariantViolation) as err:
            FeatureSet(**{key: tokens})
        assert str(err.value) == f"{key} tokens must be strings"

    @pytest.mark.parametrize("source", ["all", "syntax", "semantics"])
    def test_trees_equal_direct_builds_and_are_built_once(self, source):
        rng = random.Random(33)
        tokens = ["t0", "t1", "t2", "t3"]
        for _ in range(20):
            g = random_connected_graph(rng, 4, 10)
            decoder = st.minimize_kd(g, rng.choice([2, 3])).tree
            catalog = FeatureCatalog({
                vid: FeatureSet(frozenset(rng.sample(tokens, rng.randint(0, 3))),
                                frozenset(rng.sample(tokens, rng.randint(0, 3))))
                for vid in g.vertex_ids})
            ds = st.DataSpace(g, decoder, catalog, construction_k=len(g.edges),
                              height=3, abstraction_source=source)
            kt = st.knowledge_tree(g, decoder, catalog, source="all")
            at = st.abstraction_tree(st.knowledge_tree(g, decoder, catalog, source=source))
            assert ds.knowledge.root == kt.root
            assert ds.abstractions.root == at.root
            assert ds.knowledge is ds.knowledge and ds.abstractions is ds.abstractions


class TestFlows:
    def test_worked_flow(self, worked_example):
        g, tree, catalog = worked_example
        ds = _space(g, tree, catalog)
        assert st.flow_of_abstractions(ds, "0") == [
            frozenset({"a", "b", "c"}), frozenset({"a", "b"}), frozenset({"a"})]

    def test_empty_catalog_flows_empty(self, triangle):
        tree = st.from_partition(triangle, [{0, 1}, {2}])
        catalog = catalog_of({"0": (set(), set()), "1": (set(), set()),
                              "2": (set(), set())})
        ds = _space(triangle, tree, catalog)
        assert st.flow_of_abstractions(ds, "1") == [frozenset(), frozenset(), frozenset()]

    def test_flows_are_nested_and_assemble_into_tree(self):
        rng = random.Random(32)
        g = random_connected_graph(rng, 6, 9)
        decoder = st.minimize_kd(g, 3).tree
        tokens = ["t%d" % i for i in range(5)]
        catalog = FeatureCatalog({
            vid: FeatureSet(frozenset(rng.sample(tokens, rng.randint(1, 5))))
            for vid in g.vertex_ids})
        ds = _space(g, decoder, catalog)
        flows = {vid: st.flow_of_abstractions(ds, vid) for vid in g.vertex_ids}
        for vid, chain in flows.items():
            for deeper, shallower in zip(chain, chain[1:]):
                assert shallower <= deeper
        # chains agree on shared path prefixes, so they assemble into a tree
        for u in g.vertex_ids:
            for v in g.vertex_ids:
                pu = st.codeword(ds.decoder, g.index[u])
                pv = st.codeword(ds.decoder, g.index[v])
                shared = 0
                while shared < min(len(pu), len(pv)) and pu[shared] == pv[shared]:
                    shared += 1
                fu = list(reversed(flows[u]))
                fv = list(reversed(flows[v]))
                assert fu[:shared + 1] == fv[:shared + 1]

    def test_unknown_vertex(self, worked_example):
        g, tree, catalog = worked_example
        ds = _space(g, tree, catalog)
        with pytest.raises(InvariantViolation, match="unknown vertex"):
            st.flow_of_abstractions(ds, "zz")


class TestLeastCommonAbstraction:
    def test_same_module(self, worked_example):
        g, tree, catalog = worked_example
        ds = _space(g, tree, catalog)
        assert st.least_common_abstraction(ds, "0", "1") == {"a", "b"}

    def test_across_modules(self, worked_example):
        g, tree, catalog = worked_example
        ds = _space(g, tree, catalog)
        assert st.least_common_abstraction(ds, "0", "2") == {"a"}

    def test_identical_vertices_rejected(self, worked_example):
        g, tree, catalog = worked_example
        ds = _space(g, tree, catalog)
        with pytest.raises(InvariantViolation, match="distinct"):
            st.least_common_abstraction(ds, "0", "0")


class TestChooseAbstraction:
    def test_matches_module(self, worked_example):
        g, tree, catalog = worked_example
        ds = _space(g, tree, catalog)
        node = st.choose_abstraction(ds, {"a", "b", "z"})
        assert node.features == {"a", "b"}

    def test_root_fallback(self, worked_example):
        g, tree, catalog = worked_example
        ds = _space(g, tree, catalog)
        assert st.choose_abstraction(ds, {"z"}).path == ()

    def test_superset_of_leaf_features_goes_deepest(self, worked_example):
        g, tree, catalog = worked_example
        ds = _space(g, tree, catalog)
        node = st.choose_abstraction(ds, {"a", "b", "c", "q"})
        assert node.features == {"a", "b", "c"}
        assert node.vertices == {0}

    def test_string_query_rejected(self, worked_example):
        # "ab" would otherwise be read as the tokens "a" and "b"
        ds = _space(*worked_example)
        with pytest.raises(InvariantViolation) as err:
            st.choose_abstraction(ds, "ab")
        assert str(err.value) == "feature query is a string, not a collection of tokens"

    @pytest.mark.parametrize("query", [[1, "a"], [None]], ids=["int", "none"])
    def test_non_string_tokens_rejected(self, worked_example, query):
        # str() would let 1 match the token "1", which no FeatureSet can hold
        ds = _space(*worked_example)
        with pytest.raises(InvariantViolation) as err:
            st.choose_abstraction(ds, query)
        assert str(err.value) == "feature query tokens must be strings"

    def test_irrelevant_tokens_do_not_change_choice(self, worked_example):
        g, tree, catalog = worked_example
        ds = _space(g, tree, catalog)
        base = st.choose_abstraction(ds, {"a", "b"})
        noisy = st.choose_abstraction(ds, {"a", "b", "zz", "qq"})
        assert base.path == noisy.path


def _space(g, decoder, catalog):
    return st.DataSpace(g, decoder, catalog, construction_k=len(g.edges),
                        height=max(2, decoder.root.height()),
                        abstraction_source="all")


class TestBuildDataSpace:
    def test_two_block_recovery(self):
        sim = planted_similarity([range(4), range(4, 8)])
        catalog = FeatureCatalog({
            str(i): FeatureSet(frozenset({"b1" if i < 4 else "b2"}))
            for i in range(8)})
        ds = st.build_data_space(sim, catalog, height=2)
        assert partition_ids(ds.graph, ds.decoder) == [
            ["0", "1", "2", "3"], ["4", "5", "6", "7"]]
        assert st.structural_entropy(ds.graph, ds.decoder) == pytest.approx(
            st.brute_force_2d(ds.graph).entropy, abs=1e-9)

    def test_two_block_sweep_matches_exact_oracle(self):
        # replace the greedy estimate by exact brute force; the chosen count
        # must be the true argmax
        sim = planted_similarity([range(4), range(4, 8)])
        catalog = FeatureCatalog({str(i): FeatureSet() for i in range(8)})
        ds = st.build_data_space(sim, catalog, height=2)
        best_k, best_d = None, -1.0
        for k, _ in ds.sweep:
            gk = st.build_topk_graph(sim, k)
            d = st.one_dim_entropy(gk) - st.brute_force_2d(gk).entropy
            if d > best_d:
                best_d, best_k = d, k
        assert ds.construction_k == best_k

    def test_three_block_recovery(self):
        sim = planted_similarity([range(3), range(3, 6), range(6, 9)])
        catalog = FeatureCatalog({str(i): FeatureSet(frozenset({f"b{i // 3}"}))
                                  for i in range(9)})
        ds = st.build_data_space(sim, catalog, height=2)
        assert partition_ids(ds.graph, ds.decoder) == [
            ["0", "1", "2"], ["3", "4", "5"], ["6", "7", "8"]]

    def test_uniform_matrix_deterministic(self):
        sim = np.ones((4, 4)) - np.eye(4)
        catalog = FeatureCatalog({str(i): FeatureSet() for i in range(4)})
        a = st.build_data_space(sim, catalog, height=2)
        b = st.build_data_space(sim, catalog, height=2)
        assert a.construction_k == b.construction_k
        assert a.sweep == b.sweep
        assert a.decoder == b.decoder

    def test_zero_row_rejected(self):
        sim = np.zeros((3, 3))
        sim[0, 1] = sim[1, 0] = 1.0
        catalog = FeatureCatalog({str(i): FeatureSet() for i in range(3)})
        with pytest.raises(InvariantViolation, match="connect"):
            st.build_data_space(sim, catalog, height=2)

    def test_ids_must_name_every_sample(self):
        sim = np.ones((3, 3)) - np.eye(3)
        catalog = FeatureCatalog({v: FeatureSet() for v in "abcd"})
        for ids in (("a", "b"), ("a", "b", "c", "d")):
            with pytest.raises(InvariantViolation,
                               match=f"expected 3 vertex ids, got {len(ids)}"):
                st.build_data_space(sim, catalog, height=2, ids=ids)

    def test_integer_beyond_float_range_rejected(self):
        sim = [[0, 1, 10 ** 400], [1, 0, 1], [10 ** 400, 1, 0]]
        catalog = FeatureCatalog({str(i): FeatureSet() for i in range(3)})
        with pytest.raises(InvariantViolation, match="non-finite"):
            st.build_data_space(sim, catalog, height=2)

    def test_catalog_and_source_checked_before_the_sweep(self, monkeypatch):
        def no_sweep(*args, **kwargs):
            pytest.fail("the sweep ran on inputs it must reject")

        monkeypatch.setattr("structen.learning.minimize_kd", no_sweep)
        sim = planted_similarity([range(4), range(4, 8)])
        full = FeatureCatalog({str(i): FeatureSet() for i in range(8)})
        partial = FeatureCatalog({str(i): FeatureSet() for i in range(7)})
        with pytest.raises(InvariantViolation, match="missing catalog entry for vertex '7'"):
            st.build_data_space(sim, partial, height=2)
        lettered = FeatureCatalog({v: FeatureSet() for v in "abcdefg"})
        with pytest.raises(InvariantViolation, match="missing catalog entry for vertex 'h'"):
            st.build_data_space(sim, lettered, height=2, ids="abcdefgh")
        with pytest.raises(InvariantViolation, match="unknown feature source 'bogus'"):
            st.build_data_space(sim, full, height=2, abstraction_source="bogus")
        for height, message in ((2.5, "height cap 2.5 is not an integer"),
                                (1, "height cap must be at least 2")):
            with pytest.raises(InvariantViolation) as err:
                st.build_data_space(sim, full, height=height)
            assert str(err.value) == message


class TestInsertPoint:
    @pytest.fixture
    def block_space(self):
        sim = planted_similarity([range(4), range(4, 8)])
        catalog = FeatureCatalog({
            str(i): FeatureSet(frozenset({"b1" if i < 4 else "b2"}),
                               frozenset({f"s{i}"}))
            for i in range(8)})
        return st.build_data_space(sim, catalog, height=2)

    def test_block_consistent_point_matches_oracle(self, block_space):
        sims = {str(i): (0.5 if i < 4 else 0.0) for i in range(8)}
        ds, report = st.insert_point(block_space, "x", sims, syntax={"b1"})
        assert report.module == ("0", "1", "2", "3", "x")
        assert partition_ids(ds.graph, ds.decoder) == [
            ["0", "1", "2", "3", "x"], ["4", "5", "6", "7"]]
        assert st.structural_entropy(ds.graph, ds.decoder) == pytest.approx(
            st.brute_force_2d(ds.graph).entropy, abs=1e-9)
        assert report.abstraction != ()

    def test_featureless_point_falls_back_to_root(self, block_space):
        ds, report = st.insert_point(block_space, "y", {"0": 0.5})
        assert report.abstraction == ()
        assert report.h_after <= st.one_dim_entropy(ds.graph) + 1e-12
        assert st.validate(ds.graph, ds.decoder) is None

    def test_duplicate_profile_joins_original_module(self, block_space):
        sim = planted_similarity([range(4), range(4, 8)])
        sims = {str(i): float(sim[0, i]) for i in range(1, 8)}
        ds, report = st.insert_point(block_space, "dup", sims, syntax={"b1"})
        assert set(report.module) >= {"0", "dup"}
        assert {"4", "5", "6", "7"}.isdisjoint(report.module)

    def test_chosen_k_dominates_single_edge(self, block_space):
        # the chosen count is the first argmax of the decodable information
        # over every count, and of the compressed information that equals
        # it, on the fixture and on seeded planted spaces
        def information_by_count(space, sims, syntax):
            # H1 - H and compress for each count, with x in the home slot, by
            # public calls: the module itself, or its parent when it is a
            # leaf at the cap
            g0 = space.graph
            module = st.choose_abstraction(space, syntax).decoder_path
            home = module if len(module) < space.height else module[:-1]
            ranked = sorted(((w, g0.index[v]) for v, w in sims.items() if w > 0),
                            key=lambda t: (-t[0], t[1]))
            ids = g0.vertex_ids + ("x",)
            old = [(g0.vertex_ids[u], g0.vertex_ids[v], w) for u, v, w in g0.edges]
            out = []
            for k in range(1, len(ranked) + 1):
                gk = st.Graph(ids, old + [(g0.vertex_ids[v], "x", w) for w, v in ranked[:k]])
                doc = st.serialize(g0, space.decoder)
                node = doc
                for i in home:
                    node = node["children"][i]
                if "vertex" in node:  # a leaf grows into a two-leaf module
                    node["children"] = [{"vertex": node.pop("vertex")}, {"vertex": "x"}]
                else:
                    node["children"].append({"vertex": "x"})
                tk = st.deserialize(gk, doc)
                out.append((st.one_dim_entropy(gk) - st.structural_entropy(gk, tk),
                            st.compressing_info(gk, tk)))
            return out

        cases = [(block_space, {str(i): (0.5 if i < 4 else 0.1) for i in range(8)}, {"b1"})]
        rng = random.Random(17)
        for height in (2, 3):
            for _ in range(4):
                sizes = [rng.randint(2, 5) for _ in range(rng.randint(2, 4))]
                starts = np.cumsum([0] + sizes)
                blocks = [range(a, b) for a, b in zip(starts, starts[1:])]
                catalog = FeatureCatalog({str(v): FeatureSet(frozenset({f"b{bi}"}))
                                          for bi, block in enumerate(blocks) for v in block})
                space = st.build_data_space(planted_similarity(blocks), catalog, height=height)
                for _ in range(3):
                    bi = rng.randrange(len(blocks))
                    sims = {str(v): (rng.uniform(0.4, 0.9) if v in blocks[bi]
                                     else rng.choice([0.0, rng.uniform(0.01, 0.2)]))
                            for v in range(int(starts[-1]))}
                    cases.append((space, sims, {f"b{bi}"}))
        chosen = set()
        for space, sims, syntax in cases:
            _, report = st.insert_point(space, "x", sims, syntax=syntax)
            for d in zip(*information_by_count(space, sims, syntax)):
                assert report.chosen_k == 1 + d.index(max(d))
            chosen.add(report.chosen_k)
        assert len(chosen) > 2  # the sweep picks more than one count

    def test_rebuild_consistency(self, block_space):
        sims = {str(i): (0.5 if i < 4 else 0.0) for i in range(8)}
        ds, _ = st.insert_point(block_space, "x", sims, syntax={"b1"})
        kt = st.knowledge_tree(ds.graph, ds.decoder, ds.catalog, source="all")
        at = st.abstraction_tree(
            st.knowledge_tree(ds.graph, ds.decoder, ds.catalog, source="syntax"))
        def shape(n):
            return (sorted(n.features), sorted(n.vertices),
                    [shape(c) for c in n.children])
        assert shape(kt.root) == shape(ds.knowledge.root)
        assert shape(at.root) == shape(ds.abstractions.root)

    def test_leaf_at_height_cap_keeps_cap(self):
        # the matched abstraction is the leaf of sample 0, at depth 2 = cap;
        # x must join its parent module, not grow that leaf into a module
        sim = planted_similarity([range(4), range(4, 8)])
        catalog = FeatureCatalog({
            str(i): FeatureSet(frozenset({"b1" if i < 4 else "b2", f"u{i}"}))
            for i in range(8)})
        space = st.build_data_space(sim, catalog, height=2)
        sims = {str(i): (0.5 if i < 4 else 0.0) for i in range(8)}
        ds, report = st.insert_point(space, "x", sims, syntax={"b1", "u0"})
        assert ds.decoder.height() <= ds.height
        assert st.validate(ds.graph, ds.decoder) is None
        assert "x" in report.module

    def test_random_inserts_keep_invariants(self):
        rng = random.Random(5)
        for height in (2, 3):
            for unique in (False, True):
                sizes = [rng.randint(2, 4) for _ in range(rng.randint(2, 3))]
                starts = np.cumsum([0] + sizes)
                blocks = [range(a, b) for a, b in zip(starts, starts[1:])]
                catalog = FeatureCatalog({
                    str(v): FeatureSet(frozenset({f"b{bi}"} | ({f"u{v}"} if unique else set())))
                    for bi, block in enumerate(blocks) for v in block})
                ds = st.build_data_space(planted_similarity(blocks), catalog, height=height)
                n = int(starts[-1])
                for j in range(3):
                    sims = {vid: rng.choice([0.0, 0.1, 0.5, 1.0]) + 0.01 * rng.random()
                            for vid in ds.graph.vertex_ids}
                    syntax = {f"b{rng.randrange(len(blocks))}", f"u{rng.randrange(n)}"}
                    ds, report = st.insert_point(ds, f"x{j}", sims, syntax=syntax)
                    assert ds.decoder.height() <= ds.height == height
                    assert st.validate(ds.graph, ds.decoder) is None
                    assert report.h_after == st.structural_entropy(ds.graph, ds.decoder)
                    assert f"x{j}" in report.module
                    assert_children_ordered(ds.decoder)

    def test_decoder_taller_than_cap_rejected(self, block_space):
        with pytest.raises(InvariantViolation, match="height cap must be at least 2"):
            dataclasses.replace(block_space, height=1)

    def test_fresh_id_required(self, block_space):
        with pytest.raises(InvariantViolation, match="already present"):
            st.insert_point(block_space, "0", {"1": 1.0})

    def test_all_zero_sims_rejected(self, block_space):
        with pytest.raises(InvariantViolation, match="zero"):
            st.insert_point(block_space, "x", {"0": 0.0, "1": 0.0})

    def test_non_finite_similarity_rejected(self, block_space):
        for x in (float("nan"), float("inf"), 10 ** 400):
            with pytest.raises(InvariantViolation, match="non-finite"):
                st.insert_point(block_space, "x", {"0": 0.5, "1": x})

    def test_non_real_similarity_rejected(self, block_space):
        for x in ("abc", "2.5", None, True):
            with pytest.raises(InvariantViolation, match="not a real number"):
                st.insert_point(block_space, "x", {"0": 0.5, "1": x})

    def test_unknown_similarity_target_rejected(self, block_space):
        with pytest.raises(InvariantViolation, match="unknown vertex"):
            st.insert_point(block_space, "x", {"nope": 1.0})

    @pytest.mark.parametrize("key", ["syntax", "semantics"])
    def test_string_tokens_rejected(self, block_space, key):
        # syntax="b1" would otherwise store the tokens "b" and "1"
        with pytest.raises(InvariantViolation) as err:
            st.insert_point(block_space, "x", {"0": 0.5}, **{key: "b1"})
        assert str(err.value) == f"{key} is a string, not a collection of tokens"

    def test_non_string_tokens_rejected(self, block_space):
        # as `structen insert` rejects a point document with a null token
        with pytest.raises(InvariantViolation) as err:
            st.insert_point(block_space, "x", {"0": 0.5}, syntax=[None])
        assert str(err.value) == "syntax tokens must be strings"

    @pytest.mark.parametrize("sims, message", [
        ({0: 0.5, "0": 0.7}, "duplicate edge '0'-'x'"),   # one vertex named twice
        ({"0": 1e308, "1": 1e308}, "graph volume overflows to inf"),
    ], ids=["duplicate", "overflow"])
    def test_attachment_checked_before_the_sweep(self, block_space, monkeypatch, sims, message):
        def no_sweep(*args, **kwargs):
            pytest.fail("the count sweep ran on an attachment it must reject")

        monkeypatch.setattr("structen.learning._best_count", no_sweep)
        with pytest.raises(InvariantViolation) as err:
            st.insert_point(block_space, "x", sims)
        assert str(err.value) == message


class TestClassifyByAbstraction:
    def test_worked_arithmetic(self):
        sets = [("Y1", ("g1", "g2")), ("Y2", ("g3",))]
        sample = {"g1": 0.9, "g2": 0.7, "g3": 0.1}
        assert st.classify_by_abstraction(sets, sample) == "Y1"

    def test_all_zero_sample_takes_first(self):
        sets = [("A", ("x",)), ("B", ("y",))]
        assert st.classify_by_abstraction(sets, {}) == "A"

    def test_peaked_sample(self):
        sets = [("Y1", ("g1", "g2")), ("Y2", ("g3",))]
        assert st.classify_by_abstraction(sets, {"g3": 2.0}) == "Y2"

    def test_string_token_set_rejected(self):
        # "ab" would otherwise be read as the tokens "a" and "b"
        with pytest.raises(InvariantViolation, match="label 'x' is a string"):
            st.classify_by_abstraction([("x", "ab")], {"a": 1.0})

    def test_empty_set_rejected(self):
        with pytest.raises(InvariantViolation, match="empty abstraction set"):
            st.classify_by_abstraction([("A", ())], {"x": 1.0})

    def test_no_sets_rejected(self):
        with pytest.raises(InvariantViolation) as err:
            st.classify_by_abstraction([], {"x": 1.0})
        assert str(err.value) == "no abstraction sets given"

    @pytest.mark.parametrize("sample", [
        {"x": math.nan, "y": 0.1},           # would let 'b' win silently
        {"x": math.nan, "y": math.nan},      # would find no label
        {"x": -math.inf, "y": -math.inf},
        {"x": math.inf, "y": 0.1},
        {"x": "high", "y": 0.1},
        {"x": 10 ** 400, "y": 0.1},          # an integer beyond the float range
        {"x": None, "y": 0.1},
        {"x": True, "y": 0.1},               # would count as 1.0
    ])
    def test_non_finite_sample_value_rejected(self, sample):
        sets = [("a", ("x",)), ("b", ("y",))]
        with pytest.raises(InvariantViolation, match="sample value for 'x' is not a finite number"):
            st.classify_by_abstraction(sets, sample)
