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


class TestDataSpaceFeatureTrees:
    def test_from_decoder_checks_catalog_and_source(self, worked_example):
        g, tree, catalog = worked_example
        partial = catalog_of({"0": ({"a"}, set()), "1": ({"a"}, set())})
        with pytest.raises(InvariantViolation, match="missing catalog entry for vertex '2'"):
            st.DataSpace.from_decoder(g, tree, partial, construction_k=3, height=2)
        with pytest.raises(InvariantViolation, match="unknown feature source 'tags'"):
            st.DataSpace.from_decoder(g, tree, catalog, construction_k=3, height=2,
                                      abstraction_source="tags")

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
            ds = st.DataSpace.from_decoder(g, decoder, catalog, construction_k=len(g.edges),
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

    def test_irrelevant_tokens_do_not_change_choice(self, worked_example):
        g, tree, catalog = worked_example
        ds = _space(g, tree, catalog)
        base = st.choose_abstraction(ds, {"a", "b"})
        noisy = st.choose_abstraction(ds, {"a", "b", "zz", "qq"})
        assert base.path == noisy.path


def _space(g, decoder, catalog):
    return st.DataSpace.from_decoder(g, decoder, catalog, construction_k=len(g.edges),
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
        # the swept argmax is at least as decodable as the k=1 candidate
        sims = {str(i): (0.5 if i < 4 else 0.1) for i in range(8)}
        ds, report = st.insert_point(block_space, "x", sims, syntax={"b1"})
        g0 = block_space.graph
        target = st.choose_abstraction(block_space, {"b1"})
        ranked = sorted(((w, g0.index[v]) for v, w in sims.items() if w > 0),
                        key=lambda t: (-t[0], t[1]))
        ids2 = g0.vertex_ids + ("x",)
        old = [(g0.vertex_ids[u], g0.vertex_ids[v], w) for u, v, w in g0.edges]

        def placed_decodability(k):
            extra = [(g0.vertex_ids[v], "x", w) for w, v in ranked[:k]]
            gk = st.Graph(ids2, old + extra)
            # the decoder with x as one more leaf of the target module
            doc = st.serialize(g0, block_space.decoder)
            module = doc
            for i in target.decoder_path:
                module = module["children"][i]
            module["children"].append({"vertex": "x"})
            tk = st.deserialize(gk, doc)
            return st.one_dim_entropy(gk) - st.structural_entropy(gk, tk, check=False)

        assert placed_decodability(report.chosen_k) >= placed_decodability(1) - 1e-9

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
        tall = dataclasses.replace(block_space, height=1)
        with pytest.raises(InvariantViolation, match="taller than the height cap"):
            st.insert_point(tall, "x", {"0": 0.5})

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

    def test_unknown_similarity_target_rejected(self, block_space):
        with pytest.raises(InvariantViolation, match="unknown vertex"):
            st.insert_point(block_space, "x", {"nope": 1.0})


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

    def test_empty_set_rejected(self):
        with pytest.raises(InvariantViolation, match="empty abstraction set"):
            st.classify_by_abstraction([("A", ())], {"x": 1.0})

    @pytest.mark.parametrize("sample", [
        {"x": math.nan, "y": 0.1},           # would let 'b' win silently
        {"x": math.nan, "y": math.nan},      # would find no label
        {"x": -math.inf, "y": -math.inf},
        {"x": math.inf, "y": 0.1},
        {"x": "high", "y": 0.1},
        {"x": 10 ** 400, "y": 0.1},          # an integer beyond the float range
        {"x": None, "y": 0.1},
    ])
    def test_non_finite_sample_value_rejected(self, sample):
        sets = [("a", ("x",)), ("b", ("y",))]
        with pytest.raises(InvariantViolation, match="sample value for 'x' is not a finite number"):
            st.classify_by_abstraction(sets, sample)
