import random

import pytest

import structen as st
from structen import GraphParseError, InvariantViolation, SizeGuardExceeded
from structen.optimize import cross_weight

from conftest import assert_children_ordered, random_connected_graph, two_cliques

BARBELL_H2 = 1.6995138503199656


class TestMergeDelta:
    def test_barbell_first_merge_matches_recomputation(self, barbell):
        star = st.star_tree(barbell)
        delta = st.merge_delta(barbell, star, (0,), (1,))
        merged = st.from_partition(barbell, [{0, 1}, {2}, {3}, {4}, {5}])
        full = st.structural_entropy(barbell, star) - st.structural_entropy(barbell, merged)
        assert delta == pytest.approx(full, abs=1e-9)

    def test_zero_cross_merges_never_improve(self):
        # delta is exactly 0 when both sides have no internal weight
        # (merging two unconnected singletons relabels without compressing)
        # and strictly negative as soon as one side does
        rng = random.Random(20)
        found = 0
        while found < 30:
            g = random_connected_graph(rng, 5, 9, extra=0.15)
            res = st.minimize_2d(g)
            mods = res.tree.root.children
            for i in range(len(mods)):
                for j in range(i + 1, len(mods)):
                    if cross_weight(g, mods[i].vertices, mods[j].vertices) == 0:
                        delta = st.merge_delta(g, res.tree, (i,), (j,))
                        internal = (mods[i].vol - mods[i].cut) + (mods[j].vol - mods[j].cut)
                        assert delta <= 1e-12
                        if internal > 1e-9:
                            assert delta < -1e-12
                        found += 1

    def test_merging_last_two_modules_is_negative(self, barbell):
        t = st.from_partition(barbell, [{0, 1, 2}, {3, 4, 5}])
        # the resulting single-module tree is invalid, but the delta is the
        # honest difference against the degree entropy: -(compressing info)
        assert st.merge_delta(barbell, t, (0,), (1,)) == pytest.approx(-6 / 7, abs=1e-9)

    def test_non_siblings_rejected(self, barbell):
        t = st.from_partition(barbell, [{0, 1, 2}, {3, 4, 5}])
        with pytest.raises(InvariantViolation, match="sibling"):
            st.merge_delta(barbell, t, (0,), (1, 0))

    def test_negative_index_is_no_node(self, cycle4):
        # (-1,) must not name the last child, or (3,) would be named twice
        with pytest.raises(InvariantViolation, match="no node at path -1"):
            st.merge_delta(cycle4, st.star_tree(cycle4), (-1,), (3,))


class TestCrossWeight:
    def test_is_the_edge_order_left_fold(self):
        # the same order cut_weight and the greedy's pair edge lists use
        rng = random.Random(22)
        for _ in range(300):
            base = random_connected_graph(rng, 4, 14, extra=0.5)
            g = st.Graph.from_index_edges(
                base.n, [(u, v, rng.uniform(0.01, 3.0)) for u, v, _ in base.edges])
            for _ in range(10):
                a = frozenset(rng.sample(range(g.n), rng.randint(1, g.n - 1)))
                b = frozenset(range(g.n)) - a
                expected = 0.0
                for u, v, w in g.edges:
                    if (u in a) != (v in a):
                        expected += w
                assert cross_weight(g, a, b) == expected
                assert cross_weight(g, b, a) == expected


class TestCombineApply:
    def test_star_combine(self, k4):
        t = st.combine_apply(k4, st.star_tree(k4), (0,), (1,))
        assert st.validate(k4, t) is None
        assert sorted(t.root.children[0].vertices) == [0, 1]
        assert t.height() == 2

    def test_original_untouched(self, k4):
        star = st.star_tree(k4)
        st.combine_apply(k4, star, (0,), (1,))
        assert star == st.star_tree(k4)

    def test_chain_height_cap(self, k4):
        t1 = st.combine_apply(k4, st.star_tree(k4), (0,), (1,))
        t2 = st.combine_apply(k4, t1, (0,), (1,), height_cap=3)
        assert st.validate(k4, t2) is None and t2.height() == 3
        with pytest.raises(InvariantViolation, match="height cap"):
            st.combine_apply(k4, t1, (0,), (1,), height_cap=2)

    def test_single_child_guard(self, barbell):
        t = st.from_partition(barbell, [{0, 1, 2}, {3, 4, 5}])
        with pytest.raises(InvariantViolation, match="single child"):
            st.combine_apply(barbell, t, (0,), (1,))

    def test_non_siblings_rejected(self, k4):
        t1 = st.combine_apply(k4, st.star_tree(k4), (0,), (1,))
        with pytest.raises(InvariantViolation, match="sibling"):
            st.combine_apply(k4, t1, (0, 0), (1,))

    def test_negative_index_is_no_node(self, cycle4):
        with pytest.raises(InvariantViolation, match="no node at path -1"):
            st.combine_apply(cycle4, st.star_tree(cycle4), (-1,), (3,))

    def test_unordered_parent_comes_back_ordered(self, k4):
        t = st.build_tree(k4, [[2, 3], 0, 1])
        out = st.combine_apply(k4, t, (1,), (2,))
        assert [sorted(c.vertices) for c in out.root.children] == [[0, 1], [2, 3]]
        assert st.validate(k4, out) is None


class TestMinimize2d:
    def test_barbell_recovers_bipartition(self, barbell):
        res = st.minimize_2d(barbell)
        assert sorted(sorted(c) for c in res.partition()) == [[0, 1, 2], [3, 4, 5]]
        assert res.entropy == pytest.approx(BARBELL_H2, abs=1e-9)
        assert res.entropy == pytest.approx(st.brute_force_2d(barbell).entropy, abs=1e-9)

    def test_two_k4_cliques(self):
        g = two_cliques(4)
        res = st.minimize_2d(g)
        assert sorted(sorted(c) for c in res.partition()) == [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert res.entropy == pytest.approx(st.brute_force_2d(g).entropy, abs=1e-9)

    def test_triangle_pairs_one_vertex(self, triangle):
        # the exact two-level optimum of a triangle is {0,1} + {2}, strictly
        # below the degree entropy log2(3)
        res = st.minimize_2d(triangle)
        assert sorted(sorted(c) for c in res.partition()) == [[0, 1], [2]]
        assert res.entropy == pytest.approx(1.3899750004807707, abs=1e-9)
        assert res.entropy == pytest.approx(st.brute_force_2d(triangle).entropy, abs=1e-9)

    def test_single_edge_makes_no_move(self):
        g = st.Graph.from_index_edges(2, [(0, 1, 1.0)])
        res = st.minimize_2d(g)
        assert res.trace == ()
        assert res.entropy == pytest.approx(1.0)

    def test_result_below_degree_entropy(self):
        rng = random.Random(21)
        for _ in range(30):
            g = random_connected_graph(rng)
            res = st.minimize_2d(g)
            assert res.tree.height() <= 2
            assert res.entropy <= st.one_dim_entropy(g) + 1e-12

    def test_robust_to_non_bridge_perturbation(self):
        for w in (0.9, 1.1):
            g = st.Graph.from_index_edges(
                6,
                [(0, 1, w), (0, 2, 1.0), (1, 2, 1.0),
                 (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0), (2, 3, 1.0)])
            res = st.minimize_2d(g)
            assert sorted(sorted(c) for c in res.partition()) == [[0, 1, 2], [3, 4, 5]]


class TestMinimizeKd:
    def test_k2_equals_minimize_2d(self):
        rng = random.Random(22)
        for _ in range(25):
            g = random_connected_graph(rng, 4, 10)
            a = st.minimize_2d(g)
            b = st.minimize_kd(g, 2)
            assert a.tree == b.tree
            assert a.entropy == pytest.approx(b.entropy, abs=1e-12)

    def test_four_triangles_nest_at_height_3(self):
        edges = []
        for block in range(4):
            base = 3 * block
            edges += [(base, base + 1, 1.0), (base, base + 2, 1.0),
                      (base + 1, base + 2, 1.0)]
        edges += [(2, 3, 1.0), (8, 9, 1.0), (5, 6, 0.1)]
        g = st.Graph.from_index_edges(12, edges)
        res3 = st.minimize_kd(g, 3)
        res2 = st.minimize_2d(g)
        assert res3.tree.height() <= 3
        assert res3.entropy <= res2.entropy + 1e-12
        top = sorted(sorted(c.vertices) for c in res3.tree.root.children)
        assert top == [[0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11]]
        level2 = sorted(sorted(sorted(cc.vertices) for cc in c.children)
                        for c in res3.tree.root.children)
        assert level2 == [[[0, 1, 2], [3, 4, 5]], [[6, 7, 8], [9, 10, 11]]]

    def test_k4_height3_below_two(self, k4):
        res = st.minimize_kd(k4, 3)
        assert res.tree.height() <= 3
        assert res.entropy <= 2.0 + 1e-12

    def test_invalid_cap(self, k4):
        with pytest.raises(InvariantViolation):
            st.minimize_kd(k4, 1)


class TestChildOrder:
    def test_greedy_and_replayed_trees_keep_min_vertex_order(self):
        # every edit starts from the star tree and keeps each child list in
        # min-vertex order, on weighted, unit-weight and path graphs
        rng = random.Random(41)
        graphs = [random_connected_graph(rng, 6, 16, weighted=w) for w in (True, False) * 4]
        graphs += [st.Graph.from_index_edges(n, [(i, i + 1, 1.0) for i in range(n - 1)])
                   for n in (7, 12, 20)]
        for g in graphs:
            for k in (2, 3, 4):
                res = st.minimize_kd(g, k)
                assert_children_ordered(res.tree)
                assert_children_ordered(st.replay_trace(g, res.trace))


class TestTraceContract:
    def test_deltas_match_global_recomputation(self):
        # replay_trace recomputes every statistic after each step and raises
        # unless the logged delta is the entropy drop to within 1e-9
        rng = random.Random(23)
        kinds = set()
        for _ in range(15):
            g = random_connected_graph(rng, 4, 10)
            res = st.minimize_kd(g, rng.choice([2, 3, 4]))
            for step in res.trace:
                kinds.add(step.kind)
                if step.kind in ("merge", "combine"):
                    assert step.delta > 1e-12
                else:
                    assert step.delta <= 1e-12
            t = st.replay_trace(g, res.trace)
            assert t == res.tree
            assert st.validate(g, t) is None
            assert st.structural_entropy(g, t) == pytest.approx(res.entropy, abs=1e-9)
        assert kinds == {"merge", "combine", "flatten"}

    def test_replay_rejects_a_wrong_delta(self, barbell):
        trace = list(st.minimize_kd(barbell, 3).trace)
        bad = trace[1]
        trace[1] = st.TraceStep(bad.kind, bad.a, bad.b, bad.delta + 1e-6)
        with pytest.raises(InvariantViolation, match="trace step 1"):
            st.replay_trace(barbell, trace)

    def test_replay_rejects_steps_that_do_not_apply(self, barbell):
        bad_steps = [
            st.TraceStep("merge", (0,), (0,), 0.1),          # one operand twice
            st.TraceStep("merge", (0,), (9,), 0.1),          # no such node
            st.TraceStep("combine", (0,), (1, 0), 0.1),      # not siblings
            st.TraceStep("flatten", (0,), (), 0.0),          # a leaf
            st.TraceStep("split", (0,), (1,), 0.1),          # unknown kind
        ]
        for step in bad_steps:
            with pytest.raises(InvariantViolation):
                st.replay_trace(barbell, [step])

    def test_replay_rejects_a_negative_index(self, barbell):
        step = st.TraceStep("merge", (-1,), (4,), 0.1)
        with pytest.raises(InvariantViolation, match="no node at path -1"):
            st.replay_trace(barbell, [step])

    def test_parse_trace_round_trip(self):
        rng = random.Random(30)
        for _ in range(10):
            g = random_connected_graph(rng, 4, 12)
            res = st.minimize_kd(g, rng.choice([2, 3, 4]))
            steps = st.parse_trace(res.trace_text())
            assert [(s.kind, s.a, s.b) for s in steps] == \
                [(s.kind, s.a, s.b) for s in res.trace]
            assert all(abs(s.delta - r.delta) <= 5e-10 for s, r in zip(steps, res.trace))
            assert st.replay_trace(g, steps) == res.tree

    @pytest.mark.parametrize("text", [
        "0 merge 0 1\n",
        "1 merge 0 1 0.5\n",
        "0 split 0 1 0.5\n",
        "0 merge 0.-1 1 0.5\n",
        "0 merge 0 1 half\n",
    ])
    def test_parse_trace_rejects_malformed_lines(self, text):
        with pytest.raises(GraphParseError, match="trace line 1"):
            st.parse_trace(text)

    def test_trace_length_and_determinism(self):
        rng = random.Random(24)
        for _ in range(15):
            g = random_connected_graph(rng, 4, 12)
            r1 = st.minimize_2d(g)
            r2 = st.minimize_2d(g)
            assert r1.trace == r2.trace and r1.tree == r2.tree
            assert len(r1.trace) <= 2 * g.n

    def test_trace_text_format(self, barbell):
        lines = st.minimize_2d(barbell).trace_text().splitlines()
        assert lines[0].startswith("0 merge ")
        for line in lines:
            fields = line.split()
            assert len(fields) == 5
            assert "." in fields[4] and len(fields[4].split(".")[1]) == 9


class TestPlantedRecovery:
    @pytest.mark.parametrize("size", [3, 4, 5])
    def test_two_cliques_with_bridge(self, size):
        g = two_cliques(size)
        res = st.minimize_2d(g)
        planted = [list(range(size)), list(range(size, 2 * size))]
        assert sorted(sorted(c) for c in res.partition()) == planted
        assert res.entropy == pytest.approx(st.brute_force_2d(g).entropy, abs=1e-9)


class TestBruteForce2d:
    def test_barbell(self, barbell):
        res = st.brute_force_2d(barbell)
        assert sorted(sorted(c) for c in res.partition()) == [[0, 1, 2], [3, 4, 5]]
        assert res.entropy == pytest.approx(BARBELL_H2, abs=1e-9)

    def test_p3_optimum_over_partitions(self, p3):
        res = st.brute_force_2d(p3)
        assert res.entropy == pytest.approx(1.2924812503605783, abs=1e-9)
        assert sorted(sorted(c) for c in res.partition()) == [[0], [1, 2]]

    def test_k4_below_degree_entropy(self, k4):
        assert st.brute_force_2d(k4).entropy <= 2.0 + 1e-12

    def test_size_guard(self):
        g = two_cliques(6)
        with pytest.raises(SizeGuardExceeded):
            st.brute_force_2d(g)

    def test_never_above_greedy(self):
        rng = random.Random(25)
        for _ in range(40):
            g = random_connected_graph(rng, 4, 8)
            assert st.brute_force_2d(g).entropy <= st.minimize_2d(g).entropy + 1e-9


class TestBruteForceKd:
    def test_k2_matches_partition_oracle(self):
        rng = random.Random(26)
        for _ in range(10):
            g = random_connected_graph(rng, 4, 6)
            a = st.brute_force_2d(g)
            b = st.brute_force_kd(g, 2)
            assert a.entropy == pytest.approx(b.entropy, abs=1e-12)
            assert a.tree == b.tree

    def test_barbell_k3_at_most_k2(self, barbell):
        assert st.brute_force_kd(barbell, 3).entropy <= st.brute_force_2d(barbell).entropy + 1e-12

    def test_guards(self, barbell):
        with pytest.raises(SizeGuardExceeded):
            st.brute_force_kd(two_cliques(4), 3)
        with pytest.raises(SizeGuardExceeded):
            st.brute_force_kd(barbell, 4)

    def test_monotone_chain_2_3_4(self):
        # height caps only widen the search space (guards lifted locally)
        rng = random.Random(27)
        for _ in range(8):
            g = random_connected_graph(rng, 4, 6)
            h1 = st.one_dim_entropy(g)
            c2 = h1 - st.brute_force_2d(g).entropy
            c3 = h1 - st.brute_force_kd(g, 3).entropy
            c4 = h1 - st.brute_force_kd(g, 4, max_k=4).entropy
            assert c2 <= c3 + 1e-9
            assert c3 <= c4 + 1e-9


class TestDecodingInfoK:
    def test_barbell(self, barbell):
        assert st.decoding_info_k(barbell, 2) == pytest.approx(6 / 7, abs=1e-9)

    def test_no_move_graph_is_zero(self):
        g = st.Graph.from_index_edges(2, [(0, 1, 1.0)])
        assert st.decoding_info_k(g, 2) == pytest.approx(0.0, abs=1e-12)

    def test_never_negative(self):
        rng = random.Random(28)
        for _ in range(25):
            g = random_connected_graph(rng)
            assert st.decoding_info_k(g, rng.choice([2, 3])) >= -1e-12

    def test_optimizer_compressing_info_non_negative(self):
        rng = random.Random(29)
        for _ in range(15):
            g = random_connected_graph(rng)
            res = st.minimize_kd(g, 2)
            assert st.compressing_info(g, res.tree) >= -1e-12
