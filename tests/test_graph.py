import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import structen as st
from structen import GraphParseError, InvariantViolation, SizeGuardExceeded

from structen.graph import format_real, left_sum, positive_pairs

from conftest import complete_graph, random_connected_graph


def write(tmp_path, text, name="g.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadGraph:
    def test_triangle(self, tmp_path):
        g = st.load_graph(write(tmp_path, "a\tb\t1\nb\tc\t1\na\tc\t1\n"))
        assert g.vertex_ids == ("a", "b", "c")
        assert g.volume == pytest.approx(6.0, abs=1e-12)
        assert g.n == 3

    def test_default_weight_and_comments(self, tmp_path):
        g = st.load_graph(write(tmp_path, "# comment\na b\n\nb c 2.5\n"))
        assert g.degree[g.index["b"]] == pytest.approx(3.5)

    def test_self_loop(self, tmp_path):
        with pytest.raises(InvariantViolation, match="self-loop"):
            st.load_graph(write(tmp_path, "a\ta\t1\na\tb\t1\n"))

    def test_disconnected(self, tmp_path):
        text = "a b 1\nb c 1\na c 1\nx y 1\ny z 1\nx z 1\n"
        with pytest.raises(InvariantViolation, match="disconnected"):
            st.load_graph(write(tmp_path, text))
        for n, edges in [(4, [(1, 2, 1.0), (2, 3, 1.0)]),              # isolated first vertex
                         (4, [(0, 1, 1.0), (1, 2, 1.0)]),              # isolated last vertex
                         (6, [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)]),  # three components
                         ]:
            with pytest.raises(InvariantViolation, match="disconnected"):
                st.Graph.from_index_edges(n, edges)
        # only the last listed edge joins the two halves
        g = st.Graph.from_index_edges(4, [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 1.0)])
        assert g.edges[-1] == (1, 2, 1.0)

    def test_duplicate_edge(self, tmp_path):
        with pytest.raises(InvariantViolation, match="duplicate"):
            st.load_graph(write(tmp_path, "a b 1\nb a 2\n"))

    def test_non_positive_weight(self, tmp_path):
        with pytest.raises(InvariantViolation, match="non-positive"):
            st.load_graph(write(tmp_path, "a b 0\n"))
        # weights must also be finite, and so must their sums
        with pytest.raises(InvariantViolation, match="non-finite"):
            st.load_graph(write(tmp_path, "a b 1\nb c inf\n"))
        with pytest.raises(InvariantViolation, match="overflows"):
            st.load_graph(write(tmp_path, "a b 1e308\nb c 1e308\n"))
        for w in (10 ** 400, -10 ** 400):  # integers too large for a float
            with pytest.raises(InvariantViolation, match="non-finite weight"):
                st.Graph.from_index_edges(3, [(0, 1, 1.0), (1, 2, w)])

    def test_parse_error_reports_line(self, tmp_path):
        with pytest.raises(GraphParseError, match=":2:"):
            st.load_graph(write(tmp_path, "a b 1\na b c d\n"))

    def test_bad_weight_reports_line(self, tmp_path):
        with pytest.raises(GraphParseError, match=":1:"):
            st.load_graph(write(tmp_path, "a b x\n"))
        # float() would read 1_5 as 15
        with pytest.raises(GraphParseError, match=r":2: bad weight '1_5'$"):
            st.load_graph(write(tmp_path, "a b 1\nb c 1_5\n"))

    def test_first_appearance_order(self, tmp_path):
        g = st.load_graph(write(tmp_path, "z y 1\ny a 1\n"))
        assert g.vertex_ids == ("z", "y", "a")

    @pytest.mark.parametrize("endpoint", [-1, 3, 1.5, 1.0, "0", True, None])
    def test_index_endpoint_must_be_a_vertex_index(self, endpoint):
        for edge in [(0, endpoint, 1.0), (endpoint, 2, 1.0)]:
            with pytest.raises(InvariantViolation,
                               match=rf"edge endpoint {re.escape(repr(endpoint))} is not"):
                st.Graph.from_index_edges(3, [edge, (1, 2, 1.0), (0, 1, 1.0)])

    def test_numpy_integer_endpoints(self):
        g = st.Graph.from_index_edges(3, [(np.int64(0), np.int32(2), 1.0), (1, np.int64(2), 2.0)])
        assert g.edges == ((0, 2, 1.0), (1, 2, 2.0))

    def test_large_graph_accepted_whatever_its_sums_round_to(self):
        # the volume folds the degrees and twice the total weight folds the
        # edges: with one 2^53 edge first they differ by rounding alone, by
        # more than 1e-12 of the volume, and the graph is valid all the same
        n = 20002
        heavy = (n // 2 - 1, n // 2)
        edges = [(*heavy, 2.0 ** 53)] + [(i, i + 1, 1.0) for i in range(n - 1) if i != heavy[0]]
        g = st.Graph.from_index_edges(n, edges)
        assert len(g.edges) == n - 1 and g.volume == left_sum(g.degree)
        assert abs(g.volume - 2 * left_sum(w for _, _, w in g.edges)) > 1e-12 * g.volume


class TestCutAndConductance:
    def test_cut_k4(self, k4):
        assert st.cut_weight(k4, {0, 1}) == pytest.approx(4.0)

    def test_cut_triangle_singleton(self, triangle):
        assert st.cut_weight(triangle, {0}) == pytest.approx(2.0)

    def test_cut_barbell_bridge(self, barbell):
        assert st.cut_weight(barbell, {0, 1, 2}) == pytest.approx(1.0)

    def test_cut_errors(self, triangle):
        with pytest.raises(InvariantViolation):
            st.cut_weight(triangle, set())
        with pytest.raises(InvariantViolation):
            st.cut_weight(triangle, {0, 1, 2})
        with pytest.raises(InvariantViolation, match="^subset contains an out-of-range vertex$"):
            st.cut_weight(triangle, {5})

    def test_volume_of_every_or_no_vertex(self, triangle):
        assert st.subset_volume(triangle, range(3)) == triangle.volume
        assert st.subset_volume(triangle, set()) == 0.0

    def test_conductance_subset_examples(self, k4, barbell, p3):
        assert st.conductance_subset(k4, {0, 1}) == pytest.approx(4 / 6)
        assert st.conductance_subset(barbell, {0, 1, 2}) == pytest.approx(1 / 7)
        assert st.conductance_subset(p3, {0}) == pytest.approx(1.0)

    def test_conductance_complement_symmetry(self):
        rng = random.Random(1)
        for _ in range(30):
            g = random_connected_graph(rng, 4, 10)
            members = rng.sample(range(g.n), rng.randint(1, g.n - 1))
            s = frozenset(members)
            comp = frozenset(range(g.n)) - s
            assert st.conductance_subset(g, s) == pytest.approx(
                st.conductance_subset(g, comp), abs=1e-12)

    def test_exact_barbell(self, barbell):
        phi, argmin = st.conductance_exact(barbell)
        assert phi == pytest.approx(1 / 7)
        assert argmin == frozenset({3, 4, 5})

    def test_exact_p3(self, p3):
        phi, _ = st.conductance_exact(p3)
        assert phi == pytest.approx(1.0)

    def test_exact_complete_graphs(self):
        # independent closed form: ceil(n/2) / (n-1); the even case reduces
        # to n / (2(n-1))
        for n in range(3, 9):
            phi, _ = st.conductance_exact(complete_graph(n))
            assert phi == pytest.approx(math.ceil(n / 2) / (n - 1), abs=1e-12)
            if n % 2 == 0:
                assert phi == pytest.approx(n / (2 * (n - 1)), abs=1e-12)

    def test_exact_is_lower_bound_of_subsets(self):
        rng = random.Random(2)
        g = random_connected_graph(rng, 8, 10)
        phi, _ = st.conductance_exact(g)
        for _ in range(100):
            s = frozenset(rng.sample(range(g.n), rng.randint(1, g.n - 1)))
            assert phi <= st.conductance_subset(g, s) + 1e-12

    def test_size_guard(self):
        g = complete_graph(6)
        with pytest.raises(SizeGuardExceeded):
            st.conductance_exact(g, max_n=5)


class TestEntropy:
    def test_shannon_examples(self):
        assert st.shannon_entropy([0.5, 0.5]) == pytest.approx(1.0)
        assert st.shannon_entropy([1.0]) == pytest.approx(0.0)
        assert st.shannon_entropy([0.25] * 4) == pytest.approx(2.0)

    def test_shannon_permutation_invariant(self):
        rng = random.Random(3)
        for _ in range(20):
            xs = [rng.random() for _ in range(rng.randint(2, 9))]
            p = [x / sum(xs) for x in xs]
            q = list(p)
            rng.shuffle(q)
            assert st.shannon_entropy(p) == pytest.approx(st.shannon_entropy(q), abs=1e-12)

    def test_shannon_maximized_by_uniform(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randint(2, 9)
            xs = [rng.random() + 0.01 for _ in range(n)]
            p = [x / sum(xs) for x in xs]
            h = st.shannon_entropy(p)
            assert h <= math.log2(n) + 1e-12
            uniform = max(p) - min(p) < 1e-12
            assert (abs(h - math.log2(n)) < 1e-12) == uniform

    def test_shannon_rejects_bad_input(self):
        with pytest.raises(InvariantViolation):
            st.shannon_entropy([0.5, 0.6])
        with pytest.raises(InvariantViolation):
            st.shannon_entropy([-0.1, 1.1])
        with pytest.raises(InvariantViolation, match="^empty distribution$"):
            st.shannon_entropy([])

    def test_shannon_rejects_non_finite_entries(self):
        for x in (10 ** 400, math.inf, math.nan):
            with pytest.raises(InvariantViolation, match="non-finite"):
                st.shannon_entropy([x, 0])

    @pytest.mark.parametrize("x, text", [
        (1.5, "1.500000000"), (-0.0, "0.000000000"), (-4e-10, "0.000000000"),
        (-6e-10, "-0.000000001"), (2 / 3, "0.666666667"), (math.inf, "inf")])
    def test_format_real_nine_decimals_unsigned_zero(self, x, text):
        assert format_real(x) == text

    def test_left_sum_folds_left_to_right(self):
        # a compensated sum (builtin sum from CPython 3.12) gives 2.0 here
        assert left_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
        assert left_sum([0.1, 0.2, 0.3]) == (0.1 + 0.2) + 0.3

    def test_one_dim_examples(self, k4, p3, barbell):
        assert st.one_dim_entropy(k4) == pytest.approx(2.0)
        assert st.one_dim_entropy(p3) == pytest.approx(1.5)
        # independent evaluation of -sum (d/14) log2(d/14)
        expected = -sum(d / 14 * math.log2(d / 14) for d in (2, 2, 3, 3, 2, 2))
        assert expected == pytest.approx(2.556656707462823, abs=1e-12)
        assert st.one_dim_entropy(barbell) == pytest.approx(expected, abs=1e-12)

    def test_one_dim_equals_degree_shannon(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_connected_graph(rng)
            p = [d / g.volume for d in g.degree]
            assert st.one_dim_entropy(g) == st.shannon_entropy(p)


def _graph_state(g):
    """Everything a Graph holds, with the key order of its index."""
    return (g.vertex_ids, list(g.index.items()), g.edges, g.degree, g.volume)


def _rebuilt(g, vid, edges):
    old = [(g.vertex_ids[u], g.vertex_ids[v], w) for u, v, w in g.edges]
    return st.Graph(g.vertex_ids + (vid,), old + [(u, vid, w) for u, w in edges])


BAD_NEW_VERTEX = [
    # (vertex id, new edges)
    ("1", [("0", 1.0)]),                # an existing id
    ("x", [("0", 0.0)]),
    ("x", [("0", -1.0)]),
    ("x", [("0", math.inf)]),
    ("x", [("0", math.nan)]),
    ("x", [("0", 10 ** 400)]),          # an integer beyond the float range
    ("x", [("0", "abc")]),              # weights must be real numbers
    ("x", [("0", "2.5")]),
    ("x", [("0", None)]),
    ("x", [("0", True)]),
    ("x", [("0", 1.0), ("0", 2.0)]),    # a repeated neighbour
    ("x", [("0", 1.0), ("q", 2.0)]),    # an unknown neighbour
    ("x", [("x", 1.0)]),                # the new vertex itself
    ("x", []),
]


class TestWithVertex:
    def test_degrees_are_left_folds_in_edge_order(self):
        # the shared edge loop must keep each degree a left fold of its
        # vertex's edge weights in `edges` order, from 0.0
        rng = random.Random(44)
        for _ in range(200):
            base = random_connected_graph(rng, 2, 12)
            g = st.Graph.from_index_edges(
                base.n, [(u, v, rng.uniform(0.01, 3.0)) for u, v, _ in base.edges])
            grown = g.with_vertex("x", [(u, rng.uniform(0.01, 3.0))
                                        for u in rng.sample(g.vertex_ids, rng.randint(1, g.n))])
            for h in (g, grown):
                for v in range(h.n):
                    assert h.degree[v] == left_sum(w for a, b, w in h.edges if v in (a, b))
                assert h.volume == left_sum(h.degree)

    def test_matches_a_rebuild_bit_for_bit(self):
        rng = random.Random(43)
        for _ in range(200):
            base = random_connected_graph(rng, 2, 12)
            g = st.Graph.from_index_edges(
                base.n, [(u, v, rng.uniform(0.01, 3.0)) for u, v, _ in base.edges])
            for vid in ("x", "y"):  # the second extends an extended graph
                edges = [(u, rng.uniform(0.01, 3.0))
                         for u in rng.sample(g.vertex_ids, rng.randint(1, g.n))]
                before = _graph_state(g)
                grown = g.with_vertex(vid, edges)
                assert _graph_state(grown) == _graph_state(_rebuilt(g, vid, edges))
                assert _graph_state(g) == before
                g = grown

    @pytest.mark.parametrize("vid, edges", BAD_NEW_VERTEX,
                             ids=[f"{v}:{e!r:.40}" for v, e in BAD_NEW_VERTEX])
    def test_bad_input_fails_as_a_rebuild_does(self, triangle, vid, edges):
        with pytest.raises(InvariantViolation) as rebuilt:
            _rebuilt(triangle, vid, edges)
        before = _graph_state(triangle)
        with pytest.raises(InvariantViolation) as extended:
            triangle.with_vertex(vid, edges)
        assert type(extended.value) is type(rebuilt.value)
        assert str(extended.value) == str(rebuilt.value)
        assert _graph_state(triangle) == before


EXAMPLE_SIM = np.array([
    [0, 9, 1, 1],
    [9, 0, 5, 1],
    [1, 5, 0, 8],
    [1, 1, 8, 0],
], dtype=float)


class TestTopkGraph:
    def test_top3_path(self):
        g = st.build_topk_graph(EXAMPLE_SIM, 3)
        got = {(u, v): w for u, v, w in g.edges}
        assert got == {(0, 1): 9.0, (2, 3): 8.0, (1, 2): 5.0}

    def test_top2_disconnected(self):
        with pytest.raises(InvariantViolation, match="k too small"):
            st.build_topk_graph(EXAMPLE_SIM, 2)

    def test_tie_break_builds_star(self):
        n = 5
        sim = np.ones((n, n)) - np.eye(n)
        g = st.build_topk_graph(sim, n - 1)
        assert sorted((u, v) for u, v, _ in g.edges) == [(0, j) for j in range(1, n)]

    def test_all_pairs_reproduces_matrix(self):
        rng = random.Random(6)
        n = 6
        sim = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                sim[i, j] = sim[j, i] = rng.random() + 0.1
        g = st.build_topk_graph(sim, n * (n - 1) // 2)
        assert len(g.edges) == n * (n - 1) // 2
        for u, v, w in g.edges:
            assert w == pytest.approx(sim[u, v], abs=1e-12)

    def test_ids_must_name_every_vertex(self):
        sim = np.ones((3, 3)) - np.eye(3)
        for ids in (("a", "b"), ("a", "b", "c", "d")):
            with pytest.raises(InvariantViolation,
                               match=f"expected 3 vertex ids, got {len(ids)}"):
                st.build_topk_graph(sim, 3, ids=ids)
            with pytest.raises(InvariantViolation,
                               match=f"expected 3 vertex ids, got {len(ids)}"):
                st.Graph.from_index_edges(3, [(0, 1, 1.0), (1, 2, 1.0)], ids=ids)
        assert st.build_topk_graph(sim, 3, ids=("a", "b", "c")).vertex_ids == ("a", "b", "c")

    def test_k_out_of_range(self):
        with pytest.raises(InvariantViolation, match="positive pairs"):
            st.build_topk_graph(EXAMPLE_SIM, 7)

    def test_one_ulp_mismatch_is_rounding_not_asymmetry(self):
        # symmetry is measured on the largest off-diagonal cell, here 2^40
        big = 2.0 ** 40
        near = [[0.0, big, 1.0], [math.nextafter(big, math.inf), 0.0, 1.0], [1.0, 1.0, 0.0]]
        assert positive_pairs(near) == [(big, 0, 1), (1.0, 0, 2), (1.0, 1, 2)]

    def test_asymmetric_rejected(self):
        bad = EXAMPLE_SIM.copy()
        bad[0, 1] = 2.0
        with pytest.raises(InvariantViolation, match="symmetric"):
            st.build_topk_graph(bad, 3)
        for x in (np.nan, np.inf):
            bad = EXAMPLE_SIM.copy()
            bad[0, 2] = bad[2, 0] = x
            with pytest.raises(InvariantViolation, match="non-finite"):
                st.build_topk_graph(bad, 3)


class TestSimilarityCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sim.csv"
        path.write_text(",a,b,c\na,0,2,1\nb,2,0,3\nc,1,3,0\n", encoding="utf-8")
        ids, values = st.load_similarity_csv(path)
        assert ids == ("a", "b", "c")
        assert values[0][1] == 2.0 and values[1][2] == 3.0
        # rows of Python floats, not an array
        assert type(values) is list and all(type(row) is list for row in values)
        assert all(type(x) is float for row in values for x in row)

    def test_diagonal_ignored(self, tmp_path):
        path = tmp_path / "sim.csv"
        path.write_text(",a,b\na,7,2\nb,2,7\n", encoding="utf-8")
        _, values = st.load_similarity_csv(path)
        assert values[0][0] == 0.0

    def test_asymmetric_is_parse_error(self, tmp_path):
        path = tmp_path / "sim.csv"
        path.write_text(",a,b\na,0,2\nb,3,0\n", encoding="utf-8")
        with pytest.raises(GraphParseError, match="symmetric"):
            st.load_similarity_csv(path)

    def test_negative_is_parse_error(self, tmp_path):
        path = tmp_path / "sim.csv"
        path.write_text(",a,b,c\na,0,1,-2\nb,1,0,1\nc,-2,1,0\n", encoding="utf-8")
        with pytest.raises(GraphParseError, match=r"sim\.csv: similarity matrix has a negative entry"):
            st.load_similarity_csv(path)
        # a negative diagonal is ignored like any other diagonal entry
        path.write_text(",a,b\na,-1,2\nb,2,-1\n", encoding="utf-8")
        _, values = st.load_similarity_csv(path)
        assert values[0][0] == values[1][1] == 0.0

    def test_bad_number(self, tmp_path):
        path = tmp_path / "sim.csv"
        path.write_text(",a,b\na,0,x\nb,x,0\n", encoding="utf-8")
        with pytest.raises(GraphParseError, match="bad number"):
            st.load_similarity_csv(path)
        for x in ("nan", "inf", "1_0"):  # float() would read 1_0 as 10
            path.write_text(f",a,b,c\na,0,1,{x}\nb,1,0,1\nc,{x},1,0\n", encoding="utf-8")
            with pytest.raises(GraphParseError, match=f"row 2: bad number '{x}'"):
                st.load_similarity_csv(path)


INPUT_CHECKS = {
    # id -> (call, message); each call raises InvariantViolation
    "graph of one vertex": (lambda: st.Graph(["a"], []), "a graph needs at least 2 vertices"),
    "graph without edges": (lambda: st.Graph(["a", "b"], []), "a graph needs at least one edge"),
    "non-square similarity": (lambda: positive_pairs(np.ones((2, 3))),
                              "similarity matrix must be square"),
    "one-row similarity": (lambda: positive_pairs(np.zeros((1, 1))),
                           "similarity matrix needs at least 2 rows"),
    "top-k of a float k": (lambda: st.build_topk_graph(EXAMPLE_SIM, 3.0),
                           "k=3.0 is not an integer"),
    "top-k of a bool k": (lambda: st.build_topk_graph(EXAMPLE_SIM, True),
                          "k=True is not an integer"),
    # vertex sets hold non-bool integer indices in range
    "volume of vertex -1": (lambda: st.subset_volume(complete_graph(3), {-1}),
                            "subset contains an out-of-range vertex"),
    "volume of a vertex past the last": (lambda: st.subset_volume(complete_graph(3), {7}),
                                         "subset contains an out-of-range vertex"),
    "cut of vertex True": (lambda: st.cut_weight(complete_graph(3), {True}),
                           "subset contains an out-of-range vertex"),
}


@pytest.mark.parametrize("call, message", INPUT_CHECKS.values(), ids=INPUT_CHECKS.keys())
def test_input_check(call, message):
    with pytest.raises(InvariantViolation) as err:
        call()
    assert str(err.value) == message


CELL = "similarity matrix cell is not a real number"
BAD_SIMILARITY = {
    # id -> (matrix, message); every matrix reader rejects it with this message
    "bool list": ([[False, True], [True, False]], CELL),        # would read as 0 and 1
    "bool ndarray": (np.array([[False, True], [True, False]]), CELL),
    "numeric strings": ([["0", "0.5"], ["0.5", "0"]], CELL),    # would parse as numbers
    "x cell": ([[0, "x"], ["x", 0]], CELL),
    "none cell": ([[0, None], [None, 0]], CELL),                # would read as nan
    "complex cell": ([[0, 1j], [1j, 0]], CELL),
    "ragged rows": ([[0, 1, 1], [1, 0], [1, 1, 0]], "similarity matrix must be square"),
    "bare string": ("ab", CELL),
    "none matrix": (None, "similarity matrix must be square"),
    "int row": ([[0, 1], 3], "similarity matrix must be square"),
    # 1 against 5 is asymmetric in any unit, here 2^-40
    "asymmetric tiny": ([[0.0, 2.0 ** -40], [5 * 2.0 ** -40, 0.0]],
                        "similarity matrix is not symmetric"),
}


@pytest.mark.parametrize("read", [
    positive_pairs,
    lambda sim: st.build_topk_graph(sim, 1),
    lambda sim: st.build_data_space(sim, st.FeatureCatalog({"0": st.FeatureSet(),
                                                            "1": st.FeatureSet()})),
], ids=["positive_pairs", "build_topk_graph", "build_data_space"])
@pytest.mark.parametrize("sim, message", BAD_SIMILARITY.values(), ids=BAD_SIMILARITY.keys())
def test_bad_similarity_cell(read, sim, message):
    with pytest.raises(InvariantViolation) as err:
        read(sim)
    assert str(err.value) == message


def test_topk_graph_of_a_nested_list_leaves_numpy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, structen; g = structen.build_topk_graph([[0, 1], [1, 0]], 1); "
            "print(g.edges, 'numpy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "((0, 1, 1.0),) False\n"), done.stderr
