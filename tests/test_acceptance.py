"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 5 checks conductance_exact(K_n) against its closed form for
n = 3..8.  In K_n a subset S of s <= n/2 vertices has cut s(n-s) and volume
s(n-1), so Phi(S) = (n-s)/(n-1); this falls as s grows, so the minimum is at
s = floor(n/2) and Phi(K_n) = ceil(n/2)/(n-1).  For even n that equals
n/(2(n-1)); for odd n, n/(2(n-1)) lies below every value a subset reaches
(K_3: each single vertex gives 2/2 = 1, never 0.75).
"""

import contextlib
import itertools
import json
import math
import random
import time

import pytest

import structen as st
from structen.cli import main

from conftest import (complete_graph, items_tree, partition_ids,
                      planted_similarity, random_connected_graph,
                      random_encoding_tree, random_nested_spec, two_cliques)

_T0 = time.monotonic()
_SUITE: list = []


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def _identity_suite():
    if not _SUITE:
        rng = random.Random(1001)
        for _ in range(500):
            g = random_connected_graph(rng, 4, 30, extra=0.15)
            _SUITE.append((g, random_encoding_tree(g, rng)))
    return _SUITE


def test_criterion_1_compressing_identity():
    with criterion("criterion-1 compressing identity on 500 random pairs"):
        start = time.monotonic()
        worst = 0.0
        for g, t in _identity_suite():
            h1 = st.one_dim_entropy(g)
            h_t = st.structural_entropy(g, t)
            c = st.compressing_info(g, t)
            worst = max(worst, abs(c + h_t - h1))
        elapsed = time.monotonic() - start
        assert worst < 1e-9, worst
        assert elapsed < 10.0, elapsed
        print(f"  [500 pairs, worst deviation {worst:.3e}, {elapsed:.1f}s]")


def test_criterion_2_edgewise_oracle_equivalence():
    with criterion("criterion-2 edgewise oracles agree on the same suite"):
        worst = 0.0
        for g, t in _identity_suite():
            worst = max(
                worst,
                abs(st.structural_entropy(g, t)
                    - st.structural_entropy_edgewise(g, t)),
                abs(st.compressing_info(g, t)
                    - st.compressing_info_edgewise(g, t)))
        assert worst < 1e-9, worst
        print(f"  [worst oracle deviation {worst:.3e}]")


def test_criterion_3_shannon_degeneracy():
    with criterion("criterion-3 tree-independent Shannon reductions"):
        rng = random.Random(1002)
        for _ in range(100):
            n = rng.randint(2, 12)
            xs = [rng.random() + 0.01 for _ in range(n)]
            p = tuple(x / sum(xs) for x in xs)
            t = items_tree(random_nested_spec(rng, list(range(n))))
            assert st.distribution_entropy(p, t) == pytest.approx(
                st.shannon_entropy(p), abs=1e-9)
        for _ in range(25):
            g = random_connected_graph(rng, 4, 12)
            t1 = random_encoding_tree(g, rng)
            t2 = random_encoding_tree(g, rng)
            f = st.ModuleFunction.volume()
            v1 = st.module_entropy(g, t1, f)
            v2 = st.module_entropy(g, t2, f)
            assert v1 == pytest.approx(v2, abs=1e-12)
            assert v1 == pytest.approx(st.one_dim_entropy(g), abs=1e-9)


def test_criterion_4_bounds_and_monotone_chain():
    with criterion("criterion-4 conductance bounds and height monotonicity"):
        rng = random.Random(1003)
        for _ in range(200):
            g = random_connected_graph(rng, 4, 8)
            h1 = st.one_dim_entropy(g)
            phi, _ = st.conductance_exact(g)
            h2 = st.brute_force_2d(g).entropy
            assert phi * (h1 - 1) <= h2 + 1e-9
            assert h2 <= h1 + 1e-9
            assert (h1 - h2) <= (1 - phi) * h1 + phi + 1e-9
        # C2 <= C3 on every connected labeled graph with 5 vertices
        pairs = list(itertools.combinations(range(5), 2))
        checked = 0
        for bits in range(1 << len(pairs)):
            edges = [(u, v, 1.0) for i, (u, v) in enumerate(pairs) if bits >> i & 1]
            if len(edges) < 4:
                continue
            try:
                g = st.Graph.from_index_edges(5, edges)
            except st.InvariantViolation:
                continue
            h1 = st.one_dim_entropy(g)
            c2 = h1 - st.brute_force_2d(g).entropy
            c3 = h1 - st.brute_force_kd(g, 3).entropy
            assert c2 <= c3 + 1e-9
            checked += 1
        assert checked == 728
        print(f"  [200 sampled graphs; all {checked} connected 5-vertex graphs]")


def test_criterion_5_complete_graph_conductance_as_pinned():
    # Phi(S) = (n-s)/(n-1) for |S| = s <= n/2, minimal at s = floor(n/2), so
    # Phi(K_n) = ceil(n/2)/(n-1); the form n/(2(n-1)) holds for even n only
    with criterion("criterion-5 complete-graph conductance matches ceil(n/2)/(n-1)"):
        mismatches = []
        for n in range(3, 9):
            phi, _ = st.conductance_exact(complete_graph(n))
            expected = math.ceil(n / 2) / (n - 1)
            if abs(phi - expected) > 1e-12:
                mismatches.append((n, phi, expected))
            if n % 2 == 0:
                even_form = n / (2 * (n - 1))
                if abs(phi - even_form) > 1e-12:
                    mismatches.append((n, phi, even_form))
        assert not mismatches, (
            "enumerated conductance differs from the closed form "
            f"ceil(n/2)/(n-1) (n/(2(n-1)) for even n): {mismatches}")


def test_criterion_5_companion_enumerated_closed_form():
    with criterion("criterion-5b complete-graph conductance matches ceil(n/2)/(n-1)"):
        for n in range(3, 9):
            phi, _ = st.conductance_exact(complete_graph(n))
            assert phi == pytest.approx(math.ceil(n / 2) / (n - 1), abs=1e-12)
            if n % 2 == 0:
                assert phi == pytest.approx(n / (2 * (n - 1)), abs=1e-12)


def test_criterion_6_barbell_fixture():
    with criterion("criterion-6 barbell fixture values and greedy recovery"):
        g = st.Graph.from_index_edges(
            6,
            [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
             (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0), (2, 3, 1.0)])
        # independently scripted values
        degrees = (2, 2, 3, 3, 2, 2)
        h1_script = -sum(d / 14 * math.log2(d / 14) for d in degrees)
        h2_script = (2 * (1 / 14) * math.log2(2)
                     + 4 * (2 / 14) * math.log2(7 / 2)
                     + 2 * (3 / 14) * math.log2(7 / 3))
        assert h1_script == pytest.approx(2.556656707, abs=1e-6)
        assert h2_script == pytest.approx(1.699513850, abs=1e-6)

        t = st.from_partition(g, [{0, 1, 2}, {3, 4, 5}])
        rep = st.info_report(g, t)
        assert rep.h1 == pytest.approx(h1_script, abs=1e-6)
        assert rep.h_t == pytest.approx(h2_script, abs=1e-6)
        assert rep.compress == pytest.approx(6 / 7, abs=1e-6)
        assert rep.decode == pytest.approx(0.857142857, abs=1e-6)

        greedy = st.minimize_2d(g)
        brute = st.brute_force_2d(g)
        assert sorted(sorted(c) for c in greedy.partition()) == [[0, 1, 2], [3, 4, 5]]
        assert greedy.entropy == pytest.approx(brute.entropy, abs=1e-9)


def test_criterion_7_greedy_versus_oracle():
    with criterion("criterion-7 greedy never beats the exact oracle"):
        for size in (3, 4, 5):
            g = two_cliques(size)
            greedy = st.minimize_2d(g)
            brute = st.brute_force_2d(g)
            planted = [list(range(size)), list(range(size, 2 * size))]
            assert sorted(sorted(c) for c in greedy.partition()) == planted
            assert greedy.entropy == pytest.approx(brute.entropy, abs=1e-9)
        rng = random.Random(1004)
        gaps = []
        for _ in range(100):
            g = random_connected_graph(rng, 4, 8)
            gap = st.minimize_2d(g).entropy - st.brute_force_2d(g).entropy
            assert gap >= -1e-9
            gaps.append(gap)
        print(f"  [greedy-oracle gap over 100 graphs: mean {sum(gaps) / len(gaps):.6f}, "
              f"max {max(gaps):.6f}]")


def test_criterion_8_pipeline_recovery():
    with criterion("criterion-8 planted data-space recovery and insertion"):
        sim2 = planted_similarity([range(4), range(4, 8)])
        cat2 = st.FeatureCatalog({
            str(i): st.FeatureSet(frozenset({"b1" if i < 4 else "b2"}))
            for i in range(8)})
        ds2 = st.build_data_space(sim2, cat2, height=2)
        assert partition_ids(ds2.graph, ds2.decoder) == [
            ["0", "1", "2", "3"], ["4", "5", "6", "7"]]

        sim3 = planted_similarity([range(3), range(3, 6), range(6, 9)])
        cat3 = st.FeatureCatalog({
            str(i): st.FeatureSet(frozenset({f"b{i // 3}"})) for i in range(9)})
        ds3 = st.build_data_space(sim3, cat3, height=2)
        assert partition_ids(ds3.graph, ds3.decoder) == [
            ["0", "1", "2"], ["3", "4", "5"], ["6", "7", "8"]]

        sims = {str(i): (0.5 if i < 4 else 0.0) for i in range(8)}
        updated, report = st.insert_point(ds2, "x", sims, syntax={"b1"})
        assert report.module == ("0", "1", "2", "3", "x")
        brute = st.brute_force_2d(updated.graph)
        assert st.structural_entropy(updated.graph, updated.decoder) == pytest.approx(
            brute.entropy, abs=1e-9)
        assert partition_ids(updated.graph, updated.decoder) == [
            ["0", "1", "2", "3", "x"], ["4", "5", "6", "7"]]


def test_criterion_9_knowledge_and_abstraction():
    with criterion("criterion-9 abstraction invariants and classification"):
        rng = random.Random(1005)
        for _ in range(100):
            g = random_connected_graph(rng, 4, 9)
            decoder = st.minimize_kd(g, rng.choice([2, 3])).tree
            tokens = [f"t{i}" for i in range(5)]
            catalog = st.FeatureCatalog({
                vid: st.FeatureSet(frozenset(rng.sample(tokens, rng.randint(0, 5))),
                                   frozenset(rng.sample(tokens, rng.randint(0, 2))))
                for vid in g.vertex_ids})
            kt = st.knowledge_tree(g, decoder, catalog)
            at = st.abstraction_tree(kt)
            from structen.learning import check_strict_growth
            assert check_strict_growth(at) is None
            ds = st.DataSpace(g, decoder, catalog, 1, 3, (), "all")
            for vid in g.vertex_ids:
                chain = st.flow_of_abstractions(ds, vid)
                for deeper, shallower in zip(chain, chain[1:]):
                    assert shallower <= deeper
        sets = [("Y1", ("g1", "g2")), ("Y2", ("g3",))]
        sample = {"g1": 0.9, "g2": 0.7, "g3": 0.1}
        assert st.classify_by_abstraction(sets, sample) == "Y1"


def test_criterion_10_cli_determinism(tmp_path, capsys):
    with criterion("criterion-10 byte-identical CLI runs and total runtime"):
        barbell = tmp_path / "barbell.tsv"
        barbell.write_text(
            "a\tb\t1\na\tc\t1\nb\tc\t1\nd\te\t1\nd\tf\t1\ne\tf\t1\nc\td\t1\n",
            encoding="utf-8")
        tree = tmp_path / "twopart.json"
        tree.write_text(json.dumps({"children": [
            {"children": [{"vertex": "a"}, {"vertex": "b"}, {"vertex": "c"}]},
            {"children": [{"vertex": "d"}, {"vertex": "e"}, {"vertex": "f"}]},
        ]}), encoding="utf-8")
        ids = [f"s{i}" for i in range(8)]
        m = planted_similarity([range(4), range(4, 8)])
        lines = ["," + ",".join(ids)]
        for i, row in enumerate(m):
            lines.append(ids[i] + "," + ",".join(f"{x:g}" for x in row))
        sim = tmp_path / "blocks.csv"
        sim.write_text("\n".join(lines) + "\n", encoding="utf-8")

        invocations = [
            ["entropy", "--graph", str(barbell)],
            ["entropy", "--graph", str(barbell), "--tree", str(tree)],
            ["entropy", "--graph", str(barbell), "--dim", "2"],
            ["oracle", "--graph", str(barbell), "--height", "2"],
            ["build", "--similarity", str(sim), "--height", "2"],
        ]
        for argv in invocations:
            outputs = []
            for _ in range(2):
                assert main(argv) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1], argv
        elapsed = time.monotonic() - _T0
        assert elapsed < 120.0, elapsed
        print(f"  [acceptance suite elapsed {elapsed:.1f}s]")
