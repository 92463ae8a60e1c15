import math
import random

import pytest

import structen as st
from structen import InvariantViolation, ModuleFunction

from conftest import (items_tree, random_connected_graph, random_encoding_tree,
                      random_nested_spec)

# frozen from the independent hand evaluation of the two-module tree:
# 2*(1/14)*log2(2) + 4*(2/14)*log2(7/2) + 2*(3/14)*log2(7/3)
BARBELL_H2 = 1.6995138503199656
BARBELL_H1 = 2.556656707462823


def two_part(barbell):
    return st.from_partition(barbell, [{0, 1, 2}, {3, 4, 5}])


class TestStructuralEntropy:
    def test_star_collapses_to_degree_entropy(self):
        rng = random.Random(10)
        for _ in range(20):
            g = random_connected_graph(rng)
            assert st.structural_entropy(g, st.star_tree(g)) == pytest.approx(
                st.one_dim_entropy(g), abs=1e-12)

    def test_barbell_two_part(self, barbell):
        expected = (2 * (1 / 14) * math.log2(2)
                    + 4 * (2 / 14) * math.log2(7 / 2)
                    + 2 * (3 / 14) * math.log2(7 / 3))
        assert expected == pytest.approx(BARBELL_H2, abs=1e-12)
        assert st.structural_entropy(barbell, two_part(barbell)) == pytest.approx(
            expected, abs=1e-9)

    def test_k4_two_part_matches_edgewise(self, k4):
        t = st.from_partition(k4, [{0, 1}, {2, 3}])
        h = st.structural_entropy(k4, t)
        assert h == pytest.approx(5 / 3, abs=1e-12)
        assert h == pytest.approx(st.structural_entropy_edgewise(k4, t), abs=1e-9)

    def test_invalid_tree_rejected(self, k4):
        t = st.star_tree(k4)
        t.root.children[0].cut = 99.0
        with pytest.raises(InvariantViolation, match="invalid encoding tree"):
            st.structural_entropy(k4, t)


class TestEdgewiseOracles:
    def test_structural_agreement(self):
        rng = random.Random(11)
        for _ in range(200):
            g = random_connected_graph(rng, 4, 14)
            t = random_encoding_tree(g, rng)
            assert st.structural_entropy(g, t) == pytest.approx(
                st.structural_entropy_edgewise(g, t), abs=1e-9)

    def test_compressing_agreement(self):
        rng = random.Random(12)
        for _ in range(200):
            g = random_connected_graph(rng, 4, 14)
            t = random_encoding_tree(g, rng)
            assert st.compressing_info(g, t) == pytest.approx(
                st.compressing_info_edgewise(g, t), abs=1e-9)

    def test_triangle_star_is_degree_entropy(self, triangle):
        t = st.star_tree(triangle)
        assert st.structural_entropy_edgewise(triangle, t) == pytest.approx(
            st.one_dim_entropy(triangle), abs=1e-12)

    def test_barbell_edgewise_values(self, barbell):
        t = two_part(barbell)
        assert st.structural_entropy_edgewise(barbell, t) == pytest.approx(BARBELL_H2, abs=1e-9)
        assert st.compressing_info_edgewise(barbell, t) == pytest.approx(6 / 7, abs=1e-9)


class TestModuleEntropy:
    def test_cut_function_reduces_to_structural(self, barbell):
        # the cut kind reads the same checked stats, so the two agree bit for bit
        cases = [(barbell, two_part(barbell))]
        rng = random.Random(15)
        for _ in range(40):
            shape = random_connected_graph(rng, 8, 40)
            g = st.Graph.from_index_edges(
                shape.n, [(u, v, rng.uniform(0.5, 2.0)) for u, v, _ in shape.edges])
            cases += [(g, st.minimize_kd(g, k).tree) for k in (2, 3)]
        for g, t in cases:
            assert st.module_entropy(g, t, ModuleFunction.cut()) == st.structural_entropy(g, t)

    def test_volume_function_is_tree_independent_h1(self):
        rng = random.Random(13)
        for _ in range(20):
            g = random_connected_graph(rng)
            t1 = random_encoding_tree(g, rng)
            t2 = random_encoding_tree(g, rng)
            h1 = st.module_entropy(g, t1, ModuleFunction.volume())
            h2 = st.module_entropy(g, t2, ModuleFunction.volume())
            assert h1 == pytest.approx(h2, abs=1e-12)
            assert h1 == pytest.approx(st.one_dim_entropy(g), abs=1e-9)

    def test_custom_function(self, k4):
        t = st.from_partition(k4, [{0, 1}, {2, 3}])
        f = ModuleFunction.custom(lambda marker: float(len(marker)))
        value = st.module_entropy(k4, t, f)
        # hand evaluation: each non-root node weighs by its cardinality
        expected = -(2 / 12) * math.log2(6 / 12) * 2 - (1 / 12) * math.log2(3 / 6) * 4
        assert value == pytest.approx(expected, abs=1e-12)

    def test_custom_negative_rejected(self, k4):
        t = st.star_tree(k4)
        f = ModuleFunction.custom(lambda marker: -1.0)
        with pytest.raises(InvariantViolation, match="module function"):
            st.module_entropy(k4, t, f)

    @pytest.mark.parametrize("value, message", [
        (math.nan, "module function returned nan on [0]"),
        (math.inf, "module function returned inf on [0]"),
        (10 ** 400, "module function returned inf on [0]"),  # beyond the float range
        ("2.5", "module function value is not a real number"),
        (True, "module function value is not a real number"),  # would count as 1.0
        (None, "module function value is not a real number"),
    ], ids=["nan", "inf", "huge int", "string", "bool", "none"])
    def test_custom_value_must_be_a_finite_non_negative_real(self, k4, value, message):
        f = ModuleFunction.custom(lambda marker: value)
        with pytest.raises(InvariantViolation) as err:
            st.module_entropy(k4, st.star_tree(k4), f)
        assert str(err.value) == message

    def test_cut_and_volume_functions_read_the_graph(self, barbell):
        for marker in ({0}, {0, 1, 2}, {2, 3}, {1, 4, 5}):
            assert ModuleFunction.cut()(barbell, marker) == st.cut_weight(barbell, marker)
            assert ModuleFunction.volume()(barbell, marker) == st.subset_volume(barbell, marker)
        assert ModuleFunction.cut()(barbell, {0, 1, 2}) == 1.0
        assert ModuleFunction.volume()(barbell, {0, 1, 2}) == 7.0

    def test_unknown_kind_rejected(self, k4):
        with pytest.raises(InvariantViolation) as err:
            ModuleFunction("bogus")(k4, {0})
        assert str(err.value) == "unknown module function kind 'bogus'"


class TestDistributionEntropy:
    def test_half_quarter_quarter(self):
        p = (0.5, 0.25, 0.25)
        for spec in ([0, 1, 2], [[0, 1], 2], [0, [1, 2]], [[0, 2], 1]):
            assert st.distribution_entropy(p, items_tree(spec)) == pytest.approx(1.5, abs=1e-9)

    def test_uniform_eight(self):
        p = (0.125,) * 8
        spec = [[0, 1, [2, 3]], [4, [5, 6, 7]]]
        assert st.distribution_entropy(p, items_tree(spec)) == pytest.approx(3.0, abs=1e-9)

    def test_matches_shannon_on_random_pairs(self):
        rng = random.Random(14)
        for _ in range(50):
            n = rng.randint(2, 10)
            xs = [rng.random() + 0.01 for _ in range(n)]
            p = tuple(x / sum(xs) for x in xs)
            t = items_tree(random_nested_spec(rng, list(range(n))))
            assert st.distribution_entropy(p, t) == pytest.approx(
                st.shannon_entropy(p), abs=1e-9)

    def test_zero_mass_items(self):
        p = (0.5, 0.5, 0.0)
        t = items_tree([[0, 2], 1])
        assert st.distribution_entropy(p, t) == pytest.approx(1.0, abs=1e-9)

    def test_invalid_items_tree(self):
        with pytest.raises(InvariantViolation, match="items tree"):
            st.distribution_entropy((0.5, 0.5), items_tree([[0, 1], 2]))

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(InvariantViolation, match="non-finite"):
            st.distribution_entropy((10 ** 400, 0), items_tree([0, 1]))

    @pytest.mark.parametrize("entropy", [
        st.shannon_entropy,
        lambda p: st.distribution_entropy(p, items_tree([0, 1])),
    ], ids=["shannon", "tree"])
    @pytest.mark.parametrize("p", [
        [True, False],      # would read as 1 and 0
        ["0.5", "0.5"],     # would parse as numbers
        "ab",
        [None, 1.0],
    ], ids=["bools", "numeric strings", "bare string", "none"])
    def test_entry_not_a_real_number_rejected(self, entropy, p):
        with pytest.raises(InvariantViolation) as err:
            entropy(p)
        assert str(err.value) == "distribution entry is not a real number"


class TestCompressingInfo:
    def test_barbell_two_part(self, barbell):
        assert st.compressing_info(barbell, two_part(barbell)) == pytest.approx(6 / 7, abs=1e-9)

    def test_star_is_zero(self):
        rng = random.Random(15)
        for _ in range(10):
            g = random_connected_graph(rng)
            assert st.compressing_info(g, st.star_tree(g)) == pytest.approx(0.0, abs=1e-12)

    def test_k4_identity(self, k4):
        t = st.from_partition(k4, [{0, 1}, {2, 3}])
        assert st.compressing_info(k4, t) == pytest.approx(
            st.one_dim_entropy(k4) - st.structural_entropy(k4, t), abs=1e-9)

    def test_non_negative_on_any_valid_tree(self):
        # cut weight never exceeds volume, so every term is non-negative
        rng = random.Random(16)
        for _ in range(50):
            g = random_connected_graph(rng)
            t = random_encoding_tree(g, rng)
            assert st.compressing_info(g, t) >= -1e-12


class TestDecodingInfo:
    def test_equals_compressing(self, barbell):
        t = two_part(barbell)
        assert st.decoding_info(barbell, t) == pytest.approx(6 / 7, abs=1e-9)
        rng = random.Random(17)
        for _ in range(50):
            g = random_connected_graph(rng)
            tr = random_encoding_tree(g, rng)
            assert st.decoding_info(g, tr) == pytest.approx(
                st.compressing_info(g, tr), abs=1e-9)

    def test_star_is_zero(self, k4):
        assert st.decoding_info(k4, st.star_tree(k4)) == pytest.approx(0.0, abs=1e-12)

    def test_upper_bound_small_graphs(self):
        rng = random.Random(18)
        for _ in range(40):
            g = random_connected_graph(rng, 4, 10)
            t = random_encoding_tree(g, rng)
            phi, _ = st.conductance_exact(g)
            h1 = st.one_dim_entropy(g)
            assert st.decoding_info(g, t) <= (1 - phi) * h1 + phi + 1e-9


class TestInfoReport:
    def test_barbell_values(self, barbell):
        rep = st.info_report(barbell, two_part(barbell))
        assert rep.h1 == pytest.approx(BARBELL_H1, abs=1e-9)
        assert rep.h_t == pytest.approx(BARBELL_H2, abs=1e-9)
        assert rep.compress == pytest.approx(6 / 7, abs=1e-9)
        assert rep.decode == pytest.approx(rep.compress, abs=1e-9)
        assert rep.ratio == pytest.approx(0.3352592683409066, abs=1e-9)

    def test_star_ratio_zero(self, k4):
        rep = st.info_report(k4, st.star_tree(k4))
        assert rep.ratio == pytest.approx(0.0, abs=1e-12)

    def test_identity_field_invariant(self, barbell):
        rep = st.info_report(barbell, two_part(barbell))
        assert rep.h1 == pytest.approx(rep.h_t + rep.compress, abs=1e-9)

    def test_text_has_nine_decimals(self, barbell):
        text = st.info_report(barbell, two_part(barbell)).to_text()
        assert "h_t 1.699513850" in text
        assert "compress 0.857142857" in text

    def test_compressible_predicate(self, barbell):
        assert st.is_compressible(barbell, 6, 2, 0.3)
        assert not st.is_compressible(barbell, 6, 2, 0.4)
        assert not st.is_compressible(barbell, 7, 2, 0.3)


class TestEntropyLowerBound:
    def test_k4(self, k4):
        assert st.entropy_lower_bound(k4) == pytest.approx(2 / 3, abs=1e-9)

    def test_barbell(self, barbell):
        assert st.entropy_lower_bound(barbell) == pytest.approx(0.2223795296375461, abs=1e-9)

    def test_below_exact_two_level_optimum(self):
        rng = random.Random(19)
        for _ in range(30):
            g = random_connected_graph(rng, 4, 8)
            assert st.entropy_lower_bound(g) <= st.brute_force_2d(g).entropy + 1e-9
