"""Tests for coefficient spectra, counting identities, and mod-3 congruences."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from latile.abelian import GroupElement, GroupSpec, negate, rank_of
from latile.analysis import (
    code_beta,
    coefficient_partition,
    congruence_check,
    cube_multiplicity_check,
    spectrum_identity_checks,
)
from latile.construct import golay11_tiling
from latile.groupring import (
    GroupRingElement,
    OrderMismatchError,
    all_ones,
    as_code_set,
    multiply,
    one,
    power_map,
)
from latile.tiling import induced_code_set

from helpers import all_specs_up_to, dense_congruence_check, random_symmetric_set


def golay_code():
    return as_code_set(induced_code_set(golay11_tiling()))


def corrupted_golay_code():
    """Swap one inverse pair of the order-243 code for a foreign pair."""
    code = golay_code()
    coeffs = list(code.coefficients)
    spec = code.spec
    out_elem = GroupElement(spec, (1, 0, 0, 0, 0))
    in_elem = GroupElement(spec, (1, 1, 0, 0, 0))
    coeffs[rank_of(out_elem)] = 0
    coeffs[rank_of(negate(out_elem))] = 0
    coeffs[rank_of(in_elem)] = 1
    coeffs[rank_of(negate(in_elem))] = 1
    return GroupRingElement(spec, tuple(coeffs))


class TestPartition:
    def test_small_example(self):
        spec = GroupSpec((5,))
        a = GroupRingElement(spec, (3, 0, 2, 0, 2))
        assert coefficient_partition(a) == {0: 2, 2: 2, 3: 1}

    def test_all_ones_product(self):
        spec = GroupSpec((5,))
        g = all_ones(spec)
        assert coefficient_partition(multiply(g, power_map(g, 2))) == {5: 5}

    def test_order_243_product_spectrum(self):
        t = golay_code()
        product = multiply(t, power_map(t, 2))
        assert coefficient_partition(product) == {2: 220, 3: 22, 23: 1}

    def test_cube_against_code_spectrum(self):
        # T * T^(3) = 23 T for this code: T^(3) = e and T*e scaled
        t = golay_code()
        product = multiply(t, power_map(t, 3))
        assert coefficient_partition(product) == {0: 220, 23: 23}


class TestBeta:
    def test_order_243_value(self):
        assert code_beta(golay_code()) == 11

    def test_asymmetric_input_rejected(self):
        spec = GroupSpec((7,))
        t = GroupRingElement(spec, (1, 1, 1, 0, 0, 0, 0))
        with pytest.raises(ArithmeticError):
            code_beta(t)

    def test_identity_only_code_has_beta_zero(self):
        assert code_beta(one(GroupSpec((7,)))) == 0


class TestSpectrumIdentities:
    def test_all_three_hold_for_valid_code(self):
        report = spectrum_identity_checks(golay_code(), 11)
        assert report.all_hold
        checks = report.identity_checks
        assert checks["weighted_positions"].left == 529
        assert checks["weighted_positions"].right == 529
        assert checks["total_positions"].left == 243
        assert checks["nonzero_position_balance"].left == 243
        # 1 - beta + C(22,2) triangular weight for the single 23 entry
        assert checks["nonzero_position_balance"].right == 1 - 11 + 22 + 231
        assert report.beta == 11
        assert report.max_coefficient == 23

    def test_weighted_identity_holds_for_any_symmetric_code(self):
        """Identity (1) is mass conservation: it holds for every 0/1
        symmetric 23-subset of the right group, valid tiling or not."""
        report = spectrum_identity_checks(corrupted_golay_code(), 11)
        assert report.identity_checks["weighted_positions"].holds
        assert report.identity_checks["total_positions"].holds

    def test_corrupted_code_breaks_the_balance_identity(self):
        report = spectrum_identity_checks(corrupted_golay_code(), 11)
        assert not report.all_hold

    def test_wrong_group_order_rejected(self):
        with pytest.raises(OrderMismatchError):
            spectrum_identity_checks(one(GroupSpec((7,))), 11)

    def test_dict_has_string_partition_keys(self):
        d = spectrum_identity_checks(golay_code(), 11).as_dict()
        assert d["partition"] == {"2": 220, "3": 22, "23": 1}
        assert d["beta"] == 11


class TestCubeMultiplicity:
    def test_order_243_value(self):
        report = cube_multiplicity_check(golay_code())
        assert report.multiplicity == 23
        assert report.beta == 11
        assert report.expected == 23
        assert report.matches

    def test_identity_code(self):
        report = cube_multiplicity_check(one(GroupSpec((7,))))
        assert report.multiplicity == 1 and report.expected == 1

    def test_mismatch_is_reported_not_raised(self):
        # symmetric 5-subset of Z_9 with a non-matching cube count
        spec = GroupSpec((9,))
        t = GroupRingElement(spec, (1, 1, 0, 1, 0, 0, 1, 0, 1))
        report = cube_multiplicity_check(t)
        assert isinstance(report.matches, bool)
        assert report.expected == 2 * report.beta + 1


class TestCongruences:
    def test_both_hold_for_valid_code(self):
        report = congruence_check(golay_code(), 11)
        assert report.all_hold
        assert report.cubic.scalars == {"G": 2, "T": 1}
        assert report.quartic.scalars == {"G": 0, "T2": 1, "e": 0}
        assert report.cubic.first_mismatch_rank is None
        assert report.quartic.first_mismatch_rank is None

    def test_corrupted_code_fails(self):
        report = congruence_check(corrupted_golay_code(), 11)
        assert not report.all_hold
        failing = report.cubic if not report.cubic.holds else report.quartic
        assert failing.first_mismatch_rank is not None

    @pytest.mark.parametrize("code", [golay_code, corrupted_golay_code])
    def test_golay_codes_match_the_dense_oracle(self, code):
        """first_mismatch_rank, holds and the scalars agree with the
        reduce_mod-and-compare formula, congruence by congruence."""
        assert congruence_check(code(), 11) == dense_congruence_check(code(), 11)

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(all_specs_up_to(40)),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.1, 0.3, 0.6]),
    )
    def test_random_symmetric_sets_match_the_dense_oracle(self, spec, n, seed, density):
        code = random_symmetric_set(random.Random(seed), spec, density)
        assert congruence_check(code, n) == dense_congruence_check(code, n)

    @pytest.mark.parametrize(
        "check, bad",
        [
            pytest.param(congruence_check, 11.0, id="11.0"),
            pytest.param(congruence_check, "11", id="11"),
            pytest.param(spectrum_identity_checks, 11.0, id="spectrum-11.0"),
            pytest.param(spectrum_identity_checks, "11", id="spectrum-11"),
        ],
    )
    def test_non_integer_dimension_rejected(self, check, bad):
        with pytest.raises(ValueError, match=re.escape(f"dimensions must be integers, got {bad!r}")):
            check(golay_code(), bad)

    def test_scalars_depend_on_n_mod_3(self):
        spec = GroupSpec((19,))
        t = GroupRingElement(spec, (1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1))
        report = congruence_check(t, 3)
        assert report.cubic.scalars == {"G": 1, "T": 2}
        assert report.quartic.scalars == {"G": 2, "T2": 2, "e": 2}

    def test_dict_round_trip_shape(self):
        d = congruence_check(golay_code(), 11).as_dict()
        assert set(d) == {"cubic", "quartic"}
        assert d["cubic"]["holds"] is True
        assert d["quartic"]["scalars"]["T2"] == 1
