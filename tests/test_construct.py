"""Tests for the explicit order-243 construction and partial difference sets."""

import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from latile.abelian import GroupElement, GroupSpec
from latile.ball import generate_ball
from latile.construct import (
    GOLAY11_CHECK_MATRIX,
    PdsParameters,
    check_pds,
    derive_check_matrix,
    golay11_tiling,
    golay_generator_polynomials,
    tiling_pds_parameters,
)
from latile.groupring import (
    GroupRingElement,
    all_ones,
    as_code_set,
    check_tiling_conditions,
    multiply,
    one,
    power_map,
    star,
    zero,
)
from latile.tiling import induced_code_set, verify_tiling

from helpers import all_specs_up_to, dense_check_pds, random_symmetric_set


class TestGolayDerivation:
    def test_generator_polynomials(self):
        g, h = golay_generator_polynomials()
        assert g == (2, 0, 1, 2, 1, 1)
        assert h == (1, 0, 1, 2, 2, 2, 1)

    def test_generators_multiply_to_x11_minus_1(self):
        g, h = golay_generator_polynomials()
        prod = [0] * (len(g) + len(h) - 1)
        for i, a in enumerate(g):
            for j, b in enumerate(h):
                prod[i + j] = (prod[i + j] + a * b) % 3
        # x^11 - 1 = x^11 + 2 over F_3
        assert prod == [2] + [0] * 10 + [1]

    def test_derived_matrix_matches_frozen_literal(self):
        assert derive_check_matrix() == GOLAY11_CHECK_MATRIX

    def test_matrix_shape(self):
        assert len(GOLAY11_CHECK_MATRIX) == 5
        assert all(len(row) == 11 for row in GOLAY11_CHECK_MATRIX)
        assert all(x in (0, 1, 2) for row in GOLAY11_CHECK_MATRIX for x in row)


class TestGolayTiling:
    def test_images_are_matrix_columns(self):
        phi = golay11_tiling()
        assert phi.n == 11
        assert phi.spec == GroupSpec((3, 3, 3, 3, 3))
        for j, img in enumerate(phi.images):
            assert img.residues == tuple(
                GOLAY11_CHECK_MATRIX[i][j] for i in range(5)
            )

    def test_tiling_verifies_bijective(self):
        report = verify_tiling(golay11_tiling(), generate_ball(11, 2, 1, 1))
        assert report.bijective

    def test_code_set_passes_ring_conditions(self):
        code = as_code_set(induced_code_set(golay11_tiling()))
        assert check_tiling_conditions(code, 11).passed

    def test_code_set_closed_under_doubling(self):
        code = as_code_set(induced_code_set(golay11_tiling()))
        assert power_map(code, 2) == code


class TestPartialDifferenceSets:
    def test_golay_nonidentity_part_is_a_pds(self):
        code = as_code_set(induced_code_set(golay11_tiling()))
        params = tiling_pds_parameters(11)
        assert params == PdsParameters(243, 22, 1, 2)
        report = check_pds(star(code), params)
        assert report.passed

    def test_paley_squares_in_z13(self):
        spec = GroupSpec((13,))
        squares = [1, 3, 4, 9, 10, 12]
        coeffs = [0] * 13
        for s in squares:
            coeffs[s] = 1
        d = GroupRingElement(spec, tuple(coeffs))
        assert check_pds(d, PdsParameters(13, 6, 2, 3)).passed

    def test_empty_set_is_trivially_pds(self):
        spec = GroupSpec((7,))
        d = GroupRingElement(spec, (0,) * 7)
        assert check_pds(d, PdsParameters(7, 0, 0, 0)).passed

    def test_wrong_parameters_fail(self):
        spec = GroupSpec((13,))
        coeffs = [0] * 13
        for s in (1, 3, 4, 9, 10, 12):
            coeffs[s] = 1
        d = GroupRingElement(spec, tuple(coeffs))
        assert not check_pds(d, PdsParameters(13, 6, 3, 2)).passed

    def test_corrupted_set_fails_both_views(self):
        """Swapping one inverse pair for another must break the ring
        condition and the difference-set condition together."""
        code = as_code_set(induced_code_set(golay11_tiling()))
        coeffs = list(code.coefficients)
        spec = code.spec
        # remove the pair {(1,0,0,0,0), (2,0,0,0,0)}, insert {(1,1,0,0,0), ...}
        from latile.abelian import negate, rank_of

        out_elem = GroupElement(spec, (1, 0, 0, 0, 0))
        in_elem = GroupElement(spec, (1, 1, 0, 0, 0))
        assert coeffs[rank_of(out_elem)] == 1
        assert coeffs[rank_of(in_elem)] == 0
        coeffs[rank_of(out_elem)] = 0
        coeffs[rank_of(negate(out_elem))] = 0
        coeffs[rank_of(in_elem)] = 1
        coeffs[rank_of(negate(in_elem))] = 1
        broken = GroupRingElement(spec, tuple(coeffs))
        assert not check_tiling_conditions(broken, 11).passed
        assert not check_pds(star(broken), tiling_pds_parameters(11)).passed

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PdsParameters(5, 5, 1, 1)
        with pytest.raises(ValueError):
            PdsParameters(-1, 0, 0, 0)

    def test_group_order_must_match_v(self):
        spec = GroupSpec((7,))
        d = GroupRingElement(spec, (0,) * 7)
        with pytest.raises(Exception):
            check_pds(d, PdsParameters(13, 0, 0, 0))

    def test_lambda_key_in_dict(self):
        d = PdsParameters(243, 22, 1, 2).as_dict()
        assert d == {"v": 243, "k": 22, "lambda": 1, "mu": 2}


# groups of exponent above 3, where T^(2) is not T for most sets T
HIGH_EXPONENT_SPECS = [
    s for s in all_specs_up_to(40) if s.invariant_factors and s.invariant_factors[-1] > 3
]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(all_specs_up_to(40)),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0.1, 0.3, 0.6]),
    st.booleans(),
    st.data(),
)
def test_pds_report_matches_the_dense_oracle(spec, seed, density, starred, data):
    """Every field of the report agrees with the dense linear_combine formula."""
    d = random_symmetric_set(random.Random(seed), spec, density)
    if starred:
        d = star(d)
    _check_pds_against_the_dense_oracle(d, data)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(HIGH_EXPONENT_SPECS),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0.1, 0.3, 0.6]),
    st.booleans(),
    st.booleans(),
    st.data(),
)
def test_star_of_a_gated_set_matches_the_dense_oracle(
    spec, seed, density, gated, holds_identity, data
):
    """star of a set that as_code_set has accepted and that holds e keeps
    D*D = T*T - 2T + e on its view, the square check_pds reads; star of any
    other set keeps nothing.  Both agree with the dense formula."""
    coefficients = random_symmetric_set(random.Random(seed), spec, density).coefficients
    t = GroupRingElement(spec, (int(holds_identity),) + coefficients[1:])
    assume(power_map(t, 2) != t)
    if gated:
        t = as_code_set(t)
    d = star(t)
    assert d.coefficients == (0,) + t.coefficients[1:]
    assert ("_view" in d.__dict__) is (gated and holds_identity)
    if gated and holds_identity:
        assert (1, 1) in d._view._products
        assert tuple(d._view.product(1, 1)) == multiply(d, d).coefficients
    _check_pds_against_the_dense_oracle(d, data)


def _check_pds_against_the_dense_oracle(d, data):
    v = d.spec.order
    k = data.draw(st.integers(min_value=0, max_value=v - 1))
    lam = data.draw(st.integers(min_value=-1, max_value=k))
    mu = data.draw(st.integers(min_value=-1, max_value=k))
    params = PdsParameters(v, k, lam, mu)
    assert check_pds(d, params) == dense_check_pds(d, params)


def test_pds_report_matches_the_dense_oracle_on_known_sets():
    from test_analysis import corrupted_golay_code, golay_code

    spec = GroupSpec((13,))
    paley = GroupRingElement(spec, tuple(int(r in (1, 3, 4, 9, 10, 12)) for r in range(13)))
    cases = [
        (star(golay_code()), tiling_pds_parameters(11), True),
        (star(corrupted_golay_code()), tiling_pds_parameters(11), False),
        (paley, PdsParameters(13, 6, 2, 3), True),
        (paley, PdsParameters(13, 6, 3, 2), False),
    ]
    for d, params, passed in cases:
        report = check_pds(d, params)
        assert report == dense_check_pds(d, params)
        assert report.passed is report.equation_holds is passed
    # the identity flag is read off the first support rank
    for n in (1, 3):
        spec = GroupSpec((2 * n * n + 1,))
        params = tiling_pds_parameters(n)
        for d, excluded in ((zero(spec), True), (one(spec), False), (all_ones(spec), False)):
            report = check_pds(d, params)
            assert report == dense_check_pds(d, params)
            assert report.identity_excluded is excluded


@pytest.mark.parametrize("field", ["k", "lam", "mu"])
def test_pds_rejects_non_integer_parameters(field):
    spec = GroupSpec((13,))
    d = GroupRingElement(spec, (0,) * 13)
    values = {"v": 13, "k": 6, "lam": 2, "mu": 3, field: 2.5}
    with pytest.raises(ValueError, match=re.escape("PDS parameters must be integers, got 2.5")):
        check_pds(d, PdsParameters(**values))
