"""Tests for integer group-ring arithmetic and the tiling condition check."""

import math
import random
import re
import weakref
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from latile.abelian import GroupElement, GroupSpec, elements, enumerate_abelian_groups, rank_of
from latile import groupring
from latile.analysis import (
    code_beta,
    congruence_check,
    cube_multiplicity_check,
    spectrum_identity_checks,
)
from latile.construct import check_pds, golay11_tiling, tiling_pds_parameters
from latile.groupring import (
    GroupRingElement,
    OrderMismatchError,
    all_ones,
    as_code_set,
    check_tiling_conditions,
    from_multiset,
    linear_combine,
    multiply,
    one,
    power_map,
    reduce_mod,
    star,
    support,
    zero,
)
from latile.tiling import induced_code_set

from helpers import (
    all_specs_up_to,
    dense_check_pds,
    dense_check_tiling_conditions,
    dense_congruence_check,
    dense_cube_multiplicity_check,
    dense_spectrum_identity_checks,
    naive_multiply,
    naive_power_map,
    random_ring_element,
    random_symmetric_set,
)

Z5 = GroupSpec((5,))
Z19 = GroupSpec((19,))


def ring(spec, *coeffs):
    return GroupRingElement(spec, tuple(coeffs))


class TestConstruction:
    def test_from_empty_multiset_is_zero(self):
        assert from_multiset(Z5, []) == zero(Z5)

    def test_from_multiset_counts_repeats(self):
        g = GroupElement(Z5, (1,))
        e = GroupElement(Z5, (0,))
        assert from_multiset(Z5, [e, g, g]) == ring(Z5, 1, 2, 0, 0, 0)

    def test_from_multiset_rejects_foreign_elements(self):
        with pytest.raises(Exception):
            from_multiset(Z5, [GroupElement(Z19, (1,))])

    def test_one_and_all_ones(self):
        assert one(Z5) == ring(Z5, 1, 0, 0, 0, 0)
        assert all_ones(Z5) == ring(Z5, 1, 1, 1, 1, 1)

    def test_length_must_match_order(self):
        with pytest.raises(ValueError):
            GroupRingElement(Z5, (1, 2, 3))

    @pytest.mark.parametrize("bad", [0.9, 1.5, 2.0, "3", None])
    def test_non_integer_coefficients_rejected(self, bad):
        with pytest.raises(ValueError, match=f"coefficients must be integers, got {bad!r}"):
            GroupRingElement(Z5, (0, bad, 2, True, 0))

    def test_from_dict_rejects_non_integers(self):
        for bad in (1.7, "3"):
            data = {"group": Z5.as_dict(), "coefficients": [0, 1, bad, 0, 0]}
            with pytest.raises(ValueError, match="coefficients must be integers"):
                GroupRingElement.from_dict(data)

    def test_integer_like_coefficients_become_ints(self):
        a = GroupRingElement(Z5, [True, False, 2, -1, 2**70])
        assert a.coefficients == (1, 0, 2, -1, 2**70)
        assert all(type(c) is int for c in a.coefficients)


class TestLinearCombine:
    def test_cancellation(self):
        a = ring(Z5, 1, 2, 0, -1, 4)
        assert linear_combine(1, a, -1, a) == zero(Z5)

    def test_weighted_sum(self):
        assert linear_combine(2, all_ones(Z5), 1, one(Z5)) == ring(Z5, 3, 2, 2, 2, 2)

    def test_mismatched_specs_rejected(self):
        with pytest.raises(Exception):
            linear_combine(1, one(Z5), 1, one(Z19))

    @pytest.mark.parametrize(
        "c1, c2, bad", [(1.5, 1, 1.5), (1, 1.5, 1.5), (1, "2", "2"), (None, 1, None), (2.0, 3, 2.0)]
    )
    def test_non_integer_scalars_rejected(self, c1, c2, bad):
        """The error names the bad scalar, not a coefficient of the result."""
        a = ring(Z5, 1, 2, 0, -1, 4)
        with pytest.raises(ValueError, match=re.escape(f"scalars must be integers, got {bad!r}")):
            linear_combine(c1, a, c2, one(Z5))

    def test_integer_like_scalars_become_ints(self):
        c = linear_combine(True, ring(Z5, 1, 2, 0, -1, 4), 2**70, one(Z5))
        assert c.coefficients == (1 + 2**70, 2, 0, -1, 4)
        assert all(type(x) is int for x in c.coefficients)


class TestMultiply:
    def test_identity_law(self):
        a = ring(Z5, 3, -1, 0, 2, 5)
        assert multiply(a, one(Z5)) == a
        assert multiply(one(Z5), a) == a

    def test_small_worked_example(self):
        # (e + g + g^4)^2 = 3e + 2g + g^2 + g^3 + 2g^4 in Z[Z_5]
        t = ring(Z5, 1, 1, 0, 0, 1)
        assert multiply(t, t) == ring(Z5, 3, 2, 1, 1, 2)

    def test_all_ones_absorbs(self):
        a = ring(Z5, 1, -2, 3, 0, 1)
        total = sum(a.coefficients)
        assert multiply(a, all_ones(Z5)) == GroupRingElement(Z5, (total,) * 5)

    def test_mismatched_specs_rejected(self):
        with pytest.raises(Exception):
            multiply(one(Z5), one(Z19))


class TestUnaryOps:
    def test_star_strips_identity_coefficient(self):
        a = ring(Z5, 7, 1, 2, 3, 4)
        assert star(a) == ring(Z5, 0, 1, 2, 3, 4)
        assert star(star(a)) == star(a)

    def test_negation_pushforward_reverses_group_elements(self):
        a = ring(Z5, 7, 1, 2, 3, 4)
        assert power_map(a, -1) == ring(Z5, 7, 4, 3, 2, 1)
        assert power_map(power_map(a, -1), -1) == a

    def test_reduce_mod(self):
        a = ring(Z5, 5, -1, 7, 3, 0)
        assert reduce_mod(a, 3) == ring(Z5, 2, 2, 1, 0, 0)
        with pytest.raises(ValueError):
            reduce_mod(a, 1)

    @pytest.mark.parametrize("bad", [2.5, 3.0, "3", None])
    def test_reduce_mod_rejects_non_integer_moduli(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"moduli must be integers, got {bad!r}")):
            reduce_mod(ring(Z5, 5, -1, 7, 3, 0), bad)

    def test_results_are_tuples_of_ints(self):
        """Results skip re-validation, so they must already be what the
        public constructor would store."""
        a = ring(Z5, 5, -1, 7, 3, 0)
        b = ring(Z5, 1, 0, 2, 0, -3)
        results = [
            linear_combine(2, a, -1, b),
            multiply(a, b),
            power_map(a, 3),
            star(a),
            reduce_mod(a, 4),
            from_multiset(Z5, support(b)),
            zero(Z5),
            one(Z5),
            all_ones(Z5),
        ]
        for c in results:
            assert type(c.coefficients) is tuple
            assert all(type(x) is int for x in c.coefficients)
            assert GroupRingElement(c.spec, c.coefficients) == c

    def test_power_map_examples(self):
        a = ring(Z5, 0, 1, 1, 0, 0)
        # g -> 2g sends g^1 to g^2 and g^2 to g^4
        assert power_map(a, 2) == ring(Z5, 0, 0, 1, 0, 1)
        assert power_map(a, 1) == a

    def test_power_map_folds_kernel(self):
        a = ring(Z5, 0, 1, 1, 1, 1)
        assert power_map(a, 5) == ring(Z5, 4, 0, 0, 0, 0)

    @pytest.mark.parametrize("bad", [2.5, "2"])
    def test_power_map_rejects_non_integer_multipliers(self, bad):
        with pytest.raises(ValueError, match=f"multipliers must be integers, got {bad!r}"):
            power_map(ring(Z5, 0, 1, 1, 0, 0), bad)

    def test_support_and_coefficient(self):
        a = ring(Z5, 0, 3, 0, -1, 0)
        assert [rank_of(g) for g in support(a)] == [1, 3]


@pytest.fixture
def made_views(monkeypatch):
    """Every code-set view made while the test runs, in order."""
    made = []

    class Spy(groupring._CodeView):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(groupring, "_CodeView", Spy)
    return made


class TestCodeSet:
    def test_accepts_zero_one_vectors(self):
        code = as_code_set(ring(Z5, 1, 0, 1, 1, 0))
        assert code == ring(Z5, 1, 0, 1, 1, 0)

    def test_rejects_fractional_memberships(self):
        with pytest.raises(ValueError, match="0.9"):
            as_code_set(ring(Z5, 0.9, 1.5, 0, 0, 0))

    def test_rejects_multiplicities(self):
        with pytest.raises(ValueError):
            as_code_set(ring(Z5, 1, 2, 0, 0, 0))
        with pytest.raises(ValueError):
            as_code_set(ring(Z5, -1, 0, 0, 0, 0))

    def test_empty_element_list_rejected(self):
        with pytest.raises(ValueError) as info:
            as_code_set([])
        assert str(info.value) == "cannot infer the group from an empty element list"

    def test_multiset_refused_on_every_call(self, made_views):
        bad = ring(Z5, 1, 0, 2, 0, 0)
        for _ in range(2):
            with pytest.raises(ValueError, match="^not a set: coefficient 2 at rank 2 "):
                as_code_set(bad)
        assert made_views == []


def _gated_reports(code, n):
    """The ring checks that read the view of `code` itself."""
    return (
        check_tiling_conditions(code, n),
        spectrum_identity_checks(code, n),
        cube_multiplicity_check(code),
        congruence_check(code, n),
        code_beta(code),
    )


class TestOneGate:
    """as_code_set is the one gate: it validates a code set and keeps the
    view that every ring check reads."""

    def test_the_gate_makes_the_one_view_the_checks_read(self, made_views):
        t = as_code_set(induced_code_set(golay11_tiling()))
        assert len(made_views) == 1
        _gated_reports(t, 11)
        assert len(made_views) == 1
        # star(T) comes with a view of its own, made from T's with D*D kept
        # on it: the gate returns D as it is, and check_pds squares nothing
        d = as_code_set(star(t))
        assert (1, 1) in d._view._products
        assert len(made_views) == 2
        assert check_pds(d, tiling_pds_parameters(11)).passed
        assert len(made_views) == 2

    def test_a_second_call_returns_the_same_element_and_view(self, made_views):
        t = as_code_set(induced_code_set(golay11_tiling()))
        view = t._view
        assert as_code_set(t) is t
        assert t._view is view
        assert made_views == [view]

    def test_checks_on_an_element_list_equal_those_on_the_element(self, made_views):
        spec = GroupSpec((19,))
        t = as_code_set(ring(spec, 1, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1))
        listed = support(t)
        assert _gated_reports(listed, 3) == _gated_reports(t, 3)
        assert check_pds(listed, tiling_pds_parameters(3)) == check_pds(
            t, tiling_pds_parameters(3)
        )
        # a list gets a fresh element, and so a view of its own, each call
        assert len(made_views) == 1 + 6
        assert as_code_set(listed) is not as_code_set(listed)


SMALL_SPECS = [s for s in all_specs_up_to(30) if s.order >= 2]


@st.composite
def ring_pairs(draw, count=2, low=-4, high=4, specs=SMALL_SPECS):
    spec = draw(st.sampled_from(specs))
    out = []
    for _ in range(count):
        coeffs = draw(
            st.lists(
                st.integers(low, high),
                min_size=spec.order,
                max_size=spec.order,
            )
        )
        out.append(GroupRingElement(spec, tuple(coeffs)))
    return tuple(out)


@given(ring_pairs())
def test_multiply_matches_naive_oracle(pair):
    a, b = pair
    assert multiply(a, b) == naive_multiply(a, b)


def scaled(a, scale):
    return GroupRingElement(a.spec, tuple(c * scale for c in a.coefficients))


@given(ring_pairs(count=1, specs=[GroupSpec(())] + SMALL_SPECS), st.sampled_from([1, 2**64 + 1]))
def test_square_matches_naive_oracle(args, scale):
    """multiply(a, a) takes the square's unordered-pair route; coefficients
    are negative, zero and, scaled, above 2^64."""
    a = scaled(args[0], scale)
    assert multiply(a, a) == naive_multiply(a, a)


@given(ring_pairs(count=1, specs=[GroupSpec(())] + SMALL_SPECS))
def test_product_of_equal_distinct_operands_matches_naive_oracle(args):
    """b equal to a but not a itself takes the square's route too; the
    coefficients include negative and zero ones."""
    (a,) = args
    b = GroupRingElement(a.spec, tuple(a.coefficients))
    assert b is not a and b == a
    assert multiply(a, b) == naive_multiply(a, b) == multiply(a, a)


def test_products_with_a_power_map_that_repeats_ranks():
    """On Z_3^5 every t*g with t = 3 is the identity, so T^(3) = 23e for the
    Golay code set: the image repeats one rank 23 times."""
    t = as_code_set(induced_code_set(golay11_tiling()))
    t3 = power_map(t, 3)
    assert t3 == GroupRingElement(t.spec, (23,) + (0,) * 242)
    assert multiply(t, t3) == naive_multiply(t, t3)
    assert multiply(t3, t3) == naive_multiply(t3, t3)
    rng = random.Random(3)
    for spec in (GroupSpec((3, 9)), GroupSpec((9,)), GroupSpec((3, 3, 3))):
        a = random_ring_element(rng, spec)
        a3 = power_map(a, 3)
        assert multiply(a, a3) == naive_multiply(a, a3)


def test_golay_product_with_its_doubling_is_its_square():
    """A symmetric T over Z_3^5 has T^(2) = -T = T, so T * T^(2) = T * T."""
    t = as_code_set(induced_code_set(golay11_tiling()))
    t2 = power_map(t, 2)
    assert t2 == t
    assert multiply(t, t2) == multiply(t, t) == naive_multiply(t, t)


@given(ring_pairs())
def test_multiplication_commutes(pair):
    a, b = pair
    assert multiply(a, b) == multiply(b, a)


@settings(max_examples=60)
@given(ring_pairs(count=3))
def test_multiplication_associates_and_distributes(triple):
    a, b, c = triple
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
    lhs = multiply(a, linear_combine(1, b, 1, c))
    rhs = linear_combine(1, multiply(a, b), 1, multiply(a, c))
    assert lhs == rhs


@given(ring_pairs(), st.integers(min_value=-2, max_value=6))
def test_power_map_is_a_ring_homomorphism(pair, t):
    a, b = pair
    assert power_map(multiply(a, b), t) == multiply(power_map(a, t), power_map(b, t))
    assert power_map(linear_combine(1, a, 1, b), t) == linear_combine(
        1, power_map(a, t), 1, power_map(b, t)
    )


@given(
    ring_pairs(count=1, low=-(2**70), high=2**70, specs=[GroupSpec(())] + SMALL_SPECS),
    st.integers(-(10**20), 10**20),
)
def test_power_map_matches_naive_oracle(args, t):
    (a,) = args
    assert power_map(a, t) == naive_power_map(a, t)


@given(ring_pairs(count=1), st.integers(0, 5), st.integers(0, 5))
def test_power_map_composes(args, s, t):
    (a,) = args
    assert power_map(power_map(a, s), t) == power_map(a, s * t)


ORDER_243 = enumerate_abelian_groups(243)


def golay_sized_set(rng, spec):
    """A 0/1 element with 23 support elements, the size of the Golay code set."""
    chosen = set(rng.sample(range(spec.order), 23))
    return GroupRingElement(spec, tuple(int(r in chosen) for r in range(spec.order)))


@pytest.mark.parametrize("spec", ORDER_243, ids=GroupSpec.describe)
def test_multiply_matches_naive_oracle_at_order_243(spec):
    rng = random.Random(spec.describe())
    a, b = golay_sized_set(rng, spec), golay_sized_set(rng, spec)
    assert multiply(a, b) == naive_multiply(a, b)
    a, b = random_ring_element(rng, spec), random_ring_element(rng, spec)
    assert multiply(a, b) == naive_multiply(a, b)
    for a in (golay_sized_set(rng, spec), scaled(random_ring_element(rng, spec), 2**64 + 1)):
        assert multiply(a, a) == naive_multiply(a, a)


def test_multiply_over_the_trivial_group():
    trivial = GroupSpec(())
    a, b = ring(trivial, 5), ring(trivial, -3)
    assert multiply(a, b) == naive_multiply(a, b) == ring(trivial, -15)
    assert multiply(a, zero(trivial)) == zero(trivial)
    assert power_map(a, 7) == a


def test_multiply_with_coefficients_above_two_to_the_64():
    rng = random.Random(64)
    big = 2**64
    for spec in (Z19, GroupSpec((3, 9)), GroupSpec((2, 2, 4))):
        a = random_ring_element(rng, spec, -(2**70), 2**70)
        small = random_ring_element(rng, spec).coefficients
        b = GroupRingElement(spec, tuple(c * big + 1 for c in small))
        product = multiply(a, b)
        assert product == naive_multiply(a, b)
        assert max(map(abs, product.coefficients)) > big


@pytest.mark.parametrize("t", [-1, 0, 2, 3, 4, 244])
def test_power_map_matches_reference(t):
    rng = random.Random(t)
    for spec in all_specs_up_to(60) + ORDER_243:
        a = random_ring_element(rng, spec)
        assert power_map(a, t) == naive_power_map(a, t)
        code = golay_sized_set(rng, spec) if spec.order >= 23 else a
        assert power_map(code, t) == naive_power_map(code, t)


def test_power_map_by_unit_permutes_multiset():
    rng = random.Random(7)
    for t in (2, 3, 18):
        assert math.gcd(t, 19) == 1
        a = GroupRingElement(Z19, tuple(rng.randint(0, 3) for _ in range(19)))
        assert sorted(power_map(a, t).coefficients) == sorted(a.coefficients)


class TestTilingConditions:
    def test_golay_code_set_satisfies_all_conditions(self):
        hom = golay11_tiling()
        code = as_code_set(induced_code_set(hom))
        report = check_tiling_conditions(code, 11)
        assert report.size == 23
        assert report.size_ok
        assert report.contains_identity
        assert report.symmetric
        assert report.equation_holds
        assert report.passed

    def test_dropping_identity_fails(self):
        hom = golay11_tiling()
        code = as_code_set(induced_code_set(hom))
        coeffs = list(code.coefficients)
        coeffs[0] = 0
        broken = GroupRingElement(code.spec, tuple(coeffs))
        report = check_tiling_conditions(broken, 11)
        assert not report.contains_identity
        assert not report.passed

    def test_group_order_must_match_ball_size(self):
        with pytest.raises(OrderMismatchError):
            check_tiling_conditions(one(Z5), 3)

    def test_rejects_multiset_input(self):
        bad = ring(Z19, *([2] + [0] * 18))
        with pytest.raises(ValueError):
            check_tiling_conditions(bad, 3)

    def test_no_symmetric_code_works_in_z19(self):
        """Exhaustive n=3 check over Z_19: e plus three inverse pairs, 84 ways."""
        pair_mins = list(range(1, 10))
        passed = 0
        for picks in combinations(pair_mins, 3):
            coeffs = [0] * 19
            coeffs[0] = 1
            for v in picks:
                coeffs[v] = 1
                coeffs[19 - v] = 1
            report = check_tiling_conditions(
                GroupRingElement(Z19, tuple(coeffs)), 3
            )
            if report.passed:
                passed += 1
            assert report.size_ok and report.symmetric and report.contains_identity
        assert passed == 0

    def test_square_coefficients_split_by_doubling_support(self):
        """Off-identity coefficients of code^2 are 3 exactly on the doubled
        support and 2 elsewhere (the pruning dichotomy used by the search)."""
        hom = golay11_tiling()
        code = as_code_set(induced_code_set(hom))
        square = multiply(code, code)
        doubled = {rank_of(g) for g in support(power_map(code, 2))}
        for g in elements(code.spec):
            r = rank_of(g)
            if r == 0:
                assert square.coefficients[0] == 23
            elif r in doubled:
                assert square.coefficients[r] == 3
            else:
                assert square.coefficients[r] == 2


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0.05, 0.2, 0.5, 0.9]),
    st.booleans(),
    st.data(),
)
def test_tiling_conditions_match_the_dense_oracle(n, seed, density, symmetric, data):
    """Every field of the report agrees with the dense linear_combine formula,
    on symmetric sets and on arbitrary 0/1 sets."""
    spec = data.draw(st.sampled_from(enumerate_abelian_groups(2 * n * n + 1)))
    rng = random.Random(seed)
    if symmetric:
        code = random_symmetric_set(rng, spec, density)
    else:
        code = GroupRingElement(spec, tuple(int(rng.random() < density) for _ in range(spec.order)))
    assert check_tiling_conditions(code, n) == dense_check_tiling_conditions(code, n)


def test_tiling_conditions_match_the_dense_oracle_on_golay_codes():
    from test_analysis import corrupted_golay_code, golay_code

    for code in (golay_code(), corrupted_golay_code()):
        report = check_tiling_conditions(code, 11)
        assert report == dense_check_tiling_conditions(code, 11)
    assert check_tiling_conditions(golay_code(), 11).equation_holds
    assert not report.equation_holds and not report.passed


def test_tiling_conditions_match_the_dense_oracle_on_fixed_elements():
    """The identity flag is read off the first support rank: zero has none,
    one has only rank 0 and all_ones every rank (n = 1 and n = 3)."""
    for n in (1, 3):
        spec = GroupSpec((2 * n * n + 1,))
        for code, has_identity in ((zero(spec), False), (one(spec), True), (all_ones(spec), True)):
            report = check_tiling_conditions(code, n)
            assert report == dense_check_tiling_conditions(code, n)
            assert report.contains_identity is has_identity


@pytest.mark.parametrize(
    "check",
    [
        lambda code: check_tiling_conditions(code, 3),
        lambda code: spectrum_identity_checks(code, 3),
        lambda code: check_pds(code, tiling_pds_parameters(3)),
        lambda code: congruence_check(code, 3),
        cube_multiplicity_check,
    ],
    ids=["conditions", "spectrum", "pds", "congruences", "cube"],
)
def test_a_multiset_is_refused_before_the_group_order(check):
    # Z_7 is neither 2*3^2+1 nor v = 19, but the code set is read first
    code = ring(GroupSpec((7,)), 1, 0, 0, 2, 0, 0, 0)
    with pytest.raises(ValueError) as exc:
        check(code)
    assert str(exc.value) == "not a set: coefficient 2 at rank 3 (multiplicities must be 0 or 1)"


# The five checks `latile analyze` makes on one code set, by name, each with
# its dense oracle; the PDS check reads T itself here, so it shares T*T with
# the tiling condition.
def _ring_checks(n):
    params = tiling_pds_parameters(n)
    return {
        "conditions": (
            lambda c: check_tiling_conditions(c, n),
            lambda c: dense_check_tiling_conditions(c, n),
        ),
        "spectrum": (
            lambda c: spectrum_identity_checks(c, n),
            lambda c: dense_spectrum_identity_checks(c, n),
        ),
        "cube": (cube_multiplicity_check, dense_cube_multiplicity_check),
        "congruences": (lambda c: congruence_check(c, n), lambda c: dense_congruence_check(c, n)),
        "pds": (lambda c: check_pds(c, params), lambda c: dense_check_pds(c, params)),
    }


def _outcome(check, code):
    """A check's report, or the type and message of what it raised (beta is
    refused on a set that is not symmetric)."""
    try:
        return check(code)
    except ArithmeticError as exc:
        return type(exc), str(exc)


def _fresh(code):
    return GroupRingElement(code.spec, tuple(code.coefficients))


# (n, groups of order 2n^2+1): T^(2) = T for a symmetric T in the first
# three, which have exponent 3; not in the others.
_SHARING_GROUPS = [
    (1, GroupSpec((3,))),
    (2, GroupSpec((3, 3))),
    (11, GroupSpec((3,) * 5)),
    (5, GroupSpec((51,))),
    (7, GroupSpec((99,))),
    (7, GroupSpec((3, 33))),
    (11, GroupSpec((9, 27))),
]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_SHARING_GROUPS),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0.05, 0.1, 0.5]),
    st.booleans(),
    st.permutations(["conditions", "spectrum", "cube", "congruences", "pds"]),
)
def test_checks_sharing_one_code_set_match_fresh_copies_and_oracles(
    group, seed, density, symmetric, order
):
    """One code set through the five checks in a drawn order, twice: each
    report equals the check on a fresh copy and the dense oracle, whatever
    the checks before it left on the element, and the element itself still
    compares, hashes, prints and serialises as a fresh copy does."""
    n, spec = group
    rng = random.Random(seed)
    if symmetric:
        code = random_symmetric_set(rng, spec, density)
    else:
        code = GroupRingElement(spec, tuple(int(rng.random() < density) for _ in range(spec.order)))
    checks = _ring_checks(n)
    expected = {name: _outcome(oracle, code) for name, (_, oracle) in checks.items()}
    for _ in range(2):
        for name in order:
            check = checks[name][0]
            assert _outcome(check, code) == _outcome(check, _fresh(code)) == expected[name], name
    fresh = _fresh(code)
    assert code == fresh and hash(code) == hash(fresh)
    assert repr(code) == repr(fresh) and code.as_dict() == fresh.as_dict()


def test_the_golay_checks_make_its_square_and_each_power_once(monkeypatch):
    """On the Golay code set, T^(2) = T^(-1) = T and T^(4) = T, so the four
    checks on T make one square T*T (the tiling condition, the spectrum and
    the cubic congruence read it), T^(3) = 23e once and T*T^(3) once, and
    checking T again makes nothing."""
    from latile import groupring
    from test_analysis import golay_code

    squares, multipliers = [], []
    product, scaled = groupring._product, groupring.scaled_ranks

    def counted_product(spec, a, b):
        squares.append(a == b)
        return product(spec, a, b)

    def counted_scaled(spec, ranks, t):
        multipliers.append(t % 3)
        return scaled(spec, ranks, t)

    monkeypatch.setattr(groupring, "_product", counted_product)
    monkeypatch.setattr(groupring, "scaled_ranks", counted_scaled)
    code = golay_code()
    checks = _ring_checks(11)
    for name in ("conditions", "spectrum", "cube", "congruences"):
        checks[name][0](code)
    assert squares == [True, False]
    assert sorted(multipliers) == [0, 2]
    for name in ("conditions", "spectrum", "cube", "congruences"):
        checks[name][0](code)
    assert squares == [True, False]
    assert sorted(multipliers) == [0, 2]


def test_a_checked_code_set_is_freed_with_its_last_reference():
    """Nothing outside the element holds a checked code set."""
    from test_analysis import golay_code

    code = golay_code()
    for check, _ in _ring_checks(11).values():
        check(code)
    ref = weakref.ref(code)
    del code
    assert ref() is None


def test_a_multiset_is_refused_on_every_call():
    """A failed validation leaves nothing on the element: each check, called
    twice on one multiset, raises the same error each time."""
    code = ring(Z19, *([1, 2] + [0] * 17))
    for _ in range(2):
        for name, (check, _) in _ring_checks(3).items():
            with pytest.raises(ValueError) as exc:
                check(code)
            message = "not a set: coefficient 2 at rank 1 (multiplicities must be 0 or 1)"
            assert str(exc.value) == message, name
    assert code == ring(Z19, *([1, 2] + [0] * 17))


def test_tiling_conditions_hold_for_small_tilings():
    """n = 1 and n = 2 have tilings, so the oracle comparison above also
    meets equation_holds = True away from n = 11."""
    assert check_tiling_conditions(all_ones(GroupSpec((3,))), 1).passed
    z9 = GroupSpec((9,))
    code = GroupRingElement(z9, tuple(int(r in (0, 1, 8, 3, 6)) for r in range(9)))
    assert check_tiling_conditions(code, 2).passed
    assert check_tiling_conditions(code, 2) == dense_check_tiling_conditions(code, 2)


@pytest.mark.parametrize("bad", [11.0, "11"])
def test_tiling_conditions_reject_a_non_integer_dimension(bad):
    from test_analysis import golay_code

    with pytest.raises(ValueError, match=re.escape(f"dimensions must be integers, got {bad!r}")):
        check_tiling_conditions(golay_code(), bad)
