"""Tests for finite abelian group arithmetic and enumeration."""

import re
from math import prod

import pytest
from hypothesis import given, strategies as st

from latile.abelian import (
    GroupElement,
    GroupSpec,
    add,
    decode_rank,
    element_at,
    element_order,
    elements,
    encode_residues,
    enumerate_abelian_groups,
    factorize,
    identity,
    negate,
    padded_layout,
    rank_of,
    rank_weights,
    scalar_mul,
    scaled_ranks,
)

from helpers import all_specs_up_to, naive_factorize


def test_factorize_agrees_with_trial_division_by_every_d():
    for m in range(1, 20001):
        assert factorize(m) == naive_factorize(m), m


def partition_count(k: int) -> int:
    # reference: number of partitions of k, for cross-checking enumeration
    table = [1] + [0] * k
    for part in range(1, k + 1):
        for total in range(part, k + 1):
            table[total] += table[total - part]
    return table[k]


class TestEnumeration:
    def test_prime_order_is_single_cyclic_group(self):
        groups = enumerate_abelian_groups(19)
        assert groups == [GroupSpec((19,))]

    def test_squarefree_order_is_cyclic(self):
        assert enumerate_abelian_groups(33) == [GroupSpec((33,))]
        assert enumerate_abelian_groups(30) == [GroupSpec((30,))]

    def test_order_243_has_seven_isomorphism_classes(self):
        groups = enumerate_abelian_groups(243)
        chains = [g.invariant_factors for g in groups]
        assert chains == [
            (3, 3, 3, 3, 3),
            (3, 3, 3, 9),
            (3, 3, 27),
            (3, 9, 9),
            (3, 81),
            (9, 27),
            (243,),
        ]

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("a", range(1, 7))
    def test_prime_power_count_matches_partition_number(self, p, a):
        assert len(enumerate_abelian_groups(p**a)) == partition_count(a)

    def test_order_12(self):
        chains = [g.invariant_factors for g in enumerate_abelian_groups(12)]
        assert chains == [(2, 6), (12,)]

    def test_trivial_group(self):
        groups = enumerate_abelian_groups(1)
        assert len(groups) == 1
        assert groups[0].order == 1

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            enumerate_abelian_groups(0)
        with pytest.raises(ValueError):
            enumerate_abelian_groups(-5)

    @pytest.mark.parametrize("bad", [2.0, 1.5, "9", None])
    def test_rejects_non_integer_order_naming_it(self, bad):
        with pytest.raises(ValueError, match=f"^{re.escape(f'orders must be integers, got {bad!r}')}$"):
            enumerate_abelian_groups(bad)

    def test_every_chain_divides(self):
        for spec in all_specs_up_to(64):
            fs = spec.invariant_factors
            for prev, nxt in zip(fs, fs[1:]):
                assert nxt % prev == 0


class TestSpecValidation:
    def test_order_is_product_of_factors(self):
        spec = GroupSpec((3, 9))
        assert spec.order == 27

    def test_rejects_broken_divisibility_chain(self):
        with pytest.raises(ValueError):
            GroupSpec((2, 3))

    def test_rejects_factor_below_two(self):
        with pytest.raises(ValueError):
            GroupSpec((1, 3))
        with pytest.raises(ValueError):
            GroupSpec((0,))

    @pytest.mark.parametrize("bad", [3.7, 9.0, "9"])
    def test_non_integer_factors_rejected(self, bad):
        with pytest.raises(ValueError, match=f"invariant factors must be integers, got {bad!r}"):
            GroupSpec((3, bad))

    def test_dict_round_trip(self):
        spec = GroupSpec((3, 3, 9))
        assert GroupSpec.from_dict(spec.as_dict()) == spec

    def test_trivial_group_is_described_as_z1(self):
        assert GroupSpec(()).describe() == "Z_1"

    @pytest.mark.parametrize("factors", [(), (19,), (3, 33), (3, 3, 9), (3,) * 5])
    def test_exponent_is_the_largest_element_order(self, factors):
        spec = GroupSpec(factors)
        assert spec.exponent == max(element_order(g) for g in elements(spec))
        assert spec.exponent == (factors[-1] if factors else 1)


class TestArithmetic:
    def test_cyclic_addition_wraps(self):
        spec = GroupSpec((19,))
        g = add(GroupElement(spec, (7,)), GroupElement(spec, (15,)))
        assert g.residues == (3,)

    def test_componentwise_addition(self):
        spec = GroupSpec((3, 9))
        g = add(GroupElement(spec, (2, 8)), GroupElement(spec, (1, 1)))
        assert g.residues == (0, 0)

    def test_scalar_multiple(self):
        spec = GroupSpec((19,))
        assert scalar_mul(2, GroupElement(spec, (10,))).residues == (1,)

    def test_residues_reduced_on_construction(self):
        spec = GroupSpec((3, 9))
        assert GroupElement(spec, (-1, 11)).residues == (2, 2)

    @pytest.mark.parametrize("bad", [1.5, 2.0, "2", None])
    def test_non_integer_residues_rejected(self, bad):
        with pytest.raises(ValueError, match=f"residues must be integers, got {bad!r}"):
            GroupElement(GroupSpec((3, 9)), (1, bad))

    def test_integer_like_residues_become_ints(self):
        g = GroupElement(GroupSpec((3, 9)), (True, 10))
        assert g.residues == (1, 1)
        assert type(g.residues[0]) is int

    def test_mixed_spec_addition_rejected(self):
        a = GroupElement(GroupSpec((4,)), (1,))
        b = GroupElement(GroupSpec((5,)), (1,))
        with pytest.raises(Exception):
            add(a, b)

    def test_element_order_examples(self):
        spec = GroupSpec((3, 9))
        assert element_order(identity(spec)) == 1
        assert element_order(GroupElement(spec, (0, 1))) == 9
        assert element_order(GroupElement(spec, (1, 3))) == 3
        assert element_order(GroupElement(GroupSpec((12,)), (8,))) == 3


class TestRanking:
    def test_identity_has_rank_zero(self):
        for spec in all_specs_up_to(32):
            assert rank_of(identity(spec)) == 0

    def test_most_significant_factor_first(self):
        spec = GroupSpec((3, 9))
        # rank = 1 * 9 + 2
        assert rank_of(GroupElement(spec, (1, 2))) == 11
        assert element_at(spec, 11).residues == (1, 2)

    def test_round_trip_order_243(self):
        spec = GroupSpec((3, 3, 27))
        for r in range(spec.order):
            assert rank_of(element_at(spec, r)) == r

    def test_rank_out_of_range(self):
        spec = GroupSpec((6,))
        with pytest.raises(ValueError):
            element_at(spec, 6)
        with pytest.raises(ValueError):
            element_at(spec, -1)

    @pytest.mark.parametrize("rank", [2.0, "2", None])
    def test_non_integer_rank_rejected(self, rank):
        with pytest.raises(ValueError, match="rank must be an integer"):
            element_at(GroupSpec((6,)), rank)

    def test_unvalidated_elements_equal_validated_ones(self):
        # element_at and elements skip GroupElement's re-validation; what
        # they build must still compare and hash like a checked element
        spec = GroupSpec((3, 3, 27))
        for g in elements(spec):
            checked = GroupElement(spec, g.residues)
            assert g == checked and hash(g) == hash(checked)
            assert element_at(spec, rank_of(g)) == checked

    def test_elements_iterates_in_rank_order(self):
        spec = GroupSpec((2, 4))
        listing = list(elements(spec))
        assert len(listing) == 8
        assert [rank_of(g) for g in listing] == list(range(8))

    def test_raw_codec_helpers_agree_with_element_api(self):
        spec = GroupSpec((3, 9))
        for r in range(spec.order):
            residues = decode_rank(spec, r)
            assert residues == element_at(spec, r).residues
            assert encode_residues(spec, residues) == r

    def test_rank_weights_weigh_the_residues_into_the_rank(self):
        for spec in all_specs_up_to(40) + [GroupSpec((3, 3, 27))]:
            weights = rank_weights(spec)
            assert [
                sum(h * w for h, w in zip(decode_rank(spec, r), weights))
                for r in range(spec.order)
            ] == list(range(spec.order))

    @pytest.mark.parametrize("t", [-1, 0, 1, 2, 3, 4, 244, -10**20])
    def test_scaled_ranks_match_scalar_mul(self, t):
        # t itself, and around each group's exponent e, where scaled_ranks
        # reduces its multiplier
        larger = [GroupSpec(f) for f in [(3, 81), (3, 33), (99,), (3,) * 5, (9, 27)]]
        for spec in all_specs_up_to(40) + larger:
            e = spec.invariant_factors[-1] if spec.invariant_factors else 1
            for s in (t, e - 1, e, e + 1, -e):
                expected = [rank_of(scalar_mul(s, g)) for g in elements(spec)]
                assert scaled_ranks(spec, range(spec.order), s) == expected, (spec, s)
                assert scaled_ranks(spec, [], s) == []

    @pytest.mark.parametrize(
        "specs",
        [
            all_specs_up_to(40),
            [GroupSpec(()), GroupSpec((3, 33)), GroupSpec((3, 3, 3, 3, 3))],
        ],
        ids=["orders-1-to-40", "trivial-Z3xZ33-Z3^5"],
    )
    def test_padded_layout_folds_every_sum_to_its_rank(self, specs):
        # fold[pos[g] + pos[h]] is the rank of g + h for every pair, the
        # strides weight the residues into the positions, and the table
        # holds one entry per padded position, 2d per coordinate
        for spec in specs:
            strides, positions, fold = padded_layout(spec)
            group = list(elements(spec))
            assert len(fold) == prod(2 * d for d in spec.invariant_factors)
            assert list(positions) == [
                sum(v * s for v, s in zip(g.residues, strides)) for g in group
            ]
            for g in group:
                assert [fold[positions[rank_of(g)] + positions[rank_of(h)]] for h in group] == [
                    rank_of(add(g, h)) for h in group
                ]

    def test_padded_layout_is_made_once_per_group(self):
        spec = GroupSpec((3, 33))
        assert padded_layout(spec) is padded_layout(GroupSpec((3, 33)))


SPECS = all_specs_up_to(36)


@st.composite
def group_elements(draw):
    spec = draw(st.sampled_from(SPECS))
    residues = tuple(
        draw(st.integers(min_value=0, max_value=d - 1))
        for d in spec.invariant_factors
    )
    return GroupElement(spec, residues)


@given(group_elements())
def test_element_order_divides_group_order(g):
    assert g.spec.order % element_order(g) == 0


@given(group_elements())
def test_group_order_annihilates(g):
    assert scalar_mul(g.spec.order, g) == identity(g.spec)


@given(group_elements())
def test_negation_is_minus_one_scalar(g):
    assert scalar_mul(-1, g) == negate(g)
    assert add(g, negate(g)) == identity(g.spec)


@given(group_elements())
def test_rank_round_trip(g):
    assert element_at(g.spec, rank_of(g)) == g
