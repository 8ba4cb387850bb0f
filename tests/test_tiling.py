"""Tests for homomorphism application, verification, and kernel lattices."""

import json
import random
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from latile.abelian import (
    GroupElement,
    GroupSpec,
    add,
    elements,
    enumerate_abelian_groups,
    identity,
    rank_of,
    scalar_mul,
)
from latile.ball import generate_ball
from latile.construct import golay11_tiling
from latile.tiling import (
    _CHUNK_BITS,
    TilingHomomorphism,
    _bezout,
    _decoder,
    apply_homomorphism,
    induced_code_set,
    kernel_basis,
    kernel_determinant,
    verify_tiling,
)

from helpers import (
    all_specs_up_to,
    map_documents,
    naive_induced_code_set,
    naive_kernel_basis,
    naive_verify_tiling,
)
from test_search import golay_with_one_image_swapped

Z3 = GroupSpec((3,))
SMALL_SPECS = all_specs_up_to(40)
# the trivial group, the two groups of order 99 (n = 7) and two of order
# 243 (n = 11)
CODE_SET_SPECS = [GroupSpec(f) for f in [(), (3, 33), (99,), (3, 3, 3, 3, 3), (9, 27)]]
# the trivial group, a prime too large for any table, and groups with two,
# three and five coordinates of unequal and equal factors
KERNEL_SPECS = [
    GroupSpec(f)
    for f in [(), (10**9 + 7,), (5, 25, 125), (9, 27), (3, 3, 3, 3, 3), (3, 33)]
]
# the unit vectors of Z_5^5, whose images tile it under B(5, 5, 2, 2)
Z5E5_UNITS = [tuple(int(i == j) for j in range(5)) for i in range(5)]


def drawn_images(data, spec, max_size):
    """Images drawn new, zero, repeated or negated, so that maps with
    collisions and degenerate maps come up."""
    factors = spec.invariant_factors
    residues = st.tuples(*(st.integers(min_value=-2 * d, max_value=2 * d) for d in factors))
    drawn = data.draw(st.lists(residues, min_size=1, max_size=max_size), label="drawn")
    images = []
    for r in drawn:
        kind = data.draw(st.sampled_from(["new", "zero", "repeat", "negation"]))
        if kind == "zero":
            r = (0,) * len(factors)
        elif kind != "new" and images:
            r = data.draw(st.sampled_from(images))
            if kind == "negation":
                r = tuple(-x for x in r)
        images.append(r)
    return images


def hom(spec, image_residues):
    return TilingHomomorphism(
        n=len(image_residues),
        spec=spec,
        images=tuple(GroupElement(spec, r) for r in image_residues),
    )


class TestApply:
    def test_linear_combination_of_images(self):
        phi = hom(GroupSpec((7,)), [(1,), (3,)])
        assert apply_homomorphism(phi, (2, 1)).residues == (5,)
        assert apply_homomorphism(phi, (0, 0)).residues == (0,)
        assert apply_homomorphism(phi, (-1, 0)).residues == (6,)

    def test_dimension_mismatch_rejected(self):
        phi = hom(GroupSpec((7,)), [(1,), (3,)])
        with pytest.raises(ValueError):
            apply_homomorphism(phi, (1, 0, 0))


class TestInducedCodeSet:
    def test_one_dimensional_map_covers_z3(self):
        phi = hom(Z3, [(1,)])
        code = induced_code_set(phi)
        # ball vectors -1, 0, 1 land on 2, 0, 1
        assert code.coefficients == (1, 1, 1)

    def test_golay_map_gives_23_point_code(self):
        code = induced_code_set(golay11_tiling())
        assert sum(code.coefficients) == 23
        assert set(code.coefficients) <= {0, 1}
        assert code.coefficients[0] == 1

    def test_collisions_show_up_as_multiplicity(self):
        phi = hom(GroupSpec((19,)), [(1,), (1,), (4,)])
        code = induced_code_set(phi)
        # repeated image 1 (and its negation) keeps multiplicity 2
        assert sum(code.coefficients) == 7
        assert code.coefficients[1] == 2
        assert code.coefficients[18] == 2
        assert code.coefficients[4] == 1
        assert code.coefficients[0] == 1

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_the_naive_oracle(self, data):
        """Repeated images, zero images and images that are each other's
        negation, so that coefficients above 1 show up."""
        spec = data.draw(st.sampled_from(CODE_SET_SPECS), label="group")
        phi = hom(spec, drawn_images(data, spec, 12))
        assert induced_code_set(phi) == naive_induced_code_set(phi)


class TestVerify:
    def test_golay_tiling_is_bijective(self):
        report = verify_tiling(golay11_tiling(), generate_ball(11, 2, 1, 1))
        assert report.bijective
        assert report.collision_count == 0
        assert report.uncovered == ()
        assert report.reason is None

    def test_degenerate_all_identity_map(self):
        spec = GroupSpec((3, 3, 3, 3, 3))
        phi = hom(spec, [(0, 0, 0, 0, 0)] * 11)
        report = verify_tiling(phi, generate_ball(11, 2, 1, 1))
        assert not report.bijective
        # all 243 vectors collapse onto the identity: 242 excess vectors
        assert report.collision_count == 242
        assert len(report.collisions) == 1
        assert len(report.uncovered) == 242

    def test_group_order_mismatch_reported_not_raised(self):
        phi = hom(GroupSpec((5,)), [(1,), (2,), (3,)])
        report = verify_tiling(phi, generate_ball(3, 2, 1, 1))
        assert not report.bijective
        assert "order" in report.reason

    def test_dimension_mismatch_raises(self):
        phi = hom(GroupSpec((19,)), [(1,), (2,)])
        with pytest.raises(ValueError):
            verify_tiling(phi, generate_ball(3, 2, 1, 1))

    def test_near_miss_in_z19(self):
        # images 1, 2, 3: (1,1,-1) and (0,0,0) both hit 0, etc.
        phi = hom(GroupSpec((19,)), [(1,), (2,), (3,)])
        report = verify_tiling(phi, generate_ball(3, 2, 1, 1))
        assert not report.bijective
        assert report.collision_count >= 1
        u, v, g = report.collisions[0]
        lhs = apply_homomorphism(phi, u)
        rhs = apply_homomorphism(phi, v)
        assert lhs == rhs == g

    def test_report_dict_is_json_safe(self):
        phi = hom(GroupSpec((19,)), [(1,), (2,), (3,)])
        report = verify_tiling(phi, generate_ball(3, 2, 1, 1))
        json.dumps(report.as_dict())

    @pytest.mark.parametrize(
        "phi, ball",
        [
            (golay11_tiling(), (11, 2, 1, 1)),
            (golay_with_one_image_swapped(), (11, 2, 1, 1)),
            (hom(GroupSpec((3, 3, 3, 3, 3)), [(0,) * 5] * 11), (11, 2, 1, 1)),
            (hom(Z3, [(1,)]), (1, 1, 1, 1)),
            (hom(GroupSpec((9,)), [(1,), (3,)]), (2, 2, 1, 1)),
            (hom(GroupSpec((3, 3)), [(1, 0), (0, 1)]), (2, 2, 1, 1)),
            (hom(GroupSpec((4,)), [(1,)]), (1, 1, 2, 1)),
            (hom(GroupSpec((2, 2)), [(1, 1)]), (1, 1, 2, 1)),
            (hom(GroupSpec(()), [(), ()]), (2, 0, 0, 0)),
            (hom(GroupSpec(()), [()]), (1, 1, 1, 0)),
            (hom(GroupSpec((5,)), [(1,), (2,), (3,)]), (3, 2, 1, 1)),
            # images of residue d - 1, so that a coordinate's sum reaches
            # both ends of its bit field, t * max(k+, k-) * (d - 1) either way
            (hom(GroupSpec((121,)), [(120,)] * 2), (2, 2, 5, 5)),
            (hom(GroupSpec((11, 11)), [(10, 10)] * 2), (2, 2, 5, 5)),
            (hom(GroupSpec((43,)), [(42,)] * 3), (3, 1, 7, 7)),
            (hom(GroupSpec((3, 33)), [(2, 32)] * 7), (7, 2, 1, 1)),
            (hom(GroupSpec((99,)), [(98,)] * 7), (7, 2, 1, 1)),
            # a 27-bit field, wider than a chunk, read by % d * w; images
            # 1 and 2 tile, and 73 and 137 divide 10001 = 73 * 137
            (hom(GroupSpec((10001,)), [(1,)]), (1, 1, 5000, 5000)),
            (hom(GroupSpec((10001,)), [(2,)]), (1, 1, 5000, 5000)),
            (hom(GroupSpec((10001,)), [(73,)]), (1, 1, 5000, 5000)),
            (hom(GroupSpec((10001,)), [(137 * 5,)]), (1, 1, 5000, 5000)),
            # fields of 7 and 11 bits, which fill two chunks
            (hom(GroupSpec((3, 27)), [(1, 0), (0, 1)]), (2, 1, 20, 20)),
            (hom(GroupSpec((3, 27)), [(1, 1), (2, 5)]), (2, 1, 20, 20)),
            (hom(GroupSpec((3, 27)), [(2, 26), (2, 26)]), (2, 1, 20, 20)),
            # the trivial group has no field, so no chunk, at the identity's ball
            (hom(GroupSpec(()), [()]), (1, 0, 1, 1)),
            # five 7-bit fields, one chunk table each, so three more passes
            # after the first two tables; the unit vectors tile, and
            # with images[1] = images[0] 2500 elements are left uncovered
            (hom(GroupSpec((5,) * 5), Z5E5_UNITS), (5, 5, 2, 2)),
            (hom(GroupSpec((5,) * 5), [Z5E5_UNITS[0], Z5E5_UNITS[0], *Z5E5_UNITS[2:]]), (5, 5, 2, 2)),
        ],
    )
    def test_known_maps_match_the_naive_oracle(self, phi, ball):
        """Bijections, collisions and an order mismatch, in cyclic,
        non-cyclic and trivial groups, coordinate sums at both ends of the
        verifier's bit fields, a field wider than a chunk, fields that fill
        two chunks and fields that take five."""
        ball = generate_ball(*ball)
        assert verify_tiling(phi, ball) == naive_verify_tiling(phi, ball)

    def test_chunk_tables_are_made_once_per_group_and_reach(self):
        golay, swapped = golay11_tiling(), golay_with_one_image_swapped()
        z3xz27 = hom(GroupSpec((3, 27)), [(1, 1), (2, 5)])
        balls = {11: generate_ball(11, 2, 1, 1), 2: generate_ball(2, 1, 20, 20)}
        _decoder.cache_clear()
        for _ in range(3):
            for phi in (golay, swapped, z3xz27):
                verify_tiling(phi, balls[phi.n])
        info = _decoder.cache_info()
        assert (info.misses, info.hits) == (2, 7)

    def test_no_chunk_table_exceeds_4096_entries(self):
        specs = all_specs_up_to(130) + [
            GroupSpec(f) for f in [(3,) * 5, (3, 3, 3, 9), (10001,), (3, 27), (2,) * 8]
        ]
        for spec in specs:
            for reach in (0, 1, 2, 5, 20, 60, 5000):
                _, _, tables, wide = _decoder(spec, reach)
                assert all(len(table) <= 4096 for _, _, table in tables)
                assert all(len(table) == mask + 1 for _, mask, table in tables)
                assert all(mask.bit_length() > _CHUNK_BITS for _, mask, _, _ in wide)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_report_matches_the_naive_oracle(self, data):
        t = data.draw(st.sampled_from([0, 1, 2, 3]), label="t")
        n = data.draw(st.integers(min_value=max(t, 1), max_value=4), label="n")
        k_plus = data.draw(st.integers(min_value=int(t >= 1), max_value=3), label="k_plus")
        k_minus = data.draw(st.integers(min_value=0, max_value=k_plus), label="k_minus")
        ball = generate_ball(n, t, k_plus, k_minus)
        # mostly groups of the ball's size, so the counting path runs
        if data.draw(st.integers(0, 3), label="matched") > 0:
            specs = enumerate_abelian_groups(len(ball))
        else:
            specs = SMALL_SPECS
        spec = data.draw(st.sampled_from(specs), label="group")
        residues = [st.integers(min_value=-2 * d, max_value=2 * d) for d in spec.invariant_factors]
        images = [tuple(data.draw(r) for r in residues) for _ in range(n)]
        phi = hom(spec, images)
        assert verify_tiling(phi, ball) == naive_verify_tiling(phi, ball)


    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_rejected_golay_variants_match_the_naive_oracle(self, data):
        """Five-coordinate reports at n = 11: the Golay map moved by a random
        automorphism of Z_3^5, with one image replaced, most often leaves
        about 35 elements uncovered."""
        entries = st.integers(min_value=0, max_value=2)
        matrix = data.draw(st.lists(st.lists(entries, min_size=5, max_size=5), min_size=5, max_size=5))
        assume(_invertible_mod3(matrix))
        spec = GroupSpec((3,) * 5)
        images = [
            tuple(sum(a * r for a, r in zip(row, g.residues)) % 3 for row in matrix)
            for g in golay11_tiling().images
        ]
        i = data.draw(st.integers(min_value=0, max_value=10), label="replaced")
        images[i] = data.draw(st.tuples(*[entries] * 5), label="replacement")
        phi = hom(spec, images)
        ball = generate_ball(11, 2, 1, 1)
        assert verify_tiling(phi, ball) == naive_verify_tiling(phi, ball)


def _invertible_mod3(matrix) -> bool:
    """Whether a square matrix over F_3 is invertible, by elimination."""
    rows = [[a % 3 for a in row] for row in matrix]
    size = len(rows)
    for col in range(size):
        j = next((j for j in range(col, size) if rows[j][col]), None)
        if j is None:
            return False
        rows[col], rows[j] = rows[j], rows[col]
        pivot = rows[col]
        for r in rows[col + 1 :]:
            f = r[col] * pivot[col] % 3  # 1 and 2 are their own inverses mod 3
            r[:] = [(a - f * b) % 3 for a, b in zip(r, pivot)]
    return True


class TestDimension:
    @pytest.mark.parametrize(
        "n, message",
        [(3.0, "dimensions must be integers, got 3.0"), ("3", "dimensions must be integers, got '3'")],
    )
    def test_non_integer_dimension_raises_naming_it(self, n, message):
        images = tuple(GroupElement(GroupSpec((19,)), (r,)) for r in (1, 7, 8))
        with pytest.raises(ValueError) as info:
            TilingHomomorphism(n, GroupSpec((19,)), images)
        assert str(info.value) == message

    def test_dimension_is_stored_as_an_int(self):
        phi = TilingHomomorphism(True, Z3, (GroupElement(Z3, (1,)),))
        assert type(phi.n) is int and phi.as_dict()["n"] == 1

    def test_dimension_below_one_rejected(self):
        with pytest.raises(ValueError) as info:
            TilingHomomorphism(0, Z3, ())
        assert str(info.value) == "dimension must be >= 1, got 0"

    def test_image_from_another_group_rejected(self):
        with pytest.raises(ValueError) as info:
            TilingHomomorphism(1, Z3, (GroupElement(GroupSpec((9,)), (1,)),))
        assert str(info.value) == "image element belongs to a different group"


class TestSerialization:
    def test_round_trip(self):
        phi = golay11_tiling()
        again = TilingHomomorphism.from_dict(phi.as_dict())
        assert again == phi

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda d: d.pop("group"),
            lambda d: d.update(n="11"),
            lambda d: d.update(group={"invariant_factors": [3.0] * 5}),
            lambda d: d.update(images=[[0, 0, 0, 0, None]] * 11),
        ],
    )
    def test_malformed_dict_raises_value_error(self, mangle):
        d = golay11_tiling().as_dict()
        mangle(d)
        with pytest.raises(ValueError):
            TilingHomomorphism.from_dict(d)

    @settings(max_examples=300, deadline=None)
    @given(map_documents)
    def test_arbitrary_json_loads_or_raises_value_error(self, document):
        """Never KeyError, TypeError or anything but ValueError with a message."""
        try:
            phi = TilingHomomorphism.from_dict(document)
        except ValueError as exc:
            assert str(exc)
        else:
            assert TilingHomomorphism.from_dict(json.loads(json.dumps(phi.as_dict()))) == phi

    def test_dict_shape(self):
        d = golay11_tiling().as_dict()
        assert d["n"] == 11
        assert d["group"] == {"invariant_factors": [3, 3, 3, 3, 3]}
        assert len(d["images"]) == 11
        assert all(len(col) == 5 for col in d["images"])


def subgroup_size(phi):
    """Order of the image subgroup, by closure from the generators."""
    seen = {identity(phi.spec)}
    frontier = [identity(phi.spec)]
    while frontier:
        g = frontier.pop()
        for img in phi.images:
            h = add(g, img)
            if h not in seen:
                seen.add(h)
                frontier.append(h)
    return len(seen)


def assert_hermite_normal_form(basis):
    """Lower-triangular, positive diagonal, 0 <= entry < pivot below it."""
    n = len(basis)
    for i in range(n):
        assert len(basis[i]) == n
        assert basis[i][i] > 0
        for j in range(i + 1, n):
            assert basis[i][j] == 0
        for j in range(i):
            assert 0 <= basis[i][j] < basis[j][j]


class TestKernel:
    def test_one_dimensional_examples(self):
        assert kernel_basis(hom(Z3, [(1,)])) == [[3]]
        assert kernel_basis(hom(Z3, [(0,)])) == [[1]]

    def test_golay_kernel_has_index_243(self):
        basis = kernel_basis(golay11_tiling())
        assert len(basis) == 11
        assert kernel_determinant(basis) == 243

    def test_basis_vectors_map_to_identity(self):
        phi = golay11_tiling()
        for row in kernel_basis(phi):
            assert apply_homomorphism(phi, row) == identity(phi.spec)

    def test_normal_form_shape(self):
        assert_hermite_normal_form(kernel_basis(golay11_tiling()))

    def test_large_prime_modulus(self):
        # x_1 + 5 x_2 = 0 (mod p): index p, and (p - 5, 1) reduced below p
        p = 10**9 + 7
        assert kernel_basis(hom(GroupSpec((p,)), [(1,), (5,)])) == [[p, 0], [p - 5, 1]]

    def test_identity_map_kernel_is_standard_lattice(self):
        spec = GroupSpec((4,))
        phi = hom(spec, [(0,), (0,), (0,)])
        assert kernel_basis(phi) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_determinant_equals_image_subgroup_order(self, data):
        spec = data.draw(
            st.sampled_from(
                [
                    GroupSpec((6,)),
                    GroupSpec((8,)),
                    GroupSpec((2, 4)),
                    GroupSpec((3, 3)),
                    GroupSpec((12,)),
                    GroupSpec((3, 3, 3, 3, 3)),
                    GroupSpec((3, 33)),
                ]
            )
        )
        n = data.draw(st.integers(min_value=1, max_value=11))
        images = [
            tuple(
                data.draw(st.integers(min_value=0, max_value=d - 1))
                for d in spec.invariant_factors
            )
            for _ in range(n)
        ]
        phi = hom(spec, images)
        basis = kernel_basis(phi)
        # shape, membership and index together pin the unique normal form
        assert_hermite_normal_form(basis)
        assert kernel_determinant(basis) == subgroup_size(phi)
        for row in basis:
            assert apply_homomorphism(phi, row) == identity(spec)

    @given(st.integers(min_value=1, max_value=10**12), st.integers(-(10**12), 10**12))
    def test_bezout_gives_the_positive_gcd(self, p, q):
        h, u, v = _bezout(p, q)
        assert h == gcd(p, q) == u * p + v * q

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_naive_oracle(self, data):
        """n = 1..11 over groups of one to five coordinates, the trivial
        group and a large prime, with zero, repeated and negated images."""
        spec = data.draw(st.sampled_from(KERNEL_SPECS), label="group")
        phi = hom(spec, drawn_images(data, spec, 11))
        assert kernel_basis(phi) == naive_kernel_basis(phi)

    def test_random_sublattice_points_map_to_identity(self):
        rng = random.Random(11)
        phi = golay11_tiling()
        basis = kernel_basis(phi)
        for _ in range(25):
            coeffs = [rng.randint(-4, 4) for _ in range(11)]
            point = [
                sum(c * basis[k][i] for k, c in enumerate(coeffs))
                for i in range(11)
            ]
            assert apply_homomorphism(phi, point) == identity(phi.spec)
