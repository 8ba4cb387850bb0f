"""Shared test utilities: reference oracles and input generators."""

from collections import Counter

from hypothesis import strategies as st

from latile.abelian import (
    GroupSpec,
    decode_rank,
    elements,
    encode_residues,
    enumerate_abelian_groups,
    identity,
    negate,
)
from latile.analysis import (
    CongruenceCheck,
    CongruenceReport,
    CubeMultiplicityReport,
    IdentityCheck,
    SpectrumReport,
)
from latile.construct import PdsReport
from latile.groupring import (
    GroupRingElement,
    TilingConditionReport,
    all_ones,
    as_code_set,
    from_multiset,
    linear_combine,
    multiply,
    one,
    power_map,
    reduce_mod,
)
from latile.tiling import VerificationReport, apply_homomorphism


def naive_factorize(m: int) -> dict[int, int]:
    """Reference factorization: trial division by every d >= 2, no prime
    table and no wheel."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        factors[m] = 1
    return factors


def naive_multiply(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    """Reference convolution: the full |G|^2 double loop, no support tricks."""
    spec = a.spec
    factors = spec.invariant_factors
    decoded = [decode_rank(spec, r) for r in range(spec.order)]
    out = [0] * spec.order
    for ta, ca in zip(decoded, a.coefficients):
        for tb, cb in zip(decoded, b.coefficients):
            s = tuple((x + y) % d for x, y, d in zip(ta, tb, factors))
            out[encode_residues(spec, s)] += ca * cb
    return GroupRingElement(spec, tuple(out))


def naive_power_map(a: GroupRingElement, t: int) -> GroupRingElement:
    """Reference power map: decode each rank, scale, encode."""
    spec = a.spec
    factors = spec.invariant_factors
    out = [0] * spec.order
    for r, c in enumerate(a.coefficients):
        image = tuple(t * x % d for x, d in zip(decode_rank(spec, r), factors))
        out[encode_residues(spec, image)] += c
    return GroupRingElement(spec, tuple(out))


def naive_induced_code_set(phi) -> GroupRingElement:
    """Reference code set: the identity, each image and each negated image
    as group elements, counted by from_multiset."""
    members = [identity(phi.spec)]
    for g in phi.images:
        members += [g, negate(g)]
    return from_multiset(phi.spec, members)


def all_specs_up_to(max_order: int) -> list[GroupSpec]:
    specs = []
    for order in range(1, max_order + 1):
        specs.extend(enumerate_abelian_groups(order))
    return specs


def random_ring_element(rng, spec: GroupSpec, low: int = -3, high: int = 3) -> GroupRingElement:
    return GroupRingElement(
        spec, tuple(rng.randint(low, high) for _ in range(spec.order))
    )


def naive_verify_tiling(phi, ball) -> VerificationReport:
    """Reference verifier: apply_homomorphism to each ball vector in turn and
    count the images in a dict."""
    if ball.n != phi.n:
        raise ValueError(f"ball dimension {ball.n} != homomorphism dimension {phi.n}")
    order = phi.spec.order
    if order != len(ball.vectors):
        return VerificationReport(
            bijective=False, reason=f"group order {order} != ball size {len(ball.vectors)}"
        )
    first = {}
    witness = None
    excess = 0
    for vec in ball.vectors:
        g = apply_homomorphism(phi, vec)
        if g not in first:
            first[g] = vec
            continue
        excess += 1
        if witness is None:
            witness = (first[g], vec, g)
    uncovered = tuple(g for g in elements(phi.spec) if g not in first)
    if witness is None and not uncovered:
        return VerificationReport(bijective=True)
    return VerificationReport(
        bijective=False,
        collisions=(witness,) if witness is not None else (),
        collision_count=excess,
        uncovered=uncovered,
        reason="images of ball vectors do not cover G exactly once",
    )


def _reduce_column(active: list[list[int]], col: int) -> list[int]:
    """Euclid down one column: subtract multiples of the row with the least
    non-zero |entry| in col until one row is non-zero there; remove that row
    from active and return it."""
    while True:
        nonzero = [row for row in active if row[col]]
        if len(nonzero) <= 1:
            break
        nonzero.sort(key=lambda row: abs(row[col]))
        base = nonzero[0]
        for row in nonzero[1:]:
            q = row[col] // base[col]
            for j, b in enumerate(base):
                row[j] -= q * b
    pivot = nonzero[0]
    active.remove(pivot)
    return pivot


def naive_kernel_basis(phi) -> list[list[int]]:
    """Reference kernel lattice in Hermite normal form, by one row
    elimination: Euclid down the group columns of all the rows (a_i | e_i)
    and (d_j e_j | 0) at once leaves n rows (0 | x) spanning ker(phi), the
    same step down the x columns, last to first, makes them triangular, and
    the entries below the diagonal are reduced against earlier pivots."""
    n = phi.n
    factors = phi.spec.invariant_factors
    k = len(factors)
    active = [list(g.residues) + [int(i == j) for j in range(n)] for i, g in enumerate(phi.images)]
    active += [[d * (i == j) for j in range(k + n)] for i, d in enumerate(factors)]
    for col in range(k):
        _reduce_column(active, col)
    active = [row[k:] for row in active]
    basis = [None] * n
    for col in range(n - 1, -1, -1):
        pivot = _reduce_column(active, col)
        basis[col] = pivot if pivot[col] > 0 else [-x for x in pivot]
    for i in range(n):
        for j in range(i - 1, -1, -1):
            q = basis[i][j] // basis[j][j]
            if q:
                for col in range(j + 1):
                    basis[i][col] -= q * basis[j][col]
    return basis


def dense_check_tiling_conditions(code, n: int) -> TilingConditionReport:
    """Reference tiling-condition check with the right-hand side built by
    dense linear_combine calls: 2G + T^(2) + (2n-2)e."""
    t = as_code_set(code)
    spec = t.spec
    assert spec.order == 2 * n * n + 1
    size = sum(t.coefficients)
    size_ok = size == 2 * n + 1
    contains_identity = t.coefficients[0] == 1
    symmetric = power_map(t, -1) == t
    rhs = linear_combine(2, all_ones(spec), 1, power_map(t, 2))
    rhs = linear_combine(1, rhs, 2 * n - 2, one(spec))
    equation_holds = multiply(t, t) == rhs
    return TilingConditionReport(
        n=n,
        size=size,
        size_ok=size_ok,
        contains_identity=contains_identity,
        symmetric=symmetric,
        equation_holds=equation_holds,
        passed=size_ok and contains_identity and symmetric and equation_holds,
    )


def dense_check_pds(code, params) -> PdsReport:
    """Reference PDS check with the right-hand side built by dense
    linear_combine calls: mu*G + (lambda - mu)*D + (k - mu)*e."""
    d = as_code_set(code)
    spec = d.spec
    assert spec.order == params.v
    identity_excluded = d.coefficients[0] == 0
    symmetric = power_map(d, -1) == d
    size = sum(d.coefficients)
    size_ok = size == params.k
    rhs = linear_combine(params.mu, all_ones(spec), params.lam - params.mu, d)
    rhs = linear_combine(1, rhs, params.k - params.mu, one(spec))
    equation_holds = multiply(d, d) == rhs
    return PdsReport(
        identity_excluded=identity_excluded,
        symmetric=symmetric,
        size=size,
        size_ok=size_ok,
        equation_holds=equation_holds,
        passed=identity_excluded and symmetric and size_ok and equation_holds,
    )


def _first_rank_differing_mod3(lhs: GroupRingElement, rhs: GroupRingElement):
    left = reduce_mod(lhs, 3).coefficients
    right = reduce_mod(rhs, 3).coefficients
    return next((r for r, (x, y) in enumerate(zip(left, right)) if x != y), None)


def dense_congruence_check(code, n: int) -> CongruenceReport:
    """Reference mod-3 congruences: both sides built as ring elements by dense
    linear_combine calls, reduced mod 3 and compared rank by rank."""
    t = as_code_set(code)
    spec = t.spec
    t2, t3, t4 = (power_map(t, k) for k in (2, 3, 4))
    c_g = (-(4 * n + 2)) % 3
    c_t = (-(2 * n - 2)) % 3
    cubic_rhs = linear_combine(1, t3, c_g, all_ones(spec))
    cubic_rhs = linear_combine(1, cubic_rhs, c_t, t)
    cubic_rank = _first_rank_differing_mod3(multiply(t2, t), cubic_rhs)
    d_g = (8 * n * n + 16 * n + 2) % 3
    d_t = (4 * n - 4) % 3
    d_e = (4 * n * n - 6 * n + 2) % 3
    quartic_rhs = linear_combine(1, t4, d_g, all_ones(spec))
    quartic_rhs = linear_combine(1, quartic_rhs, d_t, t2)
    quartic_rhs = linear_combine(1, quartic_rhs, d_e, one(spec))
    quartic_rank = _first_rank_differing_mod3(multiply(t, t3), quartic_rhs)
    return CongruenceReport(
        cubic=CongruenceCheck({"G": c_g, "T": c_t}, cubic_rank is None, cubic_rank),
        quartic=CongruenceCheck(
            {"G": d_g, "T2": d_t, "e": d_e}, quartic_rank is None, quartic_rank
        ),
    )


def _dense_beta(t: GroupRingElement) -> int:
    """Half the number of non-identity ranks where both T and the naive
    T^(2) have a nonzero coefficient."""
    t2 = naive_power_map(t, 2).coefficients
    common = sum(1 for r in range(1, t.spec.order) if t.coefficients[r] and t2[r])
    if common % 2 != 0:
        raise ArithmeticError(
            f"|supp(T*) ∩ supp(T^(2)*)| = {common} is odd; T is not symmetric"
        )
    return common // 2


def dense_spectrum_identity_checks(code, n: int) -> SpectrumReport:
    """Reference spectrum report: the histogram of naive_multiply(T,
    naive_power_map(T, 2)) over all of G, and the three identities read
    off it."""
    t = as_code_set(code)
    assert t.spec.order == 2 * n * n + 1
    product = naive_multiply(t, naive_power_map(t, 2))
    partition = dict(sorted(Counter(product.coefficients).items()))
    beta = _dense_beta(t)
    sides = {
        "weighted_positions": (
            sum(i * k for i, k in partition.items()),
            (2 * n + 1) ** 2,
        ),
        "total_positions": (sum(partition.values()), 2 * n * n + 1),
        "nonzero_position_balance": (
            sum(k for i, k in partition.items() if i != 0),
            1 - beta + sum((i - 1) * (i - 2) // 2 * k for i, k in partition.items() if i >= 3),
        ),
    }
    return SpectrumReport(
        partition=partition,
        max_coefficient=max(partition),
        beta=beta,
        identity_checks={name: IdentityCheck(x, y, x == y) for name, (x, y) in sides.items()},
    )


def dense_cube_multiplicity_check(code) -> CubeMultiplicityReport:
    """Reference cube report: the identity's coefficient in the naive T^(3)
    against 2 beta + 1."""
    t = as_code_set(code)
    beta = _dense_beta(t)
    multiplicity = naive_power_map(t, 3).coefficients[0]
    return CubeMultiplicityReport(multiplicity, beta, 2 * beta + 1, multiplicity == 2 * beta + 1)


def random_symmetric_set(rng, spec: GroupSpec, density: float = 0.5) -> GroupRingElement:
    """A random 0/1 element closed under negation: each negation orbit
    {g, -g}, the identity included, is taken with probability `density`."""
    factors = spec.invariant_factors
    coeffs = [0] * spec.order
    for r in range(spec.order):
        neg = encode_residues(spec, tuple(-x % d for x, d in zip(decode_rank(spec, r), factors)))
        if r <= neg and rng.random() < density:
            coeffs[r] = coeffs[neg] = 1
    return GroupRingElement(spec, tuple(coeffs))


_json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def _near_maps(draw):
    """A well-formed map document over a group of order at most 33, with at
    most one field replaced by arbitrary JSON."""
    factors = list(draw(st.sampled_from(all_specs_up_to(33))).invariant_factors)
    n = draw(st.integers(min_value=1, max_value=4))
    images = [[draw(st.integers(min_value=-5, max_value=40)) for _ in factors] for _ in range(n)]
    document = {"n": n, "group": {"invariant_factors": factors}, "images": images}
    field = draw(st.sampled_from([None, "n", "group", "images", "factors", "image"]))
    if field in ("n", "group", "images"):
        document[field] = draw(json_values)
    elif field == "factors":
        document["group"]["invariant_factors"] = draw(json_values)
    elif field == "image":
        images[draw(st.integers(min_value=0, max_value=n - 1))] = draw(json_values)
    return document


# Arbitrary JSON, plus documents shaped like a map, so the loader's later
# checks and the verifier are reached as well as its first checks.
map_documents = json_values | _near_maps()
