"""Coefficient spectra of group-ring products and instance-level identities.

Everything here *measures* and *reports*; nothing is assumed.  The same
functions run on valid tilings (where the identities must hold) and on
arbitrary candidates (where they usually fail), which makes the module
useful for debugging the search's fast-rejection logic.

For a code set T over a group of order 2n^2+1, write X_i for the set of
group elements whose coefficient in T * T^(2) equals i.  The checks below
cover the exact counting identities satisfied by the X_i histogram, the
multiplicity of the identity element in T^(3), and two mod-3 congruences
obtained by cubing/squaring the defining product identity.  The congruence
scalars are reduced per n (they depend on n mod 3); hard-coding the scalar
values valid for one residue class would silently break the others.

The sections read groupring's code-set view of T, made by
groupring.as_code_set when it accepts the element and kept on it: T's
support ranks, T^(t) as the rank lists abelian.scaled_ranks gives, and
each product a check makes.  beta is read from the doubled ranks, and the
identity's multiplicity in T^(3) counts the tripled ranks that are 0.
T * T^(2) is made once for the spectrum and the cubic congruence, and it is
the square T * T whenever T^(2) = T (every symmetric T in a group of
exponent 3).  Each congruence takes groupring._residual, the one place a
product is compared with a right-hand side.
"""

from collections import Counter
from dataclasses import asdict, dataclass
from typing import Optional

from .abelian import as_integers
from .groupring import (
    CodeSetLike,
    GroupRingElement,
    _residual,
    _ring,
    _tiling_dimension,
    as_code_set,
)


def coefficient_partition(a: GroupRingElement) -> dict[int, int]:
    """Histogram {coefficient value: number of positions} over all of G."""
    return dict(sorted(Counter(a.coefficients).items()))


def code_beta(code: CodeSetLike) -> int:
    """Half the size of supp(T*) intersect supp(T^(2)*).

    The intersection is closed under negation whenever T is, so an odd
    intersection signals a corrupted input rather than a valid measurement.
    """
    return _beta(as_code_set(code)._view)


def _beta(view) -> int:
    """code_beta of the code set whose view is `view`: supp(T^(2)) is the
    set of its doubled ranks."""
    common = len(set(view.scaled(2)).intersection(view.ranks) - {0})
    if common % 2 != 0:
        raise ArithmeticError(
            f"|supp(T*) ∩ supp(T^(2)*)| = {common} is odd; T is not symmetric"
        )
    return common // 2


@dataclass(frozen=True)
class IdentityCheck:
    left: int
    right: int
    holds: bool


@dataclass(frozen=True)
class SpectrumReport:
    partition: dict[int, int]
    max_coefficient: int
    beta: int
    identity_checks: dict[str, IdentityCheck]

    def as_dict(self) -> dict:
        # String keys, so sort_keys orders them as text ("2", "23", "3").
        return {**asdict(self), "partition": {str(k): v for k, v in self.partition.items()}}

    @property
    def all_hold(self) -> bool:
        return all(check.holds for check in self.identity_checks.values())


def spectrum_identity_checks(code: CodeSetLike, n: int) -> SpectrumReport:
    """Histogram of T * T^(2) plus the three exact counting identities.

    With X_i = positions of coefficient i and beta as in code_beta:
      (1) sum of i * |X_i|            = (2n+1)^2 = 4n^2 + 4n + 1,
      (2) sum of |X_i| over all i     = 2n^2 + 1,
      (3) sum of |X_i| over i >= 1    = 1 - beta + sum_{i>=3} (i-1)(i-2)/2 * |X_i|.
    All three are reported with both sides; nothing is asserted.
    """
    view = as_code_set(code)._view
    n = _tiling_dimension(view.spec, n)
    expected_order = 2 * n * n + 1
    partition = coefficient_partition(_ring(view.spec, view.product(1, 2)))
    beta = _beta(view)
    weighted_total = sum(i * count for i, count in partition.items())
    position_total = sum(partition.values())
    nonzero_total = sum(count for i, count in partition.items() if i >= 1)
    triangular = sum(
        (i - 1) * (i - 2) // 2 * count for i, count in partition.items() if i >= 3
    )
    checks = {
        "weighted_positions": IdentityCheck(
            weighted_total, 4 * n * n + 4 * n + 1, weighted_total == 4 * n * n + 4 * n + 1
        ),
        "total_positions": IdentityCheck(
            position_total, expected_order, position_total == expected_order
        ),
        "nonzero_position_balance": IdentityCheck(
            nonzero_total, 1 - beta + triangular, nonzero_total == 1 - beta + triangular
        ),
    }
    return SpectrumReport(
        partition=partition,
        max_coefficient=max(partition),
        beta=beta,
        identity_checks=checks,
    )


@dataclass(frozen=True)
class CubeMultiplicityReport:
    multiplicity: int
    beta: int
    expected: int
    matches: bool

    def as_dict(self) -> dict:
        return asdict(self)


def cube_multiplicity_check(code: CodeSetLike) -> CubeMultiplicityReport:
    """Multiplicity of the identity in T^(3), compared against 2*beta + 1.

    Equality is guaranteed for valid tilings (the identity contributes 1 and
    each of the beta negation-pairs of order-3 elements contributes 2); for
    arbitrary symmetric T both values are simply reported.
    """
    view = as_code_set(code)._view
    beta = _beta(view)
    multiplicity = view.scaled(3).count(0)
    expected = 2 * beta + 1
    return CubeMultiplicityReport(
        multiplicity=multiplicity,
        beta=beta,
        expected=expected,
        matches=multiplicity == expected,
    )


@dataclass(frozen=True)
class CongruenceCheck:
    scalars: dict[str, int]
    holds: bool
    first_mismatch_rank: Optional[int]


@dataclass(frozen=True)
class CongruenceReport:
    cubic: CongruenceCheck
    quartic: CongruenceCheck

    def as_dict(self) -> dict:
        return asdict(self)

    @property
    def all_hold(self) -> bool:
        return self.cubic.holds and self.quartic.holds


def _first_rank_off_mod3(values: list[int], scalar: int) -> Optional[int]:
    """The first rank r where values[r] - scalar is not 0 mod 3, or None
    (scalar is in 0..2)."""
    return next((r for r, x in enumerate(values) if x % 3 != scalar), None)


def congruence_check(code: CodeSetLike, n: int) -> CongruenceReport:
    """Two mod-3 congruences implied by the defining product identity.

    Multiplying T^2 = 2G + T^(2) + (2n-2)e by T and reducing mod 3 (cubes
    collapse: A^3 = A^(3) mod 3) gives
        T^(2) * T = T^(3) + c_G * G + c_T * T  (mod 3),
    with c_G = -(4n+2) mod 3 and c_T = -(2n-2) mod 3.  Squaring the identity
    instead gives
        T * T^(3) = T^(4) + d_G * G + d_T * T^(2) + d_e * e  (mod 3),
    with d_G = 8n^2+16n+2, d_T = 4n-4, d_e = 4n^2-6n+2, all mod 3.
    Each congruence takes groupring._residual, a copy of its product (the
    cubic's is the spectrum's T * T^(2)) less its sparse right-hand terms,
    then makes one pass over it for the first rank off by the scalar of G.
    """
    view = as_code_set(code)._view
    (n,) = as_integers((n,), "dimensions")

    c_g = (-(4 * n + 2)) % 3
    c_t = (-(2 * n - 2)) % 3
    cubic = _residual(view, 2, 1, [(1, view.scaled(3)), (c_t, view.ranks)])
    cubic_rank = _first_rank_off_mod3(cubic, c_g)

    d_g = (8 * n * n + 16 * n + 2) % 3
    d_t = (4 * n - 4) % 3
    d_e = (4 * n * n - 6 * n + 2) % 3
    quartic = _residual(view, 1, 3, [(1, view.scaled(4)), (d_t, view.scaled(2))], d_e)
    quartic_rank = _first_rank_off_mod3(quartic, d_g)

    return CongruenceReport(
        cubic=CongruenceCheck(
            scalars={"G": c_g, "T": c_t},
            holds=cubic_rank is None,
            first_mismatch_rank=cubic_rank,
        ),
        quartic=CongruenceCheck(
            scalars={"G": d_g, "T2": d_t, "e": d_e},
            holds=quartic_rank is None,
            first_mismatch_rank=quartic_rank,
        ),
    )
