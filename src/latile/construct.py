"""The dimension-11 tiling and partial-difference-set validation.

B(11,2,1,1) has size 243 = 3^5, and every entry of a ball vector lies in
{-1,0,1}, so a homomorphism Z^11 -> Z_3^5 is determined by reducing vectors
mod 3 and multiplying by a 5x11 matrix over F_3.  The restriction of that
map to the ball is a bijection exactly when the matrix is a parity-check
matrix of a perfect ternary code of length 11 with minimum distance 5 --
the [11, 6, 5] ternary Golay code.  Its 243 syndromes are in one-to-one
correspondence with the 243 ball vectors, which is precisely the tiling
condition.

The check matrix is frozen as literal data below.  It is not taken on
faith: derive_check_matrix() rebuilds it from scratch (factor x^11 - 1 over
F_3, take the lexicographically smallest monic quintic divisor as generator
polynomial, slide the reversed check polynomial), the test suite asserts the
two agree, and golay11_tiling() output is accepted only after verify_tiling
has confirmed bijectivity on the actual ball.  scripts/derive_golay_check_matrix.py
prints the derivation for inspection.

check_pds reads groupring's code-set view of D, kept on the element
groupring.as_code_set returns, and compares D*D with its right-hand side
through groupring's ring-identity helpers (_symmetric, _residual), the
same rule the tiling and analysis checks follow.  On D = star(T), where T
is a code set as_code_set has accepted and that holds e, D*D is the one
star made from T*T as T*T - 2T + e, and T*T is the square the tiling
condition reads, so `latile analyze` squares T once and D never.
"""

from dataclasses import asdict, dataclass
from itertools import product

from .abelian import GroupElement, GroupSpec, as_integers
from .groupring import CodeSetLike, OrderMismatchError, _residual, _symmetric, as_code_set
from .tiling import TilingHomomorphism

GOLAY11_CHECK_MATRIX: tuple[tuple[int, ...], ...] = (
    (1, 2, 2, 2, 1, 0, 1, 0, 0, 0, 0),
    (0, 1, 2, 2, 2, 1, 0, 1, 0, 0, 0),
    (0, 0, 1, 2, 2, 2, 1, 0, 1, 0, 0),
    (0, 0, 0, 1, 2, 2, 2, 1, 0, 1, 0),
    (0, 0, 0, 0, 1, 2, 2, 2, 1, 0, 1),
)


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num by den over F_3, coefficients ascending
    and trailing zeros dropped from the remainder.

    Every coefficient must already be in 0..2 and den must be monic (its
    last coefficient 1), so no coefficient is reduced and none inverted.
    """
    quot = [0] * max(1, len(num) - len(den) + 1)
    rem = list(num)
    for shift in range(len(num) - len(den), -1, -1):
        factor = rem[shift + len(den) - 1]
        if factor:
            quot[shift] = factor
            for i, c in enumerate(den):
                rem[shift + i] = (rem[shift + i] - factor * c) % 3
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def golay_generator_polynomials() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(g, h) with g * h = x^11 - 1 over F_3, coefficients ascending.

    g is the lexicographically smallest monic quintic divisor; it generates
    the [11, 6, 5] code, and h is the corresponding check polynomial.
    """
    modulus = [2] + [0] * 10 + [1]  # x^11 - 1 = x^11 + 2 over F_3
    # the walk is lexicographic, so the first divisor it reaches is the least
    for low in product(range(3), repeat=5):
        quot, rem = _poly_divmod(modulus, [*low, 1])
        if not rem:
            return (*low, 1), tuple(quot)


def derive_check_matrix() -> tuple[tuple[int, ...], ...]:
    """Rebuild the frozen check matrix from the generator polynomial."""
    _, h = golay_generator_polynomials()
    reversed_h = tuple(reversed(h))
    rows = []
    for shift in range(11 - len(h) + 1):
        row = (0,) * shift + reversed_h + (0,) * (11 - len(h) - shift)
        rows.append(row)
    return tuple(rows)


def golay11_tiling() -> TilingHomomorphism:
    """The n=11 tiling homomorphism: basis images are the check-matrix columns."""
    spec = GroupSpec((3, 3, 3, 3, 3))
    images = tuple(
        GroupElement(spec, tuple(GOLAY11_CHECK_MATRIX[r][j] for r in range(5)))
        for j in range(11)
    )
    return TilingHomomorphism(11, spec, images)


@dataclass(frozen=True)
class PdsParameters:
    """Partial-difference-set parameters (v, k, lambda, mu)."""

    v: int
    k: int
    lam: int
    mu: int

    def __post_init__(self):
        if self.v < self.k + 1:
            raise ValueError(f"need v >= k+1, got v={self.v}, k={self.k}")

    def as_dict(self) -> dict:
        return {"v": self.v, "k": self.k, "lambda": self.lam, "mu": self.mu}


@dataclass(frozen=True)
class PdsReport:
    identity_excluded: bool
    symmetric: bool
    size: int
    size_ok: bool
    equation_holds: bool
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


def check_pds(code: CodeSetLike, params: PdsParameters) -> PdsReport:
    """Check that D is a (v, k, lambda, mu) partial difference set.

    The defining ring identity for a symmetric D not containing the
    identity is D*D = mu*G + (lambda - mu)*D + (k - mu)*e.
    groupring._residual subtracts (lambda - mu)*D and (k - mu)*e from D*D,
    and the identity holds when mu is left at every rank.
    """
    view = as_code_set(code)._view
    spec, ranks = view.spec, view.ranks
    if spec.order != params.v:
        raise OrderMismatchError(f"group order {spec.order} != v = {params.v}")
    k, lam, mu = as_integers((params.k, params.lam, params.mu), "PDS parameters")
    identity_excluded = ranks[:1] != [0]
    symmetric = _symmetric(view)
    size = len(ranks)
    size_ok = size == k
    residual = _residual(view, 1, 1, [(lam - mu, ranks)], k - mu)
    equation_holds = residual.count(mu) == spec.order
    return PdsReport(
        identity_excluded=identity_excluded,
        symmetric=symmetric,
        size=size,
        size_ok=size_ok,
        equation_holds=equation_holds,
        passed=identity_excluded and symmetric and size_ok and equation_holds,
    )


def tiling_pds_parameters(n: int) -> PdsParameters:
    """The (2n^2+1, 2n, 1, 2) parameters of T* when T tiles Z^n."""
    return PdsParameters(2 * n * n + 1, 2 * n, 1, 2)
