"""Integer group-ring arithmetic over a finite abelian group.

Ring elements are dense integer coefficient vectors indexed by element rank.
Inputs are validated: a GroupRingElement built by a caller has its
coefficients checked, and the scalars, multipliers and moduli passed to the
operations are checked once per call, so a non-integer raises ValueError
naming it.  Results of the ring's own operations are integers by
construction and are not re-validated.
The product works on ranks one coordinate column at a time: a rank is the
sum over coordinates of residue times weight, so the ranks of g + supp(b)
are the element-wise sum of one shifted column of supp(b) per coordinate of
g, and each shifted column is made once per product for each residue that
occurs.  Python integers are unbounded, so coefficient overflow cannot
occur for any group order or product degree.

The module also houses the perfect-code condition checker: a candidate code
set T tiles exactly when |T| = 2n+1, T contains the identity, T is closed
under negation, and T*T = 2*G + T^(2) + (2n-2)*e as ring elements, where
T^(t) denotes the image of T under the power map g -> t*g and G is the
all-ones element.  The right-hand side is built from the support ranks of T:
2 everywhere, one more on each doubled rank, and 2n-2 more at the identity.
"""

from dataclasses import asdict, dataclass
from typing import Iterable, Sequence, Union

from .abelian import (
    GroupElement,
    GroupMismatchError,
    GroupSpec,
    as_integers,
    decode_rank,
    digit_columns,
    rank_of,
    rank_weights,
    scaled_ranks,
    sum_columns,
)


class OrderMismatchError(ValueError):
    """Group order does not match what the requested check demands."""


@dataclass(frozen=True)
class GroupRingElement:
    spec: GroupSpec
    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = as_integers(self.coefficients, "coefficients")
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) != self.spec.order:
            raise ValueError(
                f"expected {self.spec.order} coefficients, got {len(coeffs)}"
            )

    def as_dict(self) -> dict:
        return {"group": self.spec.as_dict(), "coefficients": list(self.coefficients)}

    @classmethod
    def from_dict(cls, data: dict) -> "GroupRingElement":
        return cls(GroupSpec.from_dict(data["group"]), tuple(data["coefficients"]))


CodeSetLike = Union[GroupRingElement, Sequence[GroupElement]]


def _ring(spec: GroupSpec, coefficients) -> GroupRingElement:
    """A ring element from coefficients the ring made itself: a sequence of
    spec.order ints, stored as a tuple without re-checking them."""
    a = object.__new__(GroupRingElement)
    object.__setattr__(a, "spec", spec)
    object.__setattr__(a, "coefficients", tuple(coefficients))
    return a


def zero(spec: GroupSpec) -> GroupRingElement:
    return _ring(spec, (0,) * spec.order)


def one(spec: GroupSpec) -> GroupRingElement:
    """The ring identity: coefficient 1 at the group identity."""
    return _ring(spec, (1,) + (0,) * (spec.order - 1))


def all_ones(spec: GroupSpec) -> GroupRingElement:
    return _ring(spec, (1,) * spec.order)


def from_multiset(spec: GroupSpec, elements: Iterable[GroupElement]) -> GroupRingElement:
    """Coefficient of g = multiplicity of g in the given elements."""
    coeffs = [0] * spec.order
    for g in elements:
        if g.spec != spec:
            raise GroupMismatchError(
                f"element of {g.spec.describe()} used in ring over {spec.describe()}"
            )
        coeffs[rank_of(g)] += 1
    return _ring(spec, coeffs)


def support(a: GroupRingElement) -> list[GroupElement]:
    """Elements with nonzero coefficient, in rank order."""
    return [
        GroupElement(a.spec, decode_rank(a.spec, r))
        for r, c in enumerate(a.coefficients)
        if c != 0
    ]


def _require_same_ring(a: GroupRingElement, b: GroupRingElement) -> None:
    if a.spec != b.spec:
        raise GroupMismatchError(
            f"ring elements over different groups: {a.spec.describe()} vs {b.spec.describe()}"
        )


def linear_combine(
    c1: int, a: GroupRingElement, c2: int, b: GroupRingElement
) -> GroupRingElement:
    """c1*a + c2*b; a non-integer scalar raises a ValueError naming it."""
    c1, c2 = as_integers((c1, c2), "scalars")
    _require_same_ring(a, b)
    return _ring(a.spec, [c1 * x + c2 * y for x, y in zip(a.coefficients, b.coefficients)])


def multiply(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    """Convolution product, translating the denser operand's support by each
    element of the sparser one's."""
    _require_same_ring(a, b)
    spec = a.spec
    sup_a = [(r, c) for r, c in enumerate(a.coefficients) if c != 0]
    sup_b = [(r, c) for r, c in enumerate(b.coefficients) if c != 0]
    if len(sup_a) > len(sup_b):
        sup_a, sup_b = sup_b, sup_a
    coeffs_b = [c for _, c in sup_b]
    coordinates = list(
        zip(
            spec.invariant_factors,
            rank_weights(spec),
            digit_columns(spec, [r for r, _ in sup_b]),
            [{} for _ in spec.invariant_factors],  # shifted columns by residue
        )
    )
    out = [0] * spec.order
    for r, ca in sup_a:
        columns = []
        for d, w, digits, shifted in coordinates:
            v = r // w % d
            column = shifted.get(v)
            if column is None:
                column = shifted[v] = [(h + v) % d * w for h in digits]
            columns.append(column)
        for s, cb in zip(sum_columns(columns, len(coeffs_b)), coeffs_b):
            out[s] += ca * cb
    return _ring(spec, out)


def power_map(a: GroupRingElement, t: int) -> GroupRingElement:
    """Push coefficients forward along g -> t*g (t may be any integer).

    A t that is not an integer, such as a float or a string, raises a
    ValueError naming it.
    """
    (t,) = as_integers((t,), "multipliers")
    spec = a.spec
    ranks = [r for r, c in enumerate(a.coefficients) if c != 0]
    out = [0] * spec.order
    for s, r in zip(scaled_ranks(spec, ranks, t), ranks):
        out[s] += a.coefficients[r]
    return _ring(spec, out)


def star(a: GroupRingElement) -> GroupRingElement:
    """Zero the identity coefficient, keep the rest."""
    return _ring(a.spec, (0,) + a.coefficients[1:])


def reduce_mod(a: GroupRingElement, p: int) -> GroupRingElement:
    """Coefficients reduced into [0, p); a non-integer p raises a ValueError
    naming it."""
    (p,) = as_integers((p,), "moduli")
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    return _ring(a.spec, [c % p for c in a.coefficients])


def as_code_set(code: CodeSetLike) -> GroupRingElement:
    """Normalize a code set to a 0/1 ring element.

    Accepts either a ring element or a sequence of group elements; rejects
    multiplicities >= 2 and negative coefficients, since a code set is a set.
    """
    if isinstance(code, GroupRingElement):
        normalized = code
    else:
        seq = list(code)
        if not seq:
            raise ValueError("cannot infer the group from an empty element list")
        normalized = from_multiset(seq[0].spec, seq)
    if set(normalized.coefficients) <= {0, 1}:
        return normalized
    for r, c in enumerate(normalized.coefficients):
        if c not in (0, 1):
            raise ValueError(
                f"not a set: coefficient {c} at rank {r} (multiplicities must be 0 or 1)"
            )
    return normalized


@dataclass(frozen=True)
class TilingConditionReport:
    """Outcome of the four perfect-code conditions on a candidate set T."""

    n: int
    size: int
    size_ok: bool
    contains_identity: bool
    symmetric: bool
    equation_holds: bool
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


def _tiling_dimension(spec: GroupSpec, n: int) -> int:
    """n as an integer, once the group order is checked to be 2n^2+1."""
    (n,) = as_integers((n,), "dimensions")
    expected_order = 2 * n * n + 1
    if spec.order != expected_order:
        raise OrderMismatchError(
            f"group order {spec.order} != 2*{n}^2+1 = {expected_order}"
        )
    return n


def check_tiling_conditions(code: CodeSetLike, n: int) -> TilingConditionReport:
    """Check the four conditions equivalent to T tiling Z^n with B(n,2,1,1).

    The group order must be exactly 2n^2+1; a mismatch raises
    OrderMismatchError rather than reporting failure, since the check is
    then meaningless rather than negative.
    """
    t = as_code_set(code)
    spec = t.spec
    n = _tiling_dimension(spec, n)
    ranks = [r for r, c in enumerate(t.coefficients) if c]
    size = len(ranks)
    size_ok = size == 2 * n + 1
    contains_identity = t.coefficients[0] == 1
    symmetric = sorted(scaled_ranks(spec, ranks, -1)) == ranks
    rhs = [2] * spec.order
    for s in scaled_ranks(spec, ranks, 2):
        rhs[s] += 1
    rhs[0] += 2 * n - 2
    equation_holds = multiply(t, t).coefficients == tuple(rhs)
    return TilingConditionReport(
        n=n,
        size=size,
        size_ok=size_ok,
        contains_identity=contains_identity,
        symmetric=symmetric,
        equation_holds=equation_holds,
        passed=size_ok and contains_identity and symmetric and equation_holds,
    )
