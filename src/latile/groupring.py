"""Integer group-ring arithmetic over a finite abelian group.

Ring elements are dense integer coefficient vectors indexed by element rank.
Inputs are validated: a GroupRingElement built by a caller has its
coefficients checked, and the scalars, multipliers and moduli passed to the
operations are checked once per call, so a non-integer raises ValueError
naming it.  Results of the ring's own operations are integers by
construction and are not re-validated.
Products work on terms, (position, coefficient) pairs of the support in
the group's padded layout (abelian.padded_layout): each element has a
position whose digits are its residues in radix 2d, so the position of
g + h is fold[pos(g) + pos(h)], one addition and one table lookup per pair
of terms, in cyclic and non-cyclic groups alike.  One loop, _product,
serves multiply and the code-set view below; two term lists equal by value
are a square, which takes each unordered pair once.  The power map reads
the same table: abelian.scaled_ranks reaches t*g by doubling
(fold[pos + pos]) and adding g along the bits of t, and the checkers take
T^(t) as those rank lists.
Python integers are unbounded, so coefficient overflow cannot occur for
any group order or product degree.

Every ring identity checked on a code set (the tiling condition here, the
partial-difference-set identity in construct, the analysis's spectrum and
congruences) follows one rule, kept here, and reads one code-set view of
the element.  as_code_set is the one gate: it validates a 0/1 element once,
lists its support, and keeps on the element a _CodeView: its ascending
support ranks, the rank lists of T^(t), and each product T^(s)*T^(t) a
check makes.  Every check reads the view off the element as_code_set
returns, so a set it has accepted is not validated again.  star of such
a set that holds e gives D = T - e with a view of its own, its ranks T's
less rank 0 and its square D*D = T*T - 2T + e made from T's view, so
check_pds on star(T) makes no second square.  The element is frozen, so
the view cannot go stale, and a code set built again starts with none.
_symmetric tests negation closure on the view, and _residual is the one
place a product is compared with a right-hand side: it copies the
product and subtracts the sparse terms of the right-hand side, so
A*B = c*G + (sparse terms) holds exactly when c is left at every rank (or
c mod 3, for the congruences).

The module also houses the perfect-code condition checker: a candidate code
set T tiles exactly when |T| = 2n+1, T contains the identity, T is closed
under negation, and T*T = 2*G + T^(2) + (2n-2)*e as ring elements, where
T^(t) denotes the image of T under the power map g -> t*g and G is the
all-ones element.  _residual subtracts T^(2) and (2n-2)*e from T*T, and the
equation holds when 2 is left at every rank.
"""

from collections import Counter
# collections.abc generics and X | Y unions, unlike typing's subscriptions,
# are not cached, so an annotation naming a latile class keeps no module copy
# alive after a re-import
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass
from itertools import compress, count

from .abelian import (
    GroupElement,
    GroupMismatchError,
    GroupSpec,
    as_integers,
    decode_rank,
    padded_layout,
    rank_of,
    scaled_ranks,
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


CodeSetLike = GroupRingElement | Sequence[GroupElement]


def _ring(spec: GroupSpec, coefficients) -> GroupRingElement:
    """A ring element from coefficients the ring made itself: a sequence of
    spec.order ints, stored as a tuple without re-checking them."""
    a = object.__new__(GroupRingElement)
    # written into __dict__, which is cheaper than object.__setattr__, as
    # abelian._element does
    fields = a.__dict__
    fields["spec"] = spec
    fields["coefficients"] = tuple(coefficients)
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


def _terms(spec: GroupSpec, ranks: Iterable[int]) -> list[tuple[int, int]]:
    """(position, coefficient) terms in rank order, counting each rank as
    often as it is listed: a code set's support ranks, or its scaled_ranks."""
    positions = padded_layout(spec).positions
    return [(positions[r], c) for r, c in Counter(sorted(ranks)).items()]


def _product(spec: GroupSpec, a: list, b: list) -> list[int]:
    """The product of two term lists as spec.order coefficients by rank:
    each pair of a term of the shorter list and one of the longer adds
    c_a * c_b at fold[pos_a + pos_b].  Lists equal by value (T * T^(2) when
    T^(2) = T, too) are a square: c_i^2 at 2*g_i and 2*c_i*c_j at g_i + g_j
    for each unordered pair i != j, once.  multiply returns it as a ring
    element; the checks compare it with a right-hand side in _residual."""
    _, _, fold = padded_layout(spec)
    out = [0] * spec.order
    if a == b:
        rest = list(a)
        while rest:
            pos_a, ca = rest.pop()
            out[fold[pos_a + pos_a]] += ca * ca
            ca += ca
            for pos_b, cb in rest:
                out[fold[pos_a + pos_b]] += ca * cb
        return out
    if len(a) > len(b):
        a, b = b, a
    for pos_a, ca in a:
        for pos_b, cb in b:
            out[fold[pos_a + pos_b]] += ca * cb
    return out


def multiply(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    """Convolution product: each operand's support is read once, as terms."""
    _require_same_ring(a, b)
    spec = a.spec
    positions = padded_layout(spec).positions
    x, y = a.coefficients, b.coefficients
    terms_a = list(zip(compress(positions, x), compress(x, x)))
    terms_b = terms_a if b is a else list(zip(compress(positions, y), compress(y, y)))
    return _ring(spec, _product(spec, terms_a, terms_b))


def power_map(a: GroupRingElement, t: int) -> GroupRingElement:
    """Push coefficients forward along g -> t*g (t may be any integer).

    The support's ranks are scaled by abelian.scaled_ranks, which doubles
    and adds through the padded layout's fold table.  A t that is not an
    integer, such as a float or a string, raises a ValueError naming it.
    """
    (t,) = as_integers((t,), "multipliers")
    spec = a.spec
    coefficients = a.coefficients
    ranks = list(compress(count(), coefficients))
    out = [0] * spec.order
    for s, c in zip(scaled_ranks(spec, ranks, t), compress(coefficients, coefficients)):
        out[s] += c
    return _ring(spec, out)


def star(a: GroupRingElement) -> GroupRingElement:
    """Zero the identity coefficient, keep the rest.

    Of a code set T that as_code_set has accepted and that holds e, D = T - e
    is a code set too, and it comes with its view: its ranks are T's less
    rank 0, and its square D*D = T*T - 2T + e is made from T's view, which
    makes T*T if no check has yet, so D*D is not squared again.
    """
    d = _ring(a.spec, (0,) + a.coefficients[1:])
    view = a.__dict__.get("_view")
    if view is not None and a.coefficients[0]:
        star_view = _CodeView(d.spec, view.ranks[1:])
        star_view._products[1, 1] = _residual(view, 1, 1, [(2, view.ranks)], -1)
        object.__setattr__(d, "_view", star_view)
    return d


def reduce_mod(a: GroupRingElement, p: int) -> GroupRingElement:
    """Coefficients reduced into [0, p); a non-integer p raises a ValueError
    naming it."""
    (p,) = as_integers((p,), "moduli")
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    return _ring(a.spec, [c % p for c in a.coefficients])


def as_code_set(code: CodeSetLike) -> GroupRingElement:
    """Normalize a code set to a 0/1 ring element that carries its view.

    Accepts either a ring element or a sequence of group elements; rejects
    multiplicities >= 2 and negative coefficients, since a code set is a set.
    An accepted element keeps its _CodeView, which every ring check reads;
    an element that already carries one is returned as it is, and a
    sequence of group elements gets a fresh element each time.
    """
    if isinstance(code, GroupRingElement):
        if "_view" in code.__dict__:
            return code
        normalized = code
    else:
        seq = list(code)
        if not seq:
            raise ValueError("cannot infer the group from an empty element list")
        normalized = from_multiset(seq[0].spec, seq)
    if not set(normalized.coefficients) <= {0, 1}:
        r, c = next((r, c) for r, c in enumerate(normalized.coefficients) if c not in (0, 1))
        raise ValueError(
            f"not a set: coefficient {c} at rank {r} (multiplicities must be 0 or 1)"
        )
    ranks = list(compress(count(), normalized.coefficients))
    object.__setattr__(normalized, "_view", _CodeView(normalized.spec, ranks))
    return normalized


class _CodeView:
    """What the ring checks read of one code set T, made by as_code_set
    once it has validated T, or by star from the view of the set it stars.

    ranks are T's ascending support ranks.  scaled(t) is T^(t) as the rank
    list abelian.scaled_ranks gives, made once per t mod the group's
    exponent.  key(t) names T^(t) in a product: 1 when its sorted ranks
    equal T's, else t mod the exponent, so in a group of exponent 3 T*T,
    T*T^(2) and T^(2)*T are one square.  product(s, t) is T^(s)*T^(t),
    made once and kept; a reader must not change it.
    """

    __slots__ = ("spec", "ranks", "_exponent", "_scaled", "_keys", "_terms", "_products")

    def __init__(self, spec: GroupSpec, ranks: list[int]):
        self.spec = spec
        self.ranks = ranks
        self._exponent = exponent = spec.exponent
        self._scaled = {1 % exponent: ranks}
        self._keys = {1 % exponent: 1}
        self._terms, self._products = {}, {}

    def scaled(self, t: int) -> list[int]:
        t %= self._exponent
        ranks = self._scaled.get(t)
        if ranks is None:
            ranks = self._scaled[t] = scaled_ranks(self.spec, self.ranks, t)
        return ranks

    def key(self, t: int) -> int:
        t %= self._exponent
        key = self._keys.get(t)
        if key is None:
            key = self._keys[t] = 1 if sorted(self.scaled(t)) == self.ranks else t
        return key

    def product(self, s: int, t: int) -> list[int]:
        a, b = sorted((self.key(s), self.key(t)))
        out = self._products.get((a, b))
        if out is None:
            terms = self._key_terms(a)
            other = terms if b == a else self._key_terms(b)
            out = self._products[a, b] = _product(self.spec, terms, other)
        return out

    def _key_terms(self, key: int) -> list[tuple[int, int]]:
        terms = self._terms.get(key)
        if terms is None:
            terms = self._terms[key] = _terms(self.spec, self.scaled(key))
        return terms


def _symmetric(view: _CodeView) -> bool:
    """Whether the code set is closed under negation."""
    return view.key(-1) == 1


def _residual(view: _CodeView, s: int, t: int, terms=(), identity: int = 0) -> list[int]:
    """T^(s)*T^(t) minus a sparse right-hand side, as spec.order
    coefficients by rank: a copy of the view's product, less c at each rank
    of each (c, ranks) term and `identity` at rank 0.  An identity whose
    right-hand side also holds c_G * G holds exactly when every entry is
    c_G."""
    out = list(view.product(s, t))
    for c, ranks in terms:
        for r in ranks:
            out[r] -= c
    out[0] -= identity
    return out


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
    view = as_code_set(code)._view
    spec, ranks = view.spec, view.ranks
    n = _tiling_dimension(spec, n)
    size = len(ranks)
    size_ok = size == 2 * n + 1
    contains_identity = ranks[:1] == [0]
    symmetric = _symmetric(view)
    residual = _residual(view, 1, 1, [(1, view.scaled(2))], 2 * n - 2)
    equation_holds = residual.count(2) == spec.order
    return TilingConditionReport(
        n=n,
        size=size,
        size_ok=size_ok,
        contains_identity=contains_identity,
        symmetric=symmetric,
        equation_holds=equation_holds,
        passed=size_ok and contains_identity and symmetric and equation_holds,
    )
