"""Finite abelian groups in invariant-factor form.

A group is presented as Z_{d_1} x ... x Z_{d_k} with d_1 | d_2 | ... | d_k,
so every isomorphism class appears exactly once.  Elements are reduced
residue tuples.  A dense rank <-> element bijection (mixed radix, most
significant factor first) underpins coefficient indexing in the group-ring
layer, so the radix convention here is part of the file-format contract.
A second, padded mixed radix (radix 2d per coordinate, see padded_layout)
lets a sum of two elements be one integer addition and one lookup in its
fold table: the group-ring product, the multiples t*g (scaled_ranks, by
doubling and adding) and the search's bit masks all read it.
"""

import operator
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, compress, cycle, product, zip_longest
from math import gcd, isqrt, lcm, prod
from typing import Iterable, NamedTuple, Sequence


def as_integers(values: Iterable, what: str) -> tuple[int, ...]:
    """The values as a tuple of ints, by operator.index.

    Anything that is not an integer, such as a float or a string, raises a
    ValueError naming it, rather than being truncated or parsed.
    """
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        for value in values:
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{what} must be integers, got {value!r}") from None
        raise


class GroupMismatchError(ValueError):
    """Raised when elements of different groups are combined."""


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group given by its invariant-factor chain."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        factors = as_integers(self.invariant_factors, "invariant factors")
        object.__setattr__(self, "invariant_factors", factors)
        for d in factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} is < 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError(
                    f"invariant factors {factors} do not form a divisibility chain"
                )

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        """The least m >= 1 with m*g = 0 for every g: the last invariant
        factor, or 1 for the trivial group."""
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def describe(self) -> str:
        if not self.invariant_factors:
            return "Z_1"
        return " x ".join(f"Z_{d}" for d in self.invariant_factors)

    def as_dict(self) -> dict:
        return {"invariant_factors": list(self.invariant_factors)}

    @classmethod
    def from_dict(cls, data: dict) -> "GroupSpec":
        return cls(tuple(data["invariant_factors"]))


@dataclass(frozen=True)
class GroupElement:
    """An element of a GroupSpec group; residues are stored reduced."""

    spec: GroupSpec
    residues: tuple[int, ...]

    def __post_init__(self):
        factors = self.spec.invariant_factors
        if len(self.residues) != len(factors):
            raise ValueError(
                f"expected {len(factors)} residues, got {len(self.residues)}"
            )
        residues = as_integers(self.residues, "residues")
        reduced = tuple(r % d for r, d in zip(residues, factors))
        object.__setattr__(self, "residues", reduced)


def identity(spec: GroupSpec) -> GroupElement:
    return GroupElement(spec, (0,) * len(spec.invariant_factors))


def _require_same_spec(g: GroupElement, h: GroupElement) -> None:
    if g.spec != h.spec:
        raise GroupMismatchError(
            f"elements live in different groups: {g.spec.describe()} vs {h.spec.describe()}"
        )


def add(g: GroupElement, h: GroupElement) -> GroupElement:
    """Componentwise sum mod the invariant factors."""
    _require_same_spec(g, h)
    factors = g.spec.invariant_factors
    return GroupElement(
        g.spec,
        tuple((a + b) % d for a, b, d in zip(g.residues, h.residues, factors)),
    )


def negate(g: GroupElement) -> GroupElement:
    factors = g.spec.invariant_factors
    return GroupElement(g.spec, tuple((-a) % d for a, d in zip(g.residues, factors)))


def scalar_mul(t: int, g: GroupElement) -> GroupElement:
    """t-fold sum of g; t may be negative or zero."""
    factors = g.spec.invariant_factors
    return GroupElement(g.spec, tuple((t * a) % d for a, d in zip(g.residues, factors)))


def element_order(g: GroupElement) -> int:
    """Least m >= 1 with m*g = identity."""
    factors = g.spec.invariant_factors
    if not factors:
        return 1
    return lcm(*(d // gcd(d, r) for r, d in zip(g.residues, factors)))


def rank_of(g: GroupElement) -> int:
    """Mixed-radix rank in [0, order), most significant factor first."""
    return encode_residues(g.spec, g.residues)


def _element(spec: GroupSpec, residues: tuple[int, ...]) -> GroupElement:
    """An element from residues already reduced mod the invariant factors,
    such as decode_rank's, stored without GroupElement's re-validation."""
    g = object.__new__(GroupElement)
    # written into __dict__: object.__setattr__ costs more per field
    fields = g.__dict__
    fields["spec"] = spec
    fields["residues"] = residues
    return g


def element_at(spec: GroupSpec, rank: int) -> GroupElement:
    """The element of the given rank.  Only the rank is checked: the
    residues decode_rank makes from a valid rank are already reduced."""
    try:
        rank = operator.index(rank)
    except TypeError:
        raise ValueError(f"rank must be an integer, got {rank!r}") from None
    if not 0 <= rank < spec.order:
        raise ValueError(f"rank {rank} out of range for group of order {spec.order}")
    return _element(spec, decode_rank(spec, rank))


def decode_rank(spec: GroupSpec, rank: int) -> tuple[int, ...]:
    """Raw residue tuple for a rank (no bounds check; hot-loop helper)."""
    residues = []
    for d in reversed(spec.invariant_factors):
        residues.append(rank % d)
        rank //= d
    return tuple(reversed(residues))


def encode_residues(spec: GroupSpec, residues: tuple[int, ...]) -> int:
    rank = 0
    for r, d in zip(residues, spec.invariant_factors):
        rank = rank * d + r
    return rank


def rank_weights(spec: GroupSpec) -> tuple[int, ...]:
    """Each coordinate's weight in the rank: the product of the later factors."""
    weights = []
    weight = spec.order
    for d in spec.invariant_factors:
        weight //= d
        weights.append(weight)
    return tuple(weights)


class PaddedLayout(NamedTuple):
    """A group's padded mixed radix (see padded_layout)."""

    strides: tuple[int, ...]  # per coordinate: the product of the later radices 2d
    positions: tuple[int, ...]  # positions[r]: where the element of rank r sits
    fold: tuple[int, ...]  # fold[p]: the rank of position p's digits reduced mod d


# layouts a process keeps, and tiling's chunk tables too: room for the
# eleven groups of orders 51, 73, 99 and 243 (n = 5, 6, 7, 11) that the map
# checks cycle through
_LAYOUTS_KEPT = 11


@lru_cache(maxsize=_LAYOUTS_KEPT)
def padded_layout(spec: GroupSpec, /) -> PaddedLayout:
    """The group laid out in a padded mixed radix, made once per process.

    A coordinate of factor d gets radix 2d, most significant first, and an
    element sits at the sum of its residues times the coordinate strides.
    The sum of two positions has digits below 2d, so it carries nowhere,
    and the fold table maps each of the prod 2d positions to the rank of
    its digits reduced mod d: fold[positions[g] + positions[h]] is the rank
    of g + h.  The tables grow from the least significant coordinate: a
    coordinate of factor d in front repeats them once per digit, and the
    fold table's digits d..2d-1 repeat its digits 0..d-1.
    """
    strides, positions, fold = (), [0], [0]
    stride = weight = 1
    for d in reversed(spec.invariant_factors):
        strides = (stride, *strides)
        positions = [v * stride + p for v in range(d) for p in positions]
        fold = [v * weight + f for v in range(d) for f in fold] * 2
        stride, weight = 2 * d * stride, d * weight
    return PaddedLayout(strides, tuple(positions), tuple(fold))


def scaled_ranks(spec: GroupSpec, ranks: Sequence[int], t: int) -> list[int]:
    """The rank of t*g for each rank g in `ranks` (t may be any integer).

    t is reduced mod the exponent (the last invariant factor), then its
    bits are walked from the top through the padded layout's fold table:
    a doubling is fold[pos + pos] and adding g is fold[pos + positions[g]],
    so no residue is decoded or encoded.
    """
    t %= spec.exponent
    if not t:
        return [0] * len(ranks)
    _, positions, fold = padded_layout(spec)
    steps = [positions[g] for g in ranks]
    scaled = list(ranks)
    for bit in bin(t)[3:]:
        scaled = [fold[2 * positions[s]] for s in scaled]
        if bit == "1":
            scaled = [fold[positions[s] + step] for s, step in zip(scaled, steps)]
    return scaled


def elements(spec: GroupSpec):
    """Iterate all group elements in rank order."""
    for rank in range(spec.order):
        yield _element(spec, decode_rank(spec, rank))


# Trial division reads one table of primes, sieved on demand by doubling up
# to a fixed cap (a multiple of 8) and continued past it by a wheel, so
# memory stays bounded for any number; nothing is sieved at import.  The
# table is one tuple, replaced whole, so no thread sees an end its arrays
# do not reach: (end, the primes below end, those that are 1 or 3 mod 8).
_TABLE_CAP = 1 << 20
_table = (0, array("I"), array("I"))


def _sieve(end: int) -> tuple[int, array, array]:
    """The table of the primes below end, by a sieve of Eratosthenes."""
    sieve = bytearray([1]) * end
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(end - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, end, i)))
    primes = array("I", compress(range(end), sieve))
    return end, primes, array("I", (q for q in primes if q % 8 in (1, 3)))


def trial_division(m: int, one_or_three_mod_8: bool = False) -> tuple[dict[int, int], int]:
    """The primes that trial division takes out of m >= 1, ascending, with
    their exponents, and the cofactor left, which is 1 or prime.

    The candidates are the table's primes, or with one_or_three_mod_8 only
    those that are 1 or 3 mod 8, after the table is grown (at least doubling
    its end) to cover isqrt(m).  When isqrt(m) reaches the cap they go on
    past it with every odd d, or every d that is 1 or 3 mod 8.  Division
    stops at the first d whose square exceeds what is left.  The cofactor is
    then 1 or prime: every prime factor below d has been divided out, so a
    composite cofactor would be at least d^2.  A composite candidate past
    the cap divides nothing, as its prime factors are smaller candidates,
    already divided out.  With one_or_three_mod_8 this holds only when every
    prime factor of m is 1 or 3 mod 8: then the primes left out divide
    nothing, nor does a composite candidate with a factor 5 or 7 mod 8.
    """
    global _table
    limit = isqrt(m)
    end, primes, primes_1_3_mod_8 = _table
    if end <= limit and end < _TABLE_CAP:
        _table = end, primes, primes_1_3_mod_8 = _sieve(
            min(max(limit + 1, 2 * end, 1 << 10), _TABLE_CAP)
        )
    candidates: Iterable[int] = primes_1_3_mod_8 if one_or_three_mod_8 else primes
    if limit >= _TABLE_CAP:
        steps = (2, 6) if one_or_three_mod_8 else (2,)
        candidates = chain(candidates, accumulate(cycle(steps), initial=_TABLE_CAP + 1))
    factors: dict[int, int] = {}
    for d in candidates:
        if d > limit:
            break
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors[d] = e
            limit = isqrt(m)
    return factors, m


def factorize(m: int) -> dict[int, int]:
    """{prime: exponent} for m >= 1, primes ascending: the primes
    trial_division takes out, and its cofactor when that is above 1."""
    factors, cofactor = trial_division(max(m, 1))
    if cofactor > 1:
        factors[cofactor] = 1
    return factors


def _partitions(k: int, largest: int) -> list[tuple[int, ...]]:
    """The partitions of k into parts of at most `largest`, each as a tuple
    of parts in non-increasing order."""
    if k <= 1:
        return [(1,) * k]
    return [
        (part, *rest)
        for part in range(min(k, largest), 0, -1)
        for rest in _partitions(k - part, part)
    ]


def enumerate_abelian_groups(order: int) -> list[GroupSpec]:
    """One GroupSpec per isomorphism class of abelian groups of the order.

    Each class is one choice of a partition of each prime's exponent, made
    in one loop over the choices: the primes' powers are multiplied
    together part by part, largest parts first, into an invariant-factor
    chain read from its largest factor.
    The result is sorted by factor tuple, so the output order is stable.
    A non-integer order raises a ValueError naming it.
    """
    (order,) = as_integers((order,), "orders")
    if order < 1:
        raise ValueError("order must be a positive integer")
    # per prime, the powers of each partition of its exponent, largest first
    powers_by_prime = [
        [[p**part for part in parts] for parts in _partitions(e, e)]
        for p, e in factorize(order).items()
    ]
    chains = []
    for powers in product(*powers_by_prime):
        chains.append(tuple(map(prod, zip_longest(*powers, fillvalue=1)))[::-1])
    return [GroupSpec(factors) for factors in sorted(chains)]
