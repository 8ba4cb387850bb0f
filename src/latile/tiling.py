"""Homomorphisms Z^n -> G given by basis images, and the tiling verifier.

A candidate tiling is a homomorphism phi determined by the images
a_1, ..., a_n of the standard basis vectors.  The ball B(n,2,1,1) tiles Z^n
by the kernel lattice of phi exactly when phi restricted to the ball is a
bijection onto G, which is what verify_tiling checks by direct counting.
It works for any ErrorBall in one pass over the nonzero entries the ball
lists when it is made: each image's residues are packed into one int, a
bit field per group coordinate, so every vector's image is one sum of
packed ints.  The fields are read back in chunks of at most 12 bits, each
through a table from its bits to its part of the rank, made once per
process for each group and reach, and the ranks are counted.

induced_code_set gives the ring's side of the same question, the code set
T = e + sum_i (a_i + (-a_i)) that groupring.check_tiling_conditions tests.
It is counted from ranks: each image's rank, its negation's rank through
the padded layout's fold table, and the identity.

kernel_basis exports the lattice ker(phi) as an integer row basis in its
Hermite normal form, which is unique, so the output is suitable for
golden-file comparison.  The rows (a_i | e_i) are eliminated one at a time
against pivots over the group columns, which start as (d_j e_j | 0), by
extended-gcd steps, a pivot's multiple taken at its non-zero entries only;
what is left of row i is kernel row i, with support x_0..x_i, and reducing
it against the earlier rows gives the normal form.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

from .abelian import (
    _LAYOUTS_KEPT,
    GroupElement,
    GroupSpec,
    _element,
    as_integers,
    decode_rank,
    encode_residues,
    rank_weights,
    scaled_ranks,
)
from .ball import ErrorBall
from .groupring import GroupRingElement, _ring


@dataclass(frozen=True)
class TilingHomomorphism:
    """phi: Z^n -> G, recorded as the images of the standard basis."""

    n: int
    spec: GroupSpec
    images: tuple[GroupElement, ...]

    def __post_init__(self):
        (n,) = as_integers((self.n,), "dimensions")
        object.__setattr__(self, "n", n)
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if len(images) != self.n:
            raise ValueError(f"expected {self.n} images, got {len(images)}")
        for g in images:
            if g.spec != self.spec:
                raise ValueError("image element belongs to a different group")

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "group": self.spec.as_dict(),
            "images": [list(g.residues) for g in self.images],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TilingHomomorphism":
        """Read the as_dict form; malformed data raises ValueError naming the fault."""
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got {type(data).__name__}")
        missing = [key for key in ("n", "group", "images") if key not in data]
        if missing:
            raise ValueError(f"missing {', '.join(map(repr, missing))}")
        n, group, images = data["n"], data["group"], data["images"]
        if not _is_int(n):
            raise ValueError(f"'n' must be an integer, got {n!r}")
        factors = group.get("invariant_factors") if isinstance(group, dict) else None
        if not _is_int_list(factors):
            raise ValueError(
                f"'group' must hold a list of integer 'invariant_factors', got {group!r}"
            )
        if not isinstance(images, (list, tuple)) or not all(map(_is_int_list, images)):
            raise ValueError("'images' must be a list of integer lists")
        spec = GroupSpec(tuple(factors))
        return cls(n, spec, tuple(GroupElement(spec, tuple(r)) for r in images))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(map(_is_int, value))


def apply_homomorphism(phi: TilingHomomorphism, vector) -> GroupElement:
    """Image of an integer vector: sum of v_i * a_i."""
    if len(vector) != phi.n:
        raise ValueError(f"vector length {len(vector)} != dimension {phi.n}")
    factors = phi.spec.invariant_factors
    acc = [0] * len(factors)
    for v, g in zip(vector, phi.images):
        if v:
            for i, r in enumerate(g.residues):
                acc[i] += v * r
    return GroupElement(phi.spec, tuple(a % d for a, d in zip(acc, factors)))


def induced_code_set(phi: TilingHomomorphism) -> GroupRingElement:
    """The ring element e + sum_i (a_i + (-a_i)).

    It is counted from ranks: the images' ranks, their negations' ranks
    (abelian.scaled_ranks with t = -1, through the fold table), and 1 at
    the identity.  Coefficients exceed 1 when images collide; that is
    reported as-is so the caller can see the defect rather than have it
    silently collapsed.
    """
    spec = phi.spec
    ranks = [encode_residues(spec, g.residues) for g in phi.images]
    coefficients = [0] * spec.order
    coefficients[0] = 1
    for r in ranks + scaled_ranks(spec, ranks, -1):
        coefficients[r] += 1
    return _ring(spec, coefficients)


@dataclass(frozen=True)
class VerificationReport:
    """Exact outcome of mapping every ball vector through phi."""

    bijective: bool
    collisions: tuple = ()
    collision_count: int = 0
    uncovered: tuple = ()
    reason: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "bijective": self.bijective,
            "collisions": [
                [list(u), list(v), list(g.residues)] for u, v, g in self.collisions
            ],
            "collision_count": self.collision_count,
            "uncovered": [list(g.residues) for g in self.uncovered],
            "reason": self.reason,
        }


def size_mismatch_report(order: int, size: int) -> VerificationReport:
    """The report for a ball whose size is not the group order: no bijection."""
    return VerificationReport(bijective=False, reason=f"group order {order} != ball size {size}")


# a chunk table has at most 2 ** _CHUNK_BITS entries
_CHUNK_BITS = 12


class _Decoder(NamedTuple):
    """How verify_tiling packs residues and reads ranks back (see _decoder)."""

    shifts: tuple[int, ...]  # per coordinate: where its bit field starts
    offsets: int  # every field's offset, packed: where each accumulator starts
    tables: tuple[tuple[int, int, tuple[int, ...]], ...]  # (shift, mask, rank part per value)
    wide: tuple[tuple[int, int, int, int], ...]  # (shift, mask, d, weight) per wide field


@lru_cache(maxsize=_LAYOUTS_KEPT)
def _decoder(spec: GroupSpec, reach: int, /) -> _Decoder:
    """verify_tiling's bit fields and chunk tables, made once per process.

    Each coordinate of factor d gets a field wide enough for reach * (d - 1),
    the most its sum can reach, on either side of an offset that is a
    multiple of d, so the field ends in [0, 2 * offset] and borrows from
    no other.  The fields are grouped, from the least significant, into
    chunks of at most _CHUNK_BITS bits, and a chunk's table maps its bits to
    the sum of each field's value mod d times its rank weight.  A field
    wider than a chunk stands alone, with no table, and is read by % d * w.
    """
    shifts, tables, wide = [], [], []
    shift = offsets = 0
    start, table = 0, [0]  # the open chunk

    def close():
        if len(table) > 1:
            tables.append((start, len(table) - 1, tuple(table)))

    for d, w in zip(spec.invariant_factors, rank_weights(spec)):
        offset = -(-reach * (d - 1) // d) * d
        width = (2 * offset).bit_length()
        shifts.append(shift)
        offsets += offset << shift
        if width > _CHUNK_BITS:
            close()
            wide.append((shift, (1 << width) - 1, d, w))
            start, table = shift + width, [0]
        else:
            if (len(table) << width) > 1 << _CHUNK_BITS:
                close()
                start, table = shift, [0]
            table = [v % d * w + t for v in range(1 << width) for t in table]
        shift += width
    close()
    # verify_tiling's first pass reads two tables; a table of one zero reads 0
    tables += [(0, 0, (0,))] * (2 - len(tables))
    return _Decoder(tuple(shifts), offsets, tuple(tables), tuple(wide))


def verify_tiling(phi: TilingHomomorphism, ball: ErrorBall) -> VerificationReport:
    """Check that phi restricted to the ball is a bijection onto G.

    The ball lists its nonzero entries once, as (vector index, position,
    value), when it is made (ErrorBall.entries).  Each image's residues are
    packed into one int, one bit field per group coordinate (see _decoder),
    and a vector's image is accumulated in one pass over the entries.  Its
    rank is read back through the chunk tables: one list pass reads the
    first two chunks, and each further chunk, or field wider than a chunk,
    takes one more pass, so under B(n, 2, 1, 1) every group of order
    2n^2 + 1 with n <= 22, Z_3^5 included, takes one.  No fold table is
    read: this is residue arithmetic of its own, not the group-ring
    product's padded layout, so the two tiling criteria stay independent
    routes.
    Only the first collision witness in ball order is kept (plus the total
    count of excess vectors); the uncovered list is complete, in rank order:
    the ranks no vector reached, found by one set difference, are decoded
    one coordinate at a time, rank // weight % d over all of them per factor.
    """
    if ball.n != phi.n:
        raise ValueError(f"ball dimension {ball.n} != homomorphism dimension {phi.n}")
    spec = phi.spec
    order = spec.order
    vectors = ball.vectors
    if order != len(vectors):
        return size_mismatch_report(order, len(vectors))
    shifts, offsets, tables, wide = _decoder(spec, ball.t * max(ball.k_plus, ball.k_minus))
    packed = [sum(r << s for r, s in zip(g.residues, shifts)) for g in phi.images]
    acc = [offsets] * order
    for i, p, v in ball.entries:
        acc[i] += v * packed[p]
    (s0, m0, t0), (s1, m1, t1), *tables = tables
    ranks = [t0[a >> s0 & m0] + t1[a >> s1 & m1] for a in acc]
    for s, mask, table in tables:
        ranks = [r + table[a >> s & mask] for r, a in zip(ranks, acc)]
    for s, mask, d, w in wide:
        ranks = [r + (a >> s & mask) % d * w for r, a in zip(ranks, acc)]
    covered = set(ranks)
    if len(covered) == order:
        return VerificationReport(bijective=True)
    # order == len(vectors), so a missed rank means some rank is hit twice
    first = {}
    for i, rank in enumerate(ranks):
        if rank in first:
            break
        first[rank] = i
    # every rank below is in range(order), so it decodes with no checks
    witness = (vectors[first[rank]], vectors[i], _element(spec, decode_rank(spec, rank)))
    missing = sorted(covered.symmetric_difference(range(order)))
    columns = [
        [r // w % d for r in missing] for d, w in zip(spec.invariant_factors, rank_weights(spec))
    ]
    return VerificationReport(
        bijective=False,
        collisions=(witness,),
        collision_count=order - len(covered),
        uncovered=tuple([_element(spec, residues) for residues in zip(*columns)]),
        reason="images of ball vectors do not cover G exactly once",
    )


def _bezout(p: int, q: int) -> tuple[int, int, int]:
    """(g, u, v) with u * p + v * q = g = gcd(p, q) > 0."""
    u, v, u1, v1 = 1, 0, 0, 1
    while q:
        m, rest = divmod(p, q)
        p, q, u, v, u1, v1 = q, rest, u1, v1, u - m * u1, v - m * v1
    return (p, u, v) if p > 0 else (-p, -u, -v)


def kernel_basis(phi: TilingHomomorphism) -> list[list[int]]:
    """Integer row basis of ker(phi) = {x in Z^n : sum x_i * a_i = e} in its
    unique Hermite normal form: lower-triangular, positive diagonal, entries
    below the diagonal in [0, pivot).  The absolute determinant equals the
    size of the image subgroup, so it is |G| exactly when phi is surjective.

    The rows (a_i | e_i) are inserted one at a time into an echelon over the
    k group columns.  Column c's pivot starts as (d_c e_c | 0) and keeps a
    positive entry at c that divides d_c.  A row's entry at c is cleared by
    a multiple of the pivot when the pivot's entry divides it, and otherwise
    the two are replaced by their Bezout combination (the new pivot, whose
    entry at c is their gcd h) and the combination that clears c, which
    keeps the row's x_i positive: it starts at 1 and is multiplied by p / h.
    Every step is unimodular and the pivots stay triangular in the group
    columns, so a multiple of a pivot is subtracted at its non-zero entries
    alone, listed whenever the pivot changes, and the row left once they
    are all clear is kernel row i.  Its support is x_0..x_i, so rows are
    only that long; it is reduced against the earlier kernel rows, which
    are kept sparse for that, and so is each new pivot, which keeps the
    entries small.
    """
    factors = phi.spec.invariant_factors
    k = len(factors)
    pivots = [[d * (c == j) for j in range(k)] for c, d in enumerate(factors)]
    # each pivot's non-zero entries, all at column c or right of it
    entries = [[(c, d)] for c, d in enumerate(factors)]
    echelon: list[tuple[int, list[tuple[int, int]]]] = []
    basis = []
    for i, g in enumerate(phi.images):
        row = [*g.residues, *[0] * i, 1]
        for c, pivot in enumerate(pivots):
            q = row[c]
            if not q:
                continue
            p = pivot[c]
            if q % p:
                h, u, v = _bezout(p, q)
                new = _combine(u, pivot, v, row)
                pivots[c] = new = new[:k] + _reduced(new[k:], echelon)
                entries[c] = [(j, a) for j, a in enumerate(new) if a]
                row = _combine(-q // h, pivot, p // h, row)
            else:
                q //= p
                for j, a in entries[c]:
                    row[j] -= q * a
        x = _reduced(row[k:], echelon)
        echelon.append((x[i], [(j, b) for j, b in enumerate(x[:i]) if b]))
        basis.append(x)
    n = phi.n
    return [x + [0] * (n - len(x)) for x in basis]


def _combine(s: int, short: list[int], t: int, long: list[int]) -> list[int]:
    """s * short + t * long, short padded with zeros to long's length."""
    out = [t * b for b in long]
    out[: len(short)] = [s * a + b for a, b in zip(short, out)]
    return out


def _reduced(x: list[int], echelon) -> list[int]:
    """x with each entry x_j, rightmost first, brought into [0, h_j) by
    subtracting a multiple of kernel row j, given as its diagonal h_j and
    its non-zero entries left of it."""
    for j in range(len(echelon) - 1, -1, -1):
        h, tail = echelon[j]
        q = x[j] // h
        if q:
            x[j] -= q * h
            for col, b in tail:
                x[col] -= q * b
    return x


def kernel_determinant(basis: list[list[int]]) -> int:
    """Determinant of a lower-triangular kernel basis."""
    det = 1
    for i, row in enumerate(basis):
        det *= row[i]
    return det
