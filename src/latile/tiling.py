"""Homomorphisms Z^n -> G given by basis images, and the tiling verifier.

A candidate tiling is a homomorphism phi determined by the images
a_1, ..., a_n of the standard basis vectors.  The ball B(n,2,1,1) tiles Z^n
by the kernel lattice of phi exactly when phi restricted to the ball is a
bijection onto G, which is what verify_tiling checks by direct counting.
It works column-wise, for any ErrorBall: the ball's nonzero entries are
listed once, every vector's residues are accumulated one group coordinate
at a time over them, and the ranks they give are counted.

kernel_basis exports the lattice ker(phi) as an integer row basis in its
Hermite normal form, which is unique, so the output is suitable for
golden-file comparison.  It is found by one row elimination: Euclid's
algorithm down the group columns of the rows (a_i | e_i) and (d_j e_j | 0)
leaves a basis of the kernel, and the same step down the x columns, last
to first, makes it triangular.
"""

from dataclasses import dataclass
from typing import Optional

from .abelian import (
    GroupElement,
    GroupSpec,
    element_at,
    identity,
    negate,
    rank_weights,
)
from .ball import ErrorBall
from .groupring import GroupRingElement, from_multiset


@dataclass(frozen=True)
class TilingHomomorphism:
    """phi: Z^n -> G, recorded as the images of the standard basis."""

    n: int
    spec: GroupSpec
    images: tuple[GroupElement, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
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

    Coefficients exceed 1 when images collide; that is reported as-is so the
    caller can see the defect rather than have it silently collapsed.
    """
    members = [identity(phi.spec)]
    for g in phi.images:
        members.append(g)
        members.append(negate(g))
    return from_multiset(phi.spec, members)


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


def verify_tiling(phi: TilingHomomorphism, ball: ErrorBall) -> VerificationReport:
    """Check that phi restricted to the ball is a bijection onto G.

    The ball's nonzero entries are listed once as (vector index, position,
    value).  Image residues are accumulated over those entries one group
    coordinate at a time, and each vector's rank is the sum over coordinates
    of (residue mod d) times the coordinate's rank weight.  Only the first
    collision witness in ball order is kept (plus the total count of excess
    vectors); the uncovered list is complete, in rank order.
    """
    if ball.n != phi.n:
        raise ValueError(f"ball dimension {ball.n} != homomorphism dimension {phi.n}")
    spec = phi.spec
    order = spec.order
    vectors = ball.vectors
    if order != len(vectors):
        return size_mismatch_report(order, len(vectors))
    entries = [(i, p, v) for i, vec in enumerate(vectors) for p, v in enumerate(vec) if v]
    ranks = [0] * order
    for k, (d, w) in enumerate(zip(spec.invariant_factors, rank_weights(spec))):
        column = [g.residues[k] for g in phi.images]
        acc = [0] * order
        for i, p, v in entries:
            acc[i] += v * column[p]
        ranks = [r + a % d * w for r, a in zip(ranks, acc)]
    covered = set(ranks)
    if len(covered) == order:
        return VerificationReport(bijective=True)
    # order == len(vectors), so a missed rank means some rank is hit twice
    first = {}
    for i, rank in enumerate(ranks):
        if rank in first:
            break
        first[rank] = i
    witness = (vectors[first[rank]], vectors[i], element_at(spec, rank))
    return VerificationReport(
        bijective=False,
        collisions=(witness,),
        collision_count=order - len(covered),
        uncovered=tuple(element_at(spec, r) for r in range(order) if r not in covered),
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


def kernel_basis(phi: TilingHomomorphism) -> list[list[int]]:
    """Integer row basis of ker(phi) = {x in Z^n : sum x_i * a_i = e} in its
    unique Hermite normal form: lower-triangular, positive diagonal, entries
    below the diagonal in [0, pivot).  The absolute determinant equals the
    size of the image subgroup, so it is |G| exactly when phi is surjective.

    The rows (a_i | e_i) and (d_j e_j | 0) span {(A x + D y | x)}; clearing
    the k group columns leaves n rows (0 | x) spanning ker(phi), and
    clearing the x columns from last to first makes them triangular.
    """
    n = phi.n
    factors = phi.spec.invariant_factors
    k = len(factors)
    active = [list(g.residues) + [int(i == j) for j in range(n)] for i, g in enumerate(phi.images)]
    active += [[d * (i == j) for j in range(k + n)] for i, d in enumerate(factors)]
    for col in range(k):
        _reduce_column(active, col)
    active = [row[k:] for row in active]
    # every column has a pivot: ker(phi) contains d_k * Z^n, so it has full rank
    basis: list[Optional[list[int]]] = [None] * n
    for col in range(n - 1, -1, -1):
        pivot = _reduce_column(active, col)
        basis[col] = pivot if pivot[col] > 0 else [-x for x in pivot]
    # reduce below-diagonal entries against earlier pivots, rightmost first
    for i in range(n):
        for j in range(i - 1, -1, -1):
            q = basis[i][j] // basis[j][j]
            if q:
                for col in range(j + 1):
                    basis[i][col] -= q * basis[j][col]
    return basis


def kernel_determinant(basis: list[list[int]]) -> int:
    """Determinant of a lower-triangular kernel basis."""
    det = 1
    for i, row in enumerate(basis):
        det *= row[i]
    return det
