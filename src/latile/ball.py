"""Limited-magnitude error balls B(n, t, k+, k-).

B(n,t,k+,k-) is the set of integer n-vectors with at most t nonzero entries,
each nonzero entry lying in [-k-, k+].  The family of interest here is
B(n,2,1,1), of size 2n^2+1, but the generator is generic.
"""

from dataclasses import dataclass, field
from itertools import combinations, compress, count, product
from math import comb

from .abelian import as_integers


@dataclass(frozen=True)
class ErrorBall:
    """A ball's parameters and its vectors.

    `entries` lists every nonzero entry of the vectors once, as (vector
    index, position, value) in vector order, when the ball is made, so a
    verifier that maps every vector reads them without re-scanning the
    zeros.  A vector that does not have n entries, or has more than t
    nonzero entries, or an entry outside [-k-, k+], raises ValueError.
    """

    n: int
    t: int
    k_plus: int
    k_minus: int
    vectors: tuple[tuple[int, ...], ...]
    entries: tuple[tuple[int, int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for vec in self.vectors:
            if len(vec) != self.n:
                raise ValueError(
                    f"vector {vec!r} of B({self.n},{self.t},{self.k_plus},{self.k_minus})"
                    f" does not have {self.n} entries"
                )
        entries = [
            (i, p, vec[p]) for i, vec in enumerate(self.vectors) for p in compress(count(), vec)
        ]
        # verify_tiling sizes its bit fields from t, k+ and k-, so they must
        # bound the vectors
        values = [v for _, _, v in entries]
        low, high = min(values, default=0), max(values, default=0)
        weight = max((len(vec) - vec.count(0) for vec in self.vectors), default=0)
        if low < -self.k_minus or high > self.k_plus or weight > self.t:
            raise ValueError(f"vectors outside B({self.n},{self.t},{self.k_plus},{self.k_minus})")
        object.__setattr__(self, "entries", tuple(entries))

    def __len__(self) -> int:
        return len(self.vectors)

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "k_plus": self.k_plus,
            "k_minus": self.k_minus,
            "vectors": [list(v) for v in self.vectors],
        }


def _validate(n: int, t: int, k_plus: int, k_minus: int) -> tuple[int, int, int, int]:
    """The parameters as ints, once they are checked to name a ball."""
    n, t, k_plus, k_minus = as_integers((n, t, k_plus, k_minus), "ball parameters")
    if not n >= t >= 0:
        raise ValueError(f"need n >= t >= 0, got n={n}, t={t}")
    if not k_plus >= k_minus >= 0:
        raise ValueError(f"need k_plus >= k_minus >= 0, got {k_plus}, {k_minus}")
    if t >= 1 and k_plus < 1:
        raise ValueError("k_plus must be >= 1 when t >= 1")
    return n, t, k_plus, k_minus


def generate_ball(n: int, t: int, k_plus: int, k_minus: int) -> ErrorBall:
    """Enumerate the ball exactly; vectors come out sorted and distinct."""
    n, t, k_plus, k_minus = _validate(n, t, k_plus, k_minus)
    nonzero_values = [v for v in range(-k_minus, k_plus + 1) if v != 0]
    vectors = []
    for weight in range(t + 1):
        for positions in combinations(range(n), weight):
            for values in product(nonzero_values, repeat=weight):
                vec = [0] * n
                for pos, val in zip(positions, values):
                    vec[pos] = val
                vectors.append(tuple(vec))
    vectors.sort()
    return ErrorBall(n, t, k_plus, k_minus, tuple(vectors))


def ball_size(n: int, t: int, k_plus: int, k_minus: int) -> int:
    """Closed-form count: sum over weights i of C(n,i) * (k+ + k-)^i."""
    n, t, k_plus, k_minus = _validate(n, t, k_plus, k_minus)
    span = k_plus + k_minus
    return sum(comb(n, i) * span**i for i in range(t + 1))
