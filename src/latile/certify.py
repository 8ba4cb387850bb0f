"""Modular-arithmetic nonexistence certificates.

For a dimension n, pick a prime p > 2n+1 dividing 2n^2+1 and let b be the
multiplicative order of 4 mod p and a the least k >= 0 with
4^k = 4n+2 (mod p), or INFINITE when no such k exists in one full period.
A necessary condition for a tiling to exist is that some ell in
{0, ..., floor(sqrt((m-1)/2))}, m = (2n^2+1)/p, makes

    a*(x+1) + b*y = n - ell

solvable in nonnegative integers x, y.  If no ell works, nonexistence is
proved and the certificate records the full row table; if some ell works
the certificate is INCONCLUSIVE (it proves nothing either way).  When
2n^2+1 has no admissible prime at all the method is INAPPLICABLE.

The builder finds (a, b) in O(sqrt(p)) steps: b by dividing p-1 by its
prime factors (found by trial division) while 4 to the quotient is still
1 mod p, and a by Shanks' baby-step giant-step with step ceil(sqrt(b)).

a = 0 cannot occur for an admissible prime: it needs p | 4n+1 and
p | 2n^2+1, so p | 18 and p = 3, below 2n+1 >= 7.  build_certificate raises
ValueError if it ever sees a = 0.  Primality is established by
deterministic trial division, never by a probabilistic test.

Certificates are meant to be re-checked from scratch: validate_certificate
shares no code with the builder's parameter search.  It re-derives b and a
by one O(p) walk over the powers of 4, and every other field independently,
and returns a list of discrepancies.
"""

from dataclasses import asdict, dataclass
from math import isqrt
from typing import Optional, Union

from .abelian import factorize

INFINITE = float("inf")

NONEXISTENCE = "NONEXISTENCE"
INCONCLUSIVE = "INCONCLUSIVE"


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    for d in range(3, isqrt(p) + 1, 2):
        if p % d == 0:
            return False
    return True


def admissible_primes(n: int) -> list[int]:
    """Prime divisors p of 2n^2+1 with p > 2n+1, ascending."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    return [p for p in factorize(2 * n * n + 1) if p > 2 * n + 1]


def multiplicative_order(base: int, p: int) -> int:
    """Order of base in the multiplicative group mod the prime p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if base % p == 0:
        raise ArithmeticError(f"{base} is not invertible mod {p}")
    order = p - 1
    for q in factorize(p - 1):
        while order % q == 0 and pow(base, order // q, p) == 1:
            order //= q
    return order


def certificate_parameters(n: int, p: int) -> tuple[Union[int, float], int]:
    """(a, b) for the certificate: b = ord_p(4), a = least k >= 0 with
    4^k = 4n+2 (mod p), else INFINITE."""
    if p == 2:
        raise ValueError("p must not divide 4")
    b = multiplicative_order(4, p)
    target = (4 * n + 2) % p
    # Baby-step giant-step: k = i*s + j with 0 <= j < s.  The giant steps
    # visit i in increasing order, so the first hit is the least k >= 0.
    s = isqrt(b - 1) + 1
    baby: dict[int, int] = {}
    value = 1
    for j in range(s):
        baby.setdefault(value, j)
        value = value * 4 % p
    giant = pow(4, -s, p)
    value = target
    for i in range(-(-b // s)):
        j = baby.get(value)
        if j is not None:
            return i * s + j, b
        value = value * giant % p
    return INFINITE, b


@dataclass(frozen=True)
class CertificateRow:
    ell: int
    target: int
    representable: bool
    witness: Optional[tuple[int, int]]

    def as_dict(self) -> dict:
        witness = list(self.witness) if self.witness is not None else None
        return {**asdict(self), "witness": witness}


@dataclass(frozen=True)
class NonexistenceCertificate:
    n: int
    order: int
    p: int
    m: int
    a: Union[int, float]
    b: int
    ell_max: int
    rows: tuple[CertificateRow, ...]
    conclusion: str
    p_exceeds_2n_plus_1: bool

    def as_dict(self) -> dict:
        return {
            **asdict(self),
            "a": "infinite" if self.a == INFINITE else int(self.a),
            "rows": [row.as_dict() for row in self.rows],
        }


def representable(
    a: Union[int, float], b: int, target: int
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Is a*(x+1) + b*y = target solvable with x, y >= 0?  Witness if so."""
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    if target < 0:
        raise ValueError(f"target must be >= 0, got {target}")
    if a == INFINITE:
        return False, None
    if a == 0:
        if target % b == 0:
            return True, (0, target // b)
        return False, None
    x = 0
    while a * (x + 1) <= target:
        remainder = target - a * (x + 1)
        if remainder % b == 0:
            return True, (x, remainder // b)
        x += 1
    return False, None


def _ell_bound(n: int, m: int) -> int:
    return min(isqrt((m - 1) // 2), n)


def build_certificate(n: int, p: int) -> NonexistenceCertificate:
    """Evaluate the criterion for one admissible prime."""
    order = 2 * n * n + 1
    if order % p != 0:
        raise ValueError(f"{p} does not divide 2*{n}^2+1 = {order}")
    m = order // p
    a, b = certificate_parameters(n, p)
    if a == 0:
        raise ValueError(
            f"a = 0 means {p} divides 4n+1 and 2n^2+1, hence 18: p = {p} is not admissible"
        )
    ell_max = _ell_bound(n, m)
    rows = []
    for ell in range(ell_max + 1):
        target = n - ell
        ok, witness = representable(a, b, target)
        rows.append(CertificateRow(ell=ell, target=target, representable=ok, witness=witness))
    nonexistent = not any(row.representable for row in rows)
    return NonexistenceCertificate(
        n=n,
        order=order,
        p=p,
        m=m,
        a=a,
        b=b,
        ell_max=ell_max,
        rows=tuple(rows),
        conclusion=NONEXISTENCE if nonexistent else INCONCLUSIVE,
        p_exceeds_2n_plus_1=p > 2 * n + 1,
    )


def certify_nonexistence(n: int) -> Optional[NonexistenceCertificate]:
    """Best certificate for n, or None when no admissible prime exists.

    Every admissible prime is tried; one all-unrepresentable table proves
    nonexistence.  If all primes leave some row representable, the first
    prime's certificate is returned with conclusion INCONCLUSIVE.
    """
    primes = admissible_primes(n)
    if not primes:
        return None
    first = None
    for p in primes:
        cert = build_certificate(n, p)
        if cert.conclusion == NONEXISTENCE:
            return cert
        if first is None:
            first = cert
    return first


def validate_certificate(cert: NonexistenceCertificate) -> list[str]:
    """Re-derive every certificate field independently; list discrepancies.

    An empty list means the certificate is sound.  The validator shares no
    state with the builder: primality, b and a (from one walk over the
    powers of 4 mod p), the ell range, and every row's representability are
    recomputed from scratch.
    """
    problems = []
    n = cert.n
    order = 2 * n * n + 1
    if cert.order != order:
        problems.append(f"order {cert.order} != 2*{n}^2+1 = {order}")
    if not is_prime(cert.p):
        problems.append(f"p = {cert.p} is not prime")
        return problems
    if cert.p <= 2 * n + 1:
        problems.append(f"p = {cert.p} <= 2n+1 = {2 * n + 1}")
    if not cert.p_exceeds_2n_plus_1:
        problems.append("certificate does not assert p > 2n+1")
    if order % cert.p != 0:
        problems.append(f"p = {cert.p} does not divide {order}")
        return problems
    if cert.m != order // cert.p:
        problems.append(f"m = {cert.m} != {order}//{cert.p}")
    # One walk over 4^k mod p from k = 0 until the value returns to 1 at
    # k = b.  The powers before that are distinct, so 4n+2 is met at most
    # once, and the k that meets it is a.
    target_residue = (4 * n + 2) % cert.p
    a: Union[int, float] = INFINITE
    b, value = 0, 1
    while True:
        if value == target_residue:
            a = b
        value = value * 4 % cert.p
        b += 1
        if value == 1:
            break
    if cert.b != b:
        problems.append(f"b = {cert.b} but the order of 4 mod {cert.p} is {b}")
    if cert.a != a:
        problems.append(f"a = {cert.a} but the scan over one period gives {a}")
    ell_max = _ell_bound(n, order // cert.p)
    if cert.ell_max != ell_max:
        problems.append(f"ell_max = {cert.ell_max} != {ell_max}")
    if [row.ell for row in cert.rows] != list(range(ell_max + 1)):
        problems.append("rows do not cover ell = 0..ell_max exactly")
    any_representable = False
    for row in cert.rows:
        if row.target != n - row.ell:
            problems.append(f"row ell={row.ell}: target {row.target} != {n - row.ell}")
            continue
        expected = _exhaustive_representable(a, b, row.target)
        if row.representable != expected:
            problems.append(
                f"row ell={row.ell}: representable={row.representable}, recheck says {expected}"
            )
        if row.representable:
            any_representable = True
            if row.witness is None:
                problems.append(f"row ell={row.ell}: representable but no witness")
            else:
                x, y = row.witness
                if x < 0 or y < 0 or a == INFINITE or a * (x + 1) + b * y != row.target:
                    problems.append(f"row ell={row.ell}: witness {row.witness} invalid")
        elif row.witness is not None:
            problems.append(f"row ell={row.ell}: witness given for unrepresentable target")
    expected_conclusion = INCONCLUSIVE if any_representable else NONEXISTENCE
    if cert.conclusion != expected_conclusion:
        problems.append(
            f"conclusion {cert.conclusion} inconsistent with rows ({expected_conclusion})"
        )
    return problems


def _exhaustive_representable(a: Union[int, float], b: int, target: int) -> bool:
    """Independent representability re-check by full enumeration."""
    if a == INFINITE:
        return False
    if a == 0:
        return target % b == 0
    for x in range(target // a + 1):
        value = a * (x + 1)
        if value > target:
            break
        if (target - value) % b == 0:
            return True
    return False
