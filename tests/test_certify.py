"""Tests for modular nonexistence certificates and their validator."""

import dataclasses
import time

import pytest

from latile.certify import (
    INCONCLUSIVE,
    INFINITE,
    NONEXISTENCE,
    CertificateRow,
    NonexistenceCertificate,
    admissible_primes,
    build_certificate,
    certificate_parameters,
    certify_nonexistence,
    is_prime,
    multiplicative_order,
    representable,
    validate_certificate,
)


def stepping_order(base, p):
    """Reference: the order of base mod p by stepping through its powers."""
    value = base % p
    order = 1
    while value != 1:
        value = value * base % p
        order += 1
        if order > p:
            raise ArithmeticError(f"{base} is not invertible mod {p}")
    return order


def scanned_parameters(n, p):
    """Reference: (a, b) by the order above and a linear scan for a."""
    b = stepping_order(4, p)
    target = (4 * n + 2) % p
    value = 1
    for k in range(b):
        if value == target:
            return k, b
        value = value * 4 % p
    return INFINITE, b


class TestPrimes:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 19, 163, 761])
    def test_primes_recognized(self, p):
        assert is_prime(p)

    @pytest.mark.parametrize("p", [0, 1, 4, 9, 33, 121, 159049])
    def test_composites_rejected(self, p):
        assert not is_prime(p)

    def test_admissible_prime_examples(self):
        # factor 2n^2+1, keep primes above 2n+1
        assert admissible_primes(3) == [19]
        assert admissible_primes(4) == [11]
        assert admissible_primes(5) == [17]
        assert admissible_primes(9) == [163]

    def test_orders_with_no_large_prime_factor(self):
        # 2*11^2+1 = 243 = 3^5 and 2*7^2+1 = 99 = 9*11 with 11 < 15
        assert admissible_primes(11) == []
        assert admissible_primes(7) == []

    def test_ascending_and_above_threshold(self):
        for n in range(3, 40):
            primes = admissible_primes(n)
            assert primes == sorted(primes)
            for p in primes:
                assert p > 2 * n + 1
                assert (2 * n * n + 1) % p == 0

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            admissible_primes(2)

    def test_multiplicative_order(self):
        assert multiplicative_order(4, 19) == 9
        assert multiplicative_order(4, 11) == 5
        assert multiplicative_order(4, 17) == 4
        assert multiplicative_order(4, 7) == 3

    def test_order_agrees_with_stepping(self):
        for p in filter(is_prime, range(2000)):
            for base in (2, 3, 4, 5, 10):
                if base % p == 0:
                    with pytest.raises(ArithmeticError):
                        multiplicative_order(base, p)
                else:
                    assert multiplicative_order(base, p) == stepping_order(base, p), (base, p)

    def test_order_needs_a_prime_modulus(self):
        with pytest.raises(ValueError):
            multiplicative_order(4, 9)


class TestParameters:
    @pytest.mark.parametrize(
        "n,p,b",
        [(3, 19, 9), (4, 11, 5), (5, 17, 4)],
    )
    def test_power_never_reaches_target(self, n, p, b):
        a, got_b = certificate_parameters(n, p)
        assert a == INFINITE
        assert got_b == b

    def test_finite_a_example(self):
        a, b = certificate_parameters(9, 163)
        assert (a, b) == (63, 81)
        assert pow(4, 63, 163) == (4 * 9 + 2) % 163
        # 4n+2 = 22 = 1 (mod 7): the first baby step is the hit, a = 0
        assert certificate_parameters(5, 7) == (0, 3)

    def test_rejects_nonprime_modulus(self):
        with pytest.raises(ValueError):
            certificate_parameters(3, 9)
        with pytest.raises(ValueError):
            certificate_parameters(3, 2)

    def test_agrees_with_linear_scan(self):
        for n in range(3, 151):
            for p in admissible_primes(n):
                assert certificate_parameters(n, p) == scanned_parameters(n, p), (n, p)

    @pytest.mark.parametrize(
        "n,p,a,b",
        [
            (1893, 7166899, 896357, 1194483),
            (1869, 6986323, 2822869, 3493161),
            (1959, 7675363, INFINITE, 3837681),
        ],
    )
    def test_large_primes(self, n, p, a, b):
        assert certificate_parameters(n, p) == (a, b)
        assert pow(4, b, p) == 1
        if a == INFINITE:
            assert pow(4 * n + 2, b, p) != 1
        else:
            assert pow(4, a, p) == (4 * n + 2) % p
        assert build_certificate(n, p).conclusion == NONEXISTENCE


class TestRepresentable:
    def test_infinite_a_never_representable(self):
        assert representable(INFINITE, 9, 3) == (False, None)

    def test_simple_hit(self):
        ok, witness = representable(1, 1, 1)
        assert ok and witness == (0, 0)

    def test_simple_miss(self):
        assert representable(3, 5, 7) == (False, None)

    def test_a_zero_reduces_to_divisibility(self):
        assert representable(0, 3, 6) == (True, (0, 2))
        assert representable(0, 3, 7) == (False, None)

    def test_target_zero(self):
        assert representable(0, 3, 0) == (True, (0, 0))
        assert representable(1, 3, 0) == (False, None)

    def test_witness_arithmetic(self):
        for a, b, t in [(2, 3, 11), (4, 7, 39), (1, 2, 5)]:
            ok, witness = representable(a, b, t)
            if ok:
                x, y = witness
                assert x >= 0 and y >= 0
                assert a * (x + 1) + b * y == t

    def test_input_validation(self):
        with pytest.raises(ValueError):
            representable(1, 0, 5)
        with pytest.raises(ValueError):
            representable(1, 2, -1)


class TestBuildCertificate:
    def test_n3_certificate_in_full(self):
        cert = build_certificate(3, 19)
        assert cert.order == 19
        assert cert.m == 1
        assert cert.a == INFINITE
        assert cert.b == 9
        assert cert.ell_max == 0
        assert cert.rows == (
            CertificateRow(ell=0, target=3, representable=False, witness=None),
        )
        assert cert.conclusion == NONEXISTENCE
        assert cert.p_exceeds_2n_plus_1

    def test_n5_has_two_rows(self):
        cert = build_certificate(5, 17)
        assert cert.m == 3
        assert cert.ell_max == 1
        assert [row.target for row in cert.rows] == [5, 4]
        assert cert.conclusion == NONEXISTENCE

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            build_certificate(3, 23)

    def test_a_zero_is_an_invariant_error(self):
        # 4n+2 = 22 = 1 (mod 3) gives a = 0; 3 divides 51 but 3 <= 2n+1
        with pytest.raises(ValueError, match="a = 0"):
            build_certificate(5, 3)

    @pytest.mark.parametrize(
        "n,p,a,b",
        [(9, 163, 63, 81), (14, 131, 26, 65), (39, 179, 6, 89)],
    )
    def test_finite_a_nonexistence_cases(self, n, p, a, b):
        cert = build_certificate(n, p)
        assert (cert.a, cert.b) == (a, b)
        assert cert.conclusion == NONEXISTENCE
        assert all(not row.representable for row in cert.rows)

    def test_serialization_encodes_infinite_a(self):
        d = build_certificate(3, 19).as_dict()
        assert d["a"] == "infinite"
        assert d["rows"][0] == {
            "ell": 0,
            "target": 3,
            "representable": False,
            "witness": None,
        }


class TestCertify:
    @pytest.mark.parametrize("n,p", [(3, 19), (4, 11), (5, 17)])
    def test_small_cases_conclude_nonexistence(self, n, p):
        cert = certify_nonexistence(n)
        assert cert is not None
        assert cert.p == p
        assert cert.conclusion == NONEXISTENCE

    def test_no_admissible_prime_returns_none(self):
        assert certify_nonexistence(11) is None
        assert certify_nonexistence(7) is None

    def test_inconclusive_case_exists(self):
        """The criterion is not universally decisive: at n=282 the only
        admissible prime leaves a representable row."""
        cert = certify_nonexistence(282)
        assert cert is not None
        assert cert.p == 761
        assert cert.conclusion == INCONCLUSIVE
        assert any(row.representable for row in cert.rows)
        assert validate_certificate(cert) == []


class TestValidator:
    def test_accepts_every_emitted_certificate(self):
        for n in range(3, 401):
            cert = certify_nonexistence(n)
            if cert is not None:
                assert validate_certificate(cert) == []

    def base(self):
        return build_certificate(3, 19)

    def test_rejects_wrong_b(self):
        cert = dataclasses.replace(self.base(), b=8)
        assert validate_certificate(cert)

    def test_rejects_wrong_a(self):
        cert = dataclasses.replace(self.base(), a=2)
        assert validate_certificate(cert)

    # n = 282, p = 761 has a = 137 and b = 190: each forgery below keeps
    # the rows and the conclusion, so only the walk over 4^k can catch it.
    @pytest.mark.parametrize(
        "forged, message",
        [
            ({"a": 137 + 190}, "a = 327 but the scan over one period gives 137"),
            ({"a": INFINITE}, "a = inf but the scan over one period gives 137"),
            ({"b": 2 * 190}, "b = 380 but the order of 4 mod 761 is 190"),
        ],
        ids=["a-plus-b", "a-infinite", "twice-b"],
    )
    def test_rejects_parameters_only_the_walk_catches(self, forged, message):
        cert = build_certificate(282, 761)
        assert (cert.a, cert.b) == (137, 190)
        assert validate_certificate(dataclasses.replace(cert, **forged)) == [message]

    def test_rejects_flipped_conclusion(self):
        cert = dataclasses.replace(self.base(), conclusion=INCONCLUSIVE)
        assert validate_certificate(cert)

    def test_rejects_flipped_row(self):
        cert = self.base()
        bad_row = dataclasses.replace(cert.rows[0], representable=True, witness=(0, 0))
        cert = dataclasses.replace(cert, rows=(bad_row,))
        assert validate_certificate(cert)

    def test_rejects_bad_witness(self):
        cert = build_certificate(282, 761)
        hit = next(i for i, row in enumerate(cert.rows) if row.representable)
        rows = list(cert.rows)
        x, y = rows[hit].witness
        rows[hit] = dataclasses.replace(rows[hit], witness=(x + 1, y))
        cert = dataclasses.replace(cert, rows=tuple(rows))
        assert validate_certificate(cert)

    def test_rejects_nonprime_p(self):
        cert = dataclasses.replace(self.base(), p=21)
        assert validate_certificate(cert)

    def test_rejects_wrong_cofactor(self):
        cert = dataclasses.replace(self.base(), m=2)
        assert validate_certificate(cert)

    def test_rejects_truncated_rows(self):
        cert = build_certificate(5, 17)
        cert = dataclasses.replace(cert, rows=cert.rows[:1])
        assert validate_certificate(cert)

    def test_rejects_prime_three(self):
        # a = 0 for n = 5, p = 3: the bound p > 2n+1 is what rejects it
        rows = tuple(
            CertificateRow(ell=ell, target=5 - ell, representable=False, witness=None)
            for ell in range(3)
        )
        cert = NonexistenceCertificate(
            n=5, order=51, p=3, m=17, a=0, b=1, ell_max=2, rows=rows,
            conclusion=NONEXISTENCE, p_exceeds_2n_plus_1=True,
        )
        # 4 = 1 (mod 3), so the walk gives b = 1 and meets 4n+2 = 1 at a = 0:
        # with a = 0 every target is a multiple of b, so every row is wrong
        assert validate_certificate(cert) == [
            "p = 3 <= 2n+1 = 11",
            "row ell=0: representable=False, recheck says True",
            "row ell=1: representable=False, recheck says True",
            "row ell=2: representable=False, recheck says True",
        ]


def test_survey_of_applicable_n_up_to_sixty():
    """Every n <= 60 with an admissible prime is settled negatively; the
    rest must be decided by other means."""
    expected_gaps = {7, 11, 12, 16, 22, 26, 29, 35, 41, 46, 51, 56, 57}
    gaps = set()
    for n in range(3, 61):
        cert = certify_nonexistence(n)
        if cert is None:
            gaps.add(n)
        else:
            assert cert.conclusion == NONEXISTENCE, n
    assert gaps == expected_gaps


def test_survey_up_to_two_thousand():
    """The verdicts for n = 3..2000, and the validator on every open one."""
    started = time.perf_counter()
    counts = {NONEXISTENCE: 0, INCONCLUSIVE: 0, "INAPPLICABLE": 0}
    inconclusive = []
    for n in range(3, 2001):
        cert = certify_nonexistence(n)
        if cert is None:
            counts["INAPPLICABLE"] += 1
            continue
        counts[cert.conclusion] += 1
        if cert.conclusion == INCONCLUSIVE:
            inconclusive.append(cert)
    assert counts == {NONEXISTENCE: 1492, INCONCLUSIVE: 11, "INAPPLICABLE": 495}
    assert [cert.n for cert in inconclusive] == [
        282, 312, 434, 442, 517, 684, 714, 1107, 1263, 1418, 1806
    ]
    for cert in inconclusive:
        assert validate_certificate(cert) == [], cert.n
    assert time.perf_counter() - started < 30
