"""Tests for modular nonexistence certificates and their validator."""

import dataclasses
import importlib.util
import os
import re
import subprocess
import sys
import time
from array import array
from math import isqrt

import pytest

import latile
from latile import abelian, certify
from latile.abelian import factorize
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
    representable,
    validate_certificate,
)

from helpers import naive_factorize


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

    def test_wheel_agrees_with_full_factorization(self):
        # the primes 1 or 3 mod 8 against trial division by every d >= 2
        for n in range(3, 5001):
            reference = [p for p in naive_factorize(2 * n * n + 1) if p > 2 * n + 1]
            assert admissible_primes(n) == reference, n

    def test_admissible_prime_passes_the_validators_primality_test(self):
        # certify_nonexistence builds on the cofactor without re-proving
        # it prime; is_prime is the validator's own check
        for n in range(3, 5001):
            for p in admissible_primes(n):
                assert is_prime(p), (n, p)

    def test_factorize_p_minus_one(self):
        for n in range(3, 5001):
            for p in admissible_primes(n):
                assert factorize(p - 1) == naive_factorize(p - 1), (n, p)

    def test_at_most_one_admissible_prime(self):
        # two primes above 2n+1 would multiply to more than 2n^2+1
        for n in range(3, 5001):
            assert len(admissible_primes(n)) <= 1, n


def empty_table(monkeypatch):
    """Empty the prime table, as in a new process; monkeypatch puts the
    shared one back after the test."""
    monkeypatch.setattr(abelian, "_table", (0, array("I"), array("I")))


def table_results(ns):
    return {
        n: (
            admissible_primes(n),
            factorize(2 * n * n + 1),
            None if (cert := certify_nonexistence(n)) is None else cert.as_dict(),
        )
        for n in ns
    }


class TestPrimeTable:
    NS = [3, 5, 11, 282, 1000, 4999, 20000, 99991, 123456, 700001]

    def test_order_of_requests_does_not_matter(self, monkeypatch):
        empty_table(monkeypatch)
        large_first = table_results(sorted(self.NS, reverse=True))
        grown_to = abelian._table[0]
        empty_table(monkeypatch)
        small_first = table_results(sorted(self.NS))
        assert small_first == large_first
        assert abelian._table[0] == grown_to
        for n, (primes, factors, _) in small_first.items():
            assert factors == naive_factorize(2 * n * n + 1), n
            assert primes == [p for p in factors if p > 2 * n + 1], n

    def test_table_covers_the_square_root(self, monkeypatch):
        # 1031 is prime and past the first sieve's end of 1024
        empty_table(monkeypatch)
        assert factorize(1031**2) == {1031: 2}
        assert abelian._table[0] > 1031

    def test_past_the_cap(self, monkeypatch):
        # a cap of 64 (a multiple of 8) sends most candidates to the wheels
        empty_table(monkeypatch)
        monkeypatch.setattr(abelian, "_TABLE_CAP", 64)
        for m in list(range(1, 5001)) + [2**31 - 1, 1000003 * 999983, 3**20 * 1009**2]:
            assert factorize(m) == naive_factorize(m), m
        for n in range(3, 1001):
            reference = [p for p in naive_factorize(2 * n * n + 1) if p > 2 * n + 1]
            assert admissible_primes(n) == reference, n
        end, primes, _ = abelian._table
        assert end == 64
        assert primes[-1] == 61

    def test_capped_table_for_a_prime_order(self, monkeypatch):
        # 2n^2+1 is prime: admissible_primes divides up to its square root,
        # about 1.4 * 10^7, past the cap of 2^20
        empty_table(monkeypatch)
        n = 10000014
        assert admissible_primes(n) == [2 * n * n + 1]
        end, primes, primes_1_3_mod_8 = abelian._table
        assert end == abelian._TABLE_CAP == 1 << 20
        assert len(primes) == 82025
        assert list(primes_1_3_mod_8) == [q for q in primes if q % 8 in (1, 3)]

    def test_import_sieves_nothing(self):
        src = os.path.dirname(os.path.dirname(latile.__file__))
        probe = (
            "import latile, latile.cli, latile.certify, latile.search\n"
            "from latile import abelian\n"
            "end, primes, primes_1_3_mod_8 = abelian._table\n"
            "print(end, len(primes), len(primes_1_3_mod_8))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.stdout.split() == ["0", "0", "0"]


class TestParameters:
    @pytest.mark.parametrize(
        "n,p,b",
        [(3, 19, 9), (4, 11, 5), (5, 17, 4), (4, 3, 1), (1959, 7675363, 3837681)],
    )
    def test_power_never_reaches_target(self, n, p, b):
        # 4n+2 lies in <4>, the only subgroup of order b, iff
        # (4n+2)^b = 1 (mod p); for n = 4, p = 3 the target 18 is 0 mod p
        a, got_b = certificate_parameters(n, p)
        assert a == INFINITE
        assert got_b == b
        assert pow(4 * n + 2, b, p) != 1

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
        for n in range(3, 401):
            for p in admissible_primes(n):
                assert certificate_parameters(n, p) == scanned_parameters(n, p), (n, p)

    def test_b_a_prime_power(self):
        # b = 81 = 3^4: Pohlig-Hellman reads a mod 81 as four base-3 digits
        assert naive_factorize(163 - 1) == {2: 1, 3: 4}
        assert certificate_parameters(9, 163) == (63, 3**4) == scanned_parameters(9, 163)

    @pytest.mark.parametrize(
        "n,p,a,b,q",
        [
            (38, 107, 33, 53, 53),
            (165, 3203, 306, 1601, 1601),
            (174, 3187, 1469, 3**3 * 59, 59),
        ],
    )
    def test_digit_past_the_first_giant_step(self, n, p, a, b, q):
        # a mod q is at least the step ceil(sqrt(q)), so the baby steps
        # alone miss it and the giant steps must reach it
        assert a % q >= isqrt(q - 1) + 1
        assert certificate_parameters(n, p) == (a, b) == scanned_parameters(n, p)

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
        with pytest.raises(ValueError, match=r"^b must be >= 1, got 0$"):
            representable(1, 0, 5)
        with pytest.raises(ValueError, match=r"^target must be >= 0, got -1$"):
            representable(1, 2, -1)

    def test_negative_a_refused(self):
        """A negative a would make a*(x+1) <= target hold for every x, so
        the search for x would never end."""
        with pytest.raises(ValueError, match=r"^a must be >= 0, got -2$"):
            representable(-2, 2, 5)

    @pytest.mark.parametrize(
        "args, bad",
        [((2, 3, 7.0), "7.0"), ((2.0, 3, 7), "2.0"), ((2, 3.5, 7), "3.5"), (("2", 3, 7), "'2'")],
    )
    def test_non_integers_refused(self, args, bad):
        with pytest.raises(ValueError, match=rf"^a, b and target must be integers, got {bad}$"):
            representable(*args)

    def test_infinite_a_with_other_values_checked(self):
        assert representable(INFINITE, 9, 3) == (False, None)
        with pytest.raises(ValueError, match=r"^a, b and target must be integers, got 3.0$"):
            representable(INFINITE, 9, 3.0)

    def test_builder_calls_the_unchecked_body(self, monkeypatch):
        """build_certificate's rows come from _parameters, whose a, b and
        targets are in range, so its per-row call skips the checks."""
        def refuse(*args):
            raise AssertionError("the builder checked a row's arguments")

        monkeypatch.setattr(certify, "representable", refuse)
        assert build_certificate(3, 19).conclusion == NONEXISTENCE


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

    @pytest.mark.parametrize("p", [0, 1])
    def test_rejects_p_below_two(self, p):
        with pytest.raises(ValueError, match=f"{p} is not prime"):
            build_certificate(5, p)

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

    @pytest.mark.parametrize("n", [3, 14, 282, 1000])
    def test_built_without_init_equals_built_through_it(self, n):
        """_build sets fields in __dict__; the certificate and each row
        equal, hash like and hold the same fields as those __init__ makes."""
        cert = certify_nonexistence(n)
        for built in (cert, *cert.rows):
            remade = dataclasses.replace(built)
            assert remade == built and hash(remade) == hash(built)
            assert vars(remade) == vars(built)
            assert list(vars(built)) == [f.name for f in dataclasses.fields(built)]
        assert dataclasses.replace(cert, rows=tuple(map(dataclasses.replace, cert.rows))) == cert

    def test_serialization_encodes_infinite_a(self):
        d = build_certificate(3, 19).as_dict()
        assert d["a"] == "infinite"
        assert d["rows"][0] == {
            "ell": 0,
            "target": 3,
            "representable": False,
            "witness": None,
        }


@pytest.mark.parametrize(
    "function, args",
    [
        (admissible_primes, (5.0,)),
        (admissible_primes, (3.5,)),
        (certify_nonexistence, (5.0,)),
        (certificate_parameters, (5, 17.0)),
        (build_certificate, (5, 17.0)),
        (build_certificate, (5.0, 17)),
    ],
    ids=lambda value: getattr(value, "__name__", repr(value)),
)
def test_non_integer_arguments_rejected(function, args):
    with pytest.raises(ValueError, match="must be integers"):
        function(*args)


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

    @pytest.mark.parametrize(
        "witness, problem",
        [
            (None, "representable but no witness"),
            ((1,), "witness (1,) invalid"),
            ((1, 2, 3), "witness (1, 2, 3) invalid"),
            ("ab", "witness 'ab' invalid"),
            ((1.0, 0.0), "witness (1.0, 0.0) invalid"),
            ((True, 0), "witness (True, 0) invalid"),
        ],
        ids=["none", "one-int", "three-ints", "str", "floats", "bool"],
    )
    def test_rejects_missing_or_malformed_witness(self, witness, problem):
        # a witness must be a pair of ints, not bools, that solves the row;
        # (1.0, 0.0) and (True, 0) solve it as numbers, the others cannot
        cert = build_certificate(282, 761)
        hit = next(i for i, row in enumerate(cert.rows) if row.representable)
        rows = list(cert.rows)
        assert rows[hit].witness == (1, 0)
        rows[hit] = dataclasses.replace(rows[hit], witness=witness)
        cert = dataclasses.replace(cert, rows=tuple(rows))
        assert validate_certificate(cert) == [f"row ell={rows[hit].ell}: {problem}"]

    # each forgery of build_certificate(3, 19) below reaches exactly one
    # problem branch, and nothing else
    @pytest.mark.parametrize(
        "forged, message",
        [
            ({"order": 20}, "order 20 != 2*3^2+1 = 19"),
            ({"p_exceeds_2n_plus_1": False}, "certificate does not assert p > 2n+1"),
            ({"p": 23}, "p = 23 does not divide 19"),
            ({"ell_max": 1}, "ell_max = 1 != 0"),
        ],
        ids=["order", "p-not-asserted-above", "p-not-a-divisor", "ell-max"],
    )
    def test_rejects_forged_field(self, forged, message):
        assert validate_certificate(dataclasses.replace(self.base(), **forged)) == [message]

    @pytest.mark.parametrize(
        "forged, message",
        [
            ({"target": 4}, "row ell=0: target 4 != 3"),
            ({"witness": (0, 0)}, "row ell=0: witness given for unrepresentable target"),
        ],
        ids=["target", "witness-on-unrepresentable"],
    )
    def test_rejects_forged_row(self, forged, message):
        cert = self.base()
        rows = (dataclasses.replace(cert.rows[0], **forged),)
        assert validate_certificate(dataclasses.replace(cert, rows=rows)) == [message]

    # a float in an integer field compares equal to the int it stands for,
    # or fails in isqrt; either way it is listed, and only it
    @pytest.mark.parametrize(
        "forged, message",
        [
            ({"n": 3.0}, "n = 3.0 is not an int"),
            ({"order": 19.0}, "order = 19.0 is not an int"),
            ({"p": 19.0}, "p = 19.0 is not an int"),
            ({"m": 1.0}, "m = 1.0 is not an int"),
            ({"b": 9.0}, "b = 9.0 is not an int"),
            ({"b": True}, "b = True is not an int"),
            ({"ell_max": 0.0}, "ell_max = 0.0 is not an int"),
            ({"a": 2.0}, "a = 2.0 is neither an int nor infinite"),
            ({"a": False}, "a = False is neither an int nor infinite"),
        ],
        ids=["n", "order", "p", "m", "b", "b-bool", "ell-max", "a", "a-bool"],
    )
    def test_rejects_field_of_wrong_type(self, forged, message):
        assert validate_certificate(dataclasses.replace(self.base(), **forged)) == [message]

    @pytest.mark.parametrize(
        "forged, messages",
        [
            ({"ell": 0.0}, ["row 0: ell = 0.0 is not an int"]),
            ({"target": 3.0}, ["row 0: target = 3.0 is not an int"]),
            (
                {"ell": 0.0, "target": 3.0},
                ["row 0: ell = 0.0 is not an int", "row 0: target = 3.0 is not an int"],
            ),
            ({"target": True}, ["row 0: target = True is not an int"]),
        ],
        ids=["ell", "target", "both", "target-bool"],
    )
    def test_rejects_row_field_of_wrong_type(self, forged, messages):
        cert = self.base()
        rows = (dataclasses.replace(cert.rows[0], **forged),)
        assert validate_certificate(dataclasses.replace(cert, rows=rows)) == messages

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


class TestBuilderAndValidatorApart:
    """The builder proves primes by trial_division over the prime table,
    and the validator by its own is_prime: neither needs the other's."""

    def test_validator_reads_no_table(self, monkeypatch):
        certs = [cert for n in range(3, 201) if (cert := certify_nonexistence(n))]

        def refuse(end):
            raise AssertionError("the validator sieved")

        empty_table(monkeypatch)
        monkeypatch.setattr(abelian, "_sieve", refuse)
        for cert in certs:
            assert validate_certificate(cert) == [], cert.n

    def test_builder_calls_no_is_prime(self, monkeypatch):
        expected = {n: certify_nonexistence(n) for n in range(3, 201)}

        def refuse(p):
            raise AssertionError("the builder called is_prime")

        monkeypatch.setattr(certify, "is_prime", refuse)
        assert {n: certify_nonexistence(n) for n in range(3, 201)} == expected
        assert build_certificate(3, 19).conclusion == NONEXISTENCE
        assert certificate_parameters(9, 163) == (63, 81)

    def test_builder_and_validator_agree_on_primality(self):
        for p in range(-5, 5001):
            if p == 2:
                continue
            if is_prime(p):
                certificate_parameters(3, p)
            else:
                with pytest.raises(ValueError, match=f"^{p} is not prime$"):
                    certificate_parameters(3, p)


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


def run_survey(monkeypatch, capsys, *args):
    """Run scripts/nonexistence_survey.py's main; its stdout lines."""
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "nonexistence_survey.py")
    spec = importlib.util.spec_from_file_location("nonexistence_survey", path)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    monkeypatch.setattr(sys, "argv", ["nonexistence_survey.py", *args])
    assert survey.main() == 0
    return capsys.readouterr().out.splitlines()


def test_survey_script_summary_to_sixty(monkeypatch, capsys):
    lines = run_survey(monkeypatch, capsys, "--stop", "60")
    assert len(lines) == 2 + 58 + 2
    assert re.match(
        r"NONEXISTENCE: 45 +INCONCLUSIVE: 0 +INAPPLICABLE: 13 +open: 0\.2241 +seconds: ", lines[-1]
    )


def test_survey_script_columns_stay_aligned_near_a_hundred_thousand(monkeypatch, capsys):
    # n has 6 digits at 10^5 and 2n^2+1 has 11; p, a and b can too.  The
    # conclusions are two characters longer than the header's "conclusion"
    lines = run_survey(monkeypatch, capsys, "--start", "99980", "--stop", "100000")
    header, rule, *rows, _, summary = lines
    assert rule == "-" * len(header)
    assert len(rows) == 21
    assert {len(row) for row in rows} == {len(header) + 2}
    assert rows[-1].split()[:2] == ["100000", "20000000001"]
    assert summary.startswith("NONEXISTENCE: ")


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
