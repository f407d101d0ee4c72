import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from charwit import scalars
from charwit.errors import DomainError, InvariantViolation, ParseError
from charwit.scalars import (CyclotomicNumber, CyclotomicReal, FpScalar,
                             bernoulli, from_rational, is_odd_prime,
                             is_prime, largest_prime_factor, odd_primes_above,
                             rational_from_string, rational_to_string,
                             sign_of)


def bernoulli_triangle(n):
    """Akiyama-Tanigawa transform, an oracle independent of the recurrence.

    Yields B_n in the convention B_1 = +1/2; even indices agree with ours.
    """
    a = []
    for m in range(n + 1):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0]


def test_bernoulli_against_triangle():
    for m in range(0, 25):
        expected = bernoulli_triangle(m)
        if m == 1:
            expected = -expected
        assert bernoulli(m) == expected


def test_bernoulli_frozen_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(12) == Fraction(-691, 2730)
    for m in range(3, 20, 2):
        assert bernoulli(m) == 0
    with pytest.raises(DomainError):
        bernoulli(-1)


def test_is_prime_against_sieve():
    limit = 2000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, limit):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    for n in range(limit):
        assert is_prime(n) == sieve[n], n


def test_is_prime_strong_pseudoprimes():
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    assert 151 * 751 * 28351 == 3215031751
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)
    assert not is_prime(1000000007 * 1000000009)


def test_is_prime_above_old_limit():
    for q in (4294967311, 2 ** 61 - 1, 10 ** 12 + 39):
        assert is_prime(q), q
    # segmented sieve on a window just above 3,215,031,751
    lo, width = 3215031751, 3000
    small = [q for q in range(2, 57000)
             if all(q % d for d in range(2, int(q ** 0.5) + 1))]
    window = [True] * width
    for q in small:
        for n in range(-(-lo // q) * q, lo + width, q):
            window[n - lo] = False
    for i, flag in enumerate(window):
        assert is_prime(lo + i) == flag, lo + i


def test_is_prime_limit():
    limit = 3317044064679887385961981   # psi_13, a strong pseudoprime
    assert 1287836182261 * 2575672364521 == limit
    with pytest.raises(DomainError):
        is_prime(limit)
    with pytest.raises(DomainError):
        is_prime(2 ** 89 - 1)


def test_odd_primes_above():
    assert list(itertools.islice(odd_primes_above(47), 4)) == [53, 59, 61, 67]
    assert next(odd_primes_above(1)) == 3
    assert next(odd_primes_above(3)) == 5


def test_largest_prime_factor():
    assert largest_prime_factor(1) == 1
    assert largest_prime_factor(-1) == 1
    assert largest_prime_factor(0) == 1
    assert largest_prime_factor(12) == 3
    assert largest_prime_factor(-98) == 7
    assert largest_prime_factor(97) == 97
    assert largest_prime_factor(2 ** 10) == 2


def trial_largest_prime_factor(n):
    n, best, d = abs(n), 1, 2
    while d * d <= n:
        while n % d == 0:
            best, n = d, n // d
        d += 1
    return max(best, n) if n > 1 else best


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(-10 ** 12 + 1, 10 ** 12 - 1))
@example(0)
@example(1)
@example(-1)
@example(43 ** 7)
@example(1009 ** 2 * 1013)
def test_largest_prime_factor_matches_trial_division(n):
    assert largest_prime_factor(n) == trial_largest_prime_factor(n)


def test_largest_prime_factor_splits_large_semiprimes():
    # the witness value of e^4 - p6 at n = 3 and its two large factors
    assert largest_prime_factor(9668371 * 25018291) == 25018291
    assert largest_prime_factor(49916345211096113843) == 25018291
    assert largest_prime_factor(-(10 ** 9 + 7) * (10 ** 9 + 9)) == 10 ** 9 + 9


def test_largest_prime_factor_above_primality_range():
    """43^16 exceeds the certified Miller-Rabin range; the cofactor left
    after stripping 2..41 is trial-divided, still exactly."""
    assert 43 ** 16 >= scalars._MR_LIMIT
    assert largest_prime_factor(43 ** 16) == 43
    assert largest_prime_factor(-(2 ** 5) * 43 ** 16) == 43


def test_is_odd_prime_caches_only_primes():
    assert not is_odd_prime(2)
    assert not is_odd_prime(9)
    assert is_odd_prime(733) and is_odd_prime(733)
    assert not is_odd_prime(733 * 739)
    assert not is_odd_prime(1)


def test_fp_field_axioms():
    rng = random.Random(11)
    for p in (5, 13, 53):
        for _ in range(50):
            a = FpScalar(p, rng.randrange(p))
            b = FpScalar(p, rng.randrange(p))
            c = FpScalar(p, rng.randrange(p))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a - a == FpScalar(p, 0)
            if b.val:
                assert b * b.inverse() == FpScalar(p, 1)
                assert (a / b) * b == a


def test_fp_mixed_arithmetic():
    a = FpScalar(7, 3)
    assert a + 11 == FpScalar(7, 0)
    assert 2 * a == FpScalar(7, 6)
    assert a ** -1 == FpScalar(7, 5)
    assert a + Fraction(1, 2) == FpScalar(7, 0)  # 1/2 = 4 mod 7
    with pytest.raises(DomainError):
        FpScalar(7, 1) + FpScalar(5, 1)


def test_from_rational():
    assert from_rational(53, Fraction(-47, 7)).val == 16
    assert from_rational(5, Fraction(7, 3)).val == 4
    with pytest.raises(DomainError):
        from_rational(7, Fraction(1, 7))
    with pytest.raises(DomainError):
        from_rational(9, Fraction(1, 2))


def test_rational_strings():
    assert rational_to_string(Fraction(-47, 7)) == "-47/7"
    assert rational_to_string(Fraction(3)) == "3/1"
    for text in ("1/1", "-47/7", "0/1", "22/7"):
        assert rational_to_string(rational_from_string(text)) == text
    with pytest.raises(ParseError):
        rational_from_string("a/b")
    with pytest.raises(ParseError):
        rational_from_string("1/0")
    with pytest.raises(ParseError):
        rational_from_string("")


def test_cyclotomic_reduction_level5():
    z = CyclotomicNumber.zeta(5)
    x = z + z.conjugate()
    assert x.coeffs == (-1, 0, -1, -1)
    assert CyclotomicReal(x, 1).sign() == 1
    assert CyclotomicReal(x, 2).sign() == -1
    # 2cos(2pi/5) is a root of t^2 + t - 1
    assert (x * x + x - CyclotomicNumber.rational(5, 1)).is_zero()


def test_cyclotomic_level_one_is_rational():
    x = CyclotomicNumber.rational(1, Fraction(-3, 2))
    assert x.is_rational() and x.rational_value() == Fraction(-3, 2)
    assert sign_of(CyclotomicReal(x, 1)) == -1
    assert sign_of(CyclotomicReal(CyclotomicNumber.rational(1, 0), 1)) == 0


def test_cyclotomic_inverse_roundtrip():
    rng = random.Random(23)
    for level in (3, 5, 7, 9, 27):
        one = CyclotomicNumber.rational(level, 1)
        for _ in range(20):
            x = CyclotomicNumber.from_exponents(
                level, [(rng.randrange(level), rng.randint(-3, 3))
                        for _ in range(4)])
            if x.is_zero():
                continue
            assert x * x.inverse() == one
            assert x.conjugate().conjugate() == x


def test_cyclotomic_conjugation_is_a_ring_map():
    rng = random.Random(29)
    for _ in range(20):
        x = CyclotomicNumber.from_exponents(
            9, [(rng.randrange(9), rng.randint(-2, 2)) for _ in range(3)])
        y = CyclotomicNumber.from_exponents(
            9, [(rng.randrange(9), rng.randint(-2, 2)) for _ in range(3)])
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()


def test_cyclotomic_norm_is_positive():
    from math import gcd

    rng = random.Random(31)
    for level in (5, 7, 9):
        for embedding in range(1, level):
            if gcd(embedding, level) != 1:
                continue
            for _ in range(5):
                x = CyclotomicNumber.from_exponents(
                    level, [(rng.randrange(level), rng.randint(-2, 2))
                            for _ in range(3)])
                if x.is_zero():
                    continue
                norm = x * x.conjugate()
                assert CyclotomicReal(norm, embedding).sign() == 1


def test_cyclotomic_real_rejects_non_real():
    z = CyclotomicNumber.zeta(7)
    with pytest.raises(InvariantViolation):
        CyclotomicReal(z, 1)
    with pytest.raises(DomainError):
        CyclotomicReal(z + z.conjugate(), 7)


def test_mixed_levels_refused():
    with pytest.raises(DomainError):
        CyclotomicNumber.zeta(3) + CyclotomicNumber.zeta(9)
    with pytest.raises(DomainError):
        CyclotomicNumber.zeta(15)
