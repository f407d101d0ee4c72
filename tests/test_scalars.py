import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from charwit import cyclotomic, scalars
from charwit.cyclotomic import CyclotomicNumber, CyclotomicReal
from charwit.errors import DomainError, InvariantViolation, ParseError
from charwit.scalars import (bernoulli, from_rational, is_odd_prime, is_prime,
                             largest_prime_factor, odd_primes_above,
                             rational_from_string, rational_to_string)


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


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(scalars._MR_BASES),
                          st.integers(0, 3000)), max_size=4),
       st.integers(1, 10 ** 6))
def test_largest_prime_factor_strips_high_powers_of_small_primes(powers, c):
    """q^e with q <= 41 is divided out by the largest q^(2^j) that divides
    what is left, so 2^14000 takes a few dozen divisions, not 14000."""
    n = c
    for q, e in powers:
        n *= q ** e
    assert largest_prime_factor(n) == max(
        [trial_largest_prime_factor(c)] + [q for q, e in powers if e])


def test_largest_prime_factor_splits_large_semiprimes():
    # the witness value of e^4 - p6 at n = 3 and its two large factors
    assert largest_prime_factor(9668371 * 25018291) == 25018291
    assert largest_prime_factor(49916345211096113843) == 25018291
    assert largest_prime_factor(-(10 ** 9 + 7) * (10 ** 9 + 9)) == 10 ** 9 + 9


def test_largest_prime_factor_above_primality_range():
    """43^16 exceeds the certified Miller-Rabin range; the cofactor left
    after stripping 2..41 is divided by the odd d < 2^16, still exactly."""
    assert 43 ** 16 >= scalars._MR_LIMIT
    assert largest_prime_factor(43 ** 16) == 43
    assert largest_prime_factor(-(2 ** 5) * 43 ** 16) == 43
    # the small factor brings the rest into range, where rho splits it
    n = 65521 * (10 ** 9 + 7) * (10 ** 9 + 9) * 1000003
    assert n >= scalars._MR_LIMIT
    assert largest_prime_factor(n) == 10 ** 9 + 9


@pytest.mark.parametrize("n", [
    10000000000037 * 1000000000039,
    scalars._MR_LIMIT,
    43 * 10000000000037 * 1000000000039,
    65537 * 10000000000037 * 1000000000039,
])
def test_largest_prime_factor_out_of_range_raises(n):
    """A cofactor that stays at or above the certified range after the odd
    d < 2^16 are divided out is refused, and quickly, never searched."""
    start = time.perf_counter()
    with pytest.raises(DomainError, match="cannot factor"):
        largest_prime_factor(n)
    assert time.perf_counter() - start < 1.0


def test_largest_prime_factor_raises_when_rho_fails(monkeypatch):
    monkeypatch.setattr(scalars, "_brent_factor", lambda n: None)
    n = 9668371 * 25018291
    with pytest.raises(DomainError, match="cannot factor %d:" % n):
        largest_prime_factor(n)


def test_largest_prime_factor_names_the_digits_of_an_unprintable_part():
    """(10^9 + 7)^500 has 4501 digits, more than str() converts at the
    default limit of 4300: the DomainError names its digit count, not a
    ValueError from formatting it, and the 400th power (3601 digits) is
    named in full."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        start = time.perf_counter()
        with pytest.raises(DomainError, match="^cannot factor a 4501-digit "
                           "number: at or above the certified primality"):
            largest_prime_factor((10 ** 9 + 7) ** 500)
        assert time.perf_counter() - start < 1.0
        with pytest.raises(DomainError, match="^cannot factor %d: "
                           % (10 ** 9 + 7) ** 400):
            largest_prime_factor((10 ** 9 + 7) ** 400)
    finally:
        sys.set_int_max_str_digits(saved)


def test_is_odd_prime_caches_only_primes():
    assert not is_odd_prime(2)
    assert not is_odd_prime(9)
    assert is_odd_prime(733) and is_odd_prime(733)
    assert not is_odd_prime(733 * 739)
    assert not is_odd_prime(1)


def test_from_rational():
    assert from_rational(53, Fraction(-47, 7)) == 16
    assert from_rational(5, Fraction(7, 3)) == 4
    with pytest.raises(DomainError):
        from_rational(7, Fraction(1, 7))
    with pytest.raises(DomainError):
        from_rational(9, Fraction(1, 2))


@pytest.mark.parametrize("p", [0, 1, 4])
def test_from_rational_checks_the_modulus_first(p):
    """The modulus is checked before the denominator: 1/2 mod 0 is not a
    ZeroDivisionError, nor 1/2 mod 1 a vanishing denominator."""
    with pytest.raises(DomainError, match="modulus %d is not an odd prime"
                       % p):
        from_rational(p, Fraction(1, 2))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from((3, 5, 7, 53, 733, 4751, 10 ** 9 + 7)),
       st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30))
def test_from_rational_is_the_residue(p, num, den):
    x = Fraction(num, den)
    if x.denominator % p == 0:
        with pytest.raises(DomainError):
            from_rational(p, x)
        return
    r = from_rational(p, x)
    assert type(r) is int and 0 <= r < p
    assert (r * x.denominator - x.numerator) % p == 0
    assert (r * den - num) % p == 0


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


@pytest.mark.parametrize("text, value", [
    ("3", Fraction(3)), ("2/2", Fraction(1)), ("-0/1", Fraction(0)),
    ("007/010", Fraction(7, 10)), ("-47/7", Fraction(-47, 7)),
])
def test_rational_from_string_reads_digits_over_digits(text, value):
    assert rational_from_string(text) == value


@pytest.mark.parametrize("text", [
    "1e3", "1E3", "1.5", ".5", " 1/2", "1/2 ", "1/2\n", "1_0/1", "1/1_0",
    "+1", "--1", "-", "1/", "/1", "1/-1", "1//2", "1/2/3", "0x10", "inf",
    "nan", "\u0663", "1/\u0663", "\uff11",
])
def test_rational_from_string_rejects_every_other_form(text):
    """Only [-]digits[/digits] in ASCII: Fraction's exponents, decimals,
    spaces, underscores, signs after the first and non-ASCII digits are
    parse errors."""
    with pytest.raises(ParseError, match="^bad rational literal: "):
        rational_from_string(text)


def test_rational_from_string_names_an_over_long_literal():
    with pytest.raises(ParseError, match="too long"):
        rational_from_string("1" * 5000 + "/1")


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
    assert x.conjugate() is x
    assert CyclotomicReal(x, 1).sign() == -1
    assert CyclotomicReal(CyclotomicNumber.rational(1, 0), 1).sign() == 0


def test_cyclotomic_inverse_roundtrip():
    rng = random.Random(23)
    for level in (3, 5, 7, 9, 25, 27, 49, 113, 121, 125):
        one = CyclotomicNumber.rational(level, 1)
        for _ in range(20):
            x = CyclotomicNumber.from_exponents(
                level, [(rng.randrange(level), rng.randint(-3, 3))
                        for _ in range(4)])
            if x.is_zero():
                continue
            assert x * x.inverse() == one
            assert x.conjugate().conjugate() == x


def test_cyclotomic_inverse_products_by_doubling(monkeypatch):
    """At level 113 the units a = 1 mod 1 are all 112 units, so the
    conjugate product has 111 factors: the plain product took 110 products
    and 112 in all, doubling along the bits of 111 takes 11 and 13 in all.
    These are counts, not timings."""
    x = CyclotomicNumber.from_exponents(113, [(0, 2), (1, -1), (40, 3)])
    products = []
    mul = CyclotomicNumber.__mul__

    def counted(a, b):
        products.append(b)
        return mul(a, b)

    monkeypatch.setattr(CyclotomicNumber, "__mul__", counted)
    y = x.inverse()
    assert len(products) <= 16
    monkeypatch.undo()
    assert x * y == CyclotomicNumber.rational(113, 1)


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


CYCLOTOMIC_LEVELS = (1, 3, 5, 7, 9, 25, 27, 49)


def _cyclotomic_modulus(L):
    """Phi_L = sum_{j<p} x^(jL/p), or x - 1 at L = 1, low degree first."""
    if L == 1:
        return [-1, 1]
    p = next(q for q in range(3, L + 1, 2) if L % q == 0)
    mod = [0] * ((p - 1) * (L // p) + 1)
    for j in range(p):
        mod[j * (L // p)] = 1
    return mod


def _reference_product(L, a, b):
    """Dense Fraction product of two coefficient tuples, then long division
    by the monic Phi_L."""
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    mod = _cyclotomic_modulus(L)
    d = len(mod) - 1
    for i in range(len(prod) - 1, d - 1, -1):
        c = prod[i]
        for j in range(d + 1):
            prod[i - d + j] -= c * mod[j]
    return tuple(prod[:d])


@st.composite
def cyclotomic_pairs(draw):
    """Two elements of Q(zeta_L) at one level L, each with integer
    coefficients of up to 200 bits over a random denominator."""
    L = draw(st.sampled_from(CYCLOTOMIC_LEVELS))
    phi = len(_cyclotomic_modulus(L)) - 1
    bits = draw(st.sampled_from((1, 8, 64, 200)))
    pair = []
    for _ in range(2):
        den = draw(st.integers(1, 1 << 64))
        nums = draw(st.lists(st.integers(-(1 << bits), 1 << bits),
                             min_size=phi, max_size=phi))
        pair.append(CyclotomicNumber(L, [Fraction(n, den) for n in nums]))
    return tuple(pair)


def _is_canonical(x):
    return (x.den > 0 and gcd(x.den, *x.num) == 1
            and all(type(n) is int for n in x.num))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(cyclotomic_pairs())
def test_cyclotomic_integer_arithmetic_oracle(pair):
    x, y = pair
    one = CyclotomicNumber.rational(x.L, 1)
    assert (x * y).coeffs == _reference_product(x.L, x.coeffs, y.coeffs)
    assert x.conjugate().conjugate() == x
    results = [x, y, x * y, x + y, x - y, -x, x.conjugate()]
    if x:
        assert x * x.inverse() == one
        results.append(x.inverse())
    if y:
        back = (x * y) * y.inverse()
        assert back == x and hash(back) == hash(x)
        results.append(back)
    assert all(_is_canonical(z) for z in results)


@st.composite
def schur_updates(draw):
    """An entry a and 0-3 factor pairs at one level L, each factor None or
    a number whose integer coefficients (zero and negative ones among them)
    sit over a denominator that may share factors with the others."""
    L = draw(st.sampled_from(CYCLOTOMIC_LEVELS))
    phi = len(_cyclotomic_modulus(L)) - 1

    def number():
        den = draw(st.sampled_from((1, 2, 3, 4, 6, 9, 35, 1 << 64)))
        nums = draw(st.lists(st.integers(-60, 60), min_size=phi,
                             max_size=phi))
        if draw(st.sampled_from(range(6))) == 5:
            nums = [0] * phi
        return CyclotomicNumber(L, [Fraction(n, den) for n in nums])

    pairs = [tuple(None if draw(st.sampled_from(range(4))) == 0
                   else number() for _ in range(2))
             for _ in range(draw(st.sampled_from(range(4))))]
    return number(), pairs


@settings(derandomize=True, max_examples=300, deadline=None)
@given(schur_updates())
def test_sub_products_matches_the_public_operators(case):
    """The Schur-update kernel gives a - x y - ... with the encoding of the
    public operators, skipping each pair with a None factor, and returns a
    itself when no pair is complete."""
    a, pairs = case
    want = a
    for x, y in pairs:
        if x is not None and y is not None:
            want = want - x * y
    got = cyclotomic._sub_products(a, [x for x, _ in pairs],
                                   [y for _, y in pairs])
    assert (got.L, got.num, got.den) == (want.L, want.num, want.den)
    assert _is_canonical(got)
    assert (got is a) == (want is a)


def test_cyclotomic_negative_rational_inverse():
    for L in (1, 7, 49):
        x = CyclotomicNumber.rational(L, Fraction(-6, 35))
        inv = x.inverse()
        assert inv.den == 6 and inv.num[0] == -35 and _is_canonical(inv)
        assert inv == CyclotomicNumber.rational(L, Fraction(-35, 6))
        assert x * inv == CyclotomicNumber.rational(L, 1)
        # the same rational reached through the relative norms
        z = CyclotomicNumber.zeta(L)
        w = (z * x).inverse() * z
        assert w == inv and _is_canonical(w)


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


def test_cyclotomic_equality_across_levels():
    """Numbers at different levels compare unequal, as group-ring elements
    of different rings do, so one set or list holds both; arithmetic
    across levels still raises."""
    x, y = CyclotomicNumber(3, [1]), CyclotomicNumber(5, [1])
    z = CyclotomicNumber.zeta(9)
    assert x != y and not x == y and x != z and y not in [x, z]
    assert x == 1 and y == 1 and x == CyclotomicNumber.rational(3, 1)
    assert {x, y, z, CyclotomicNumber.rational(5, 1)} == {x, y, z}
    with pytest.raises(DomainError):
        x - y


# ---------------------------------------------------------------------------
# certified signs of real cyclotomic numbers


def interval_sign(ctx_class, x):
    """The sign as charwit decided it with mpmath interval arithmetic."""
    num = x.number
    if num.is_zero():
        return 0
    if num.is_rational():
        return 1 if num.coeffs[0] > 0 else -1
    L, r = num.L, x.embedding
    prec = 64
    while prec <= 1 << 16:
        ctx = ctx_class()
        ctx.prec = prec
        total = ctx.mpf(0)
        for m, c in enumerate(num.coeffs):
            if c:
                coeff = ctx.mpf(c.numerator) / ctx.mpf(c.denominator)
                total += coeff * ctx.cos(2 * ctx.pi * ((r * m) % L) / L)
        if total > 0:
            return 1
        if total < 0:
            return -1
        prec *= 2
    raise AssertionError("oracle undecided")


@pytest.fixture(scope="module")
def mpmath():
    return pytest.importorskip("mpmath")


@pytest.fixture(scope="module")
def interval_context(mpmath):
    return mpmath.ctx_iv.MPIntervalContext


@st.composite
def real_cyclotomics(draw):
    L = draw(st.sampled_from((3, 5, 7, 9, 25, 27, 49)))
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=8)
    y = CyclotomicNumber.from_exponents(L, draw(st.lists(
        st.tuples(st.integers(0, L - 1), coeffs), min_size=1, max_size=6)))
    if draw(st.booleans()):
        x = y + y.conjugate() + draw(coeffs)
    else:
        x = y * y.conjugate() - draw(coeffs)
    embedding = draw(st.integers(1, L - 1).filter(lambda r: gcd(r, L) == 1))
    return CyclotomicReal(x, embedding)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(real_cyclotomics())
def test_sign_matches_interval_oracle(interval_context, x):
    assert x.sign() == interval_sign(interval_context, x)


def cubic_root_bracket(bits):
    """Integers lo < hi = lo + 1 with lo / 2^bits < 2cos(2 pi/7) < hi / 2^bits,
    by bisection on t^3 + t^2 - 2t - 1, whose only root in (1, 2) it is."""
    def f(a):  # 2^(3 bits) * cubic(a / 2^bits)
        s = 1 << bits
        return a ** 3 + a * a * s - 2 * a * s * s - s ** 3
    lo, hi = 1 << bits, 2 << bits
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def convergents(lo, hi, den):
    """Continued-fraction convergents shared by every real in (lo, hi)/den."""
    a, b = Fraction(lo, den), Fraction(hi, den)
    h0, h1, k0, k1 = 0, 1, 1, 0
    out = []
    while True:
        q = a.numerator // a.denominator
        if b.numerator // b.denominator != q:
            return out
        h0, h1 = h1, q * h1 + h0
        k0, k1 = k1, q * k1 + k0
        out.append(Fraction(h1, k1))
        if a == q or b == q:
            return out
        a, b = 1 / (a - q), 1 / (b - q)


def test_sign_near_zero_at_convergents():
    """2cos(2pi/7) - c alternates in sign over its convergents c; the deep
    ones are within 2^-64 of zero and need the precision to go up."""
    bits = 512
    lo, hi = cubic_root_bracket(bits)
    cs = convergents(lo, hi, 1 << bits)
    assert len(cs) >= 50
    x = CyclotomicNumber.zeta(7) + CyclotomicNumber.zeta(7).conjugate()
    signs = [CyclotomicReal(x - c, 1).sign() for c in cs]
    assert signs == [(-1) ** n for n in range(len(cs))]
    assert any(L == 7 and b >= 256 for L, b in cyclotomic._cos_tables)


@pytest.mark.parametrize("bits", [64, 128, 1024])
def test_cos_table_brackets(bits):
    one = 1 << bits
    for L in (1, 3, 5, 7, 9, 25, 27, 49):
        table = cyclotomic._cos_table(L, bits)
        assert len(table) == L
        assert all(lo <= hi <= lo + 4 for lo, hi in table)
        lo, hi = table[0]
        assert lo <= one <= hi
        if L > 1:
            assert sum(lo for lo, _ in table) <= 0 <= sum(hi for _, hi in table)
            assert all(table[j] == table[L - j] for j in range(1, L))
    for j in (1, 2):
        lo, hi = cyclotomic._cos_table(3, bits)[j]
        assert lo <= -one // 2 <= hi


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(4, 200), st.data())
def test_fixed_point_error_bounds(mpmath, w, data):
    """_atan_inv, _pi_bracket and _cos_fixed keep their stated error bounds."""
    scale = 1 << w
    x = data.draw(st.integers(0, 3 * scale))
    with mpmath.workprec(w + 64):
        for base in (2, 5, 239):
            total, err = cyclotomic._atan_inv(base, scale)
            assert abs(mpmath.atan(mpmath.mpf(1) / base) * scale - total) < err
        lo, hi = cyclotomic._pi_bracket(w)
        assert lo <= mpmath.pi * scale <= hi
        total, err = cyclotomic._cos_fixed(x, w)
        assert abs(mpmath.cos(mpmath.mpf(x) / scale) * scale - total) < err


@pytest.mark.parametrize("guard", [0, cyclotomic._COS_GUARD])
def test_cos_table_against_mpmath(mpmath, monkeypatch, guard):
    """The brackets hold against a high-precision oracle, also with no
    guard bits, where the floor errors reach the rounded brackets."""
    monkeypatch.setattr(cyclotomic, "_COS_GUARD", guard)
    monkeypatch.setattr(cyclotomic, "_cos_tables", {})
    for bits in (64, 200):
        with mpmath.workprec(bits + 64):
            for L in (3, 7, 25, 49):
                for j, (lo, hi) in enumerate(cyclotomic._cos_table(L, bits)):
                    exact = mpmath.cos(2 * mpmath.pi * j / L) * 2 ** bits
                    assert lo <= exact <= hi


def test_import_leaves_mpmath_out():
    src = os.path.dirname(os.path.dirname(scalars.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, charwit, charwit.cli; print('mpmath' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
