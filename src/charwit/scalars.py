"""Exact scalar arithmetic: rationals, Bernoulli numbers, primes and the
reduction of rationals mod p, and real cyclotomic numbers with certified
signs; and the text grammar every format shares: ASCII digits, rationals
and signed sums of terms.

Rationals are ``fractions.Fraction``, an element of F_p is a plain int in
[0, p), a cyclotomic number is an integer coefficient tuple over one
positive common denominator, and nothing in the package touches floating
point.
The sign of a nonzero real cyclotomic number is certified by an integer
interval dot product against fixed-point brackets of the cosines
cos(2 pi j / L), one cached table per level and precision.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, gcd, lcm
from operator import mul

from .errors import (DomainError, InternalConsistencyError,
                     InvariantViolation, ParseError)


def rational_to_string(x: Fraction) -> str:
    """Canonical "num/den" form, denominator always present and positive."""
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


def _read_digits(text: str, pos: int, what: str, signed: bool = False):
    """(int of the ASCII digits at pos, the position after them); signed
    also takes one leading '-'.  No digit there is the ParseError "expected
    <what>", and more digits than sys.get_int_max_str_digits() are a
    ParseError at pos rather than a ValueError."""
    start = pos + 1 if signed and text[pos:pos + 1] == "-" else pos
    end = start
    while end < len(text) and "0" <= text[end] <= "9":
        end += 1
    if end == start:
        raise ParseError("expected " + what, offset=end)
    try:
        return int(text[pos:end]), end
    except ValueError as exc:
        raise ParseError("integer literal of %d digits is too long"
                         % (end - pos), offset=pos) from exc


def _read_rational(text: str, pos: int):
    """(the Fraction digits[/digits] at pos, the position after it)."""
    num, pos = _read_digits(text, pos, "a number")
    if pos < len(text) and text[pos] == "/":
        den, end = _read_digits(text, pos + 1, "a denominator")
        if den == 0:
            raise ParseError("zero denominator", offset=pos + 1)
        return Fraction(num, den), end
    return Fraction(num), pos


def _skip_space(text: str, pos: int) -> int:
    """The first position from pos on that does not hold whitespace."""
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _read_sum(text: str, read_term, empty: str) -> list:
    """The (sign, term) pairs, sign 1 or -1, of a signed sum "t - t + t".

    Polynomials and group-ring elements share this grammar: whitespace may
    stand between any two tokens, terms are joined by '+' or '-', and each
    term may carry any number of leading '-'.  read_term(text, pos) reads
    one term at pos, which holds neither whitespace nor '-', and returns
    (term, the position after it).  Blank text is the ParseError empty.
    """
    pos = _skip_space(text, 0)
    if pos == len(text):
        raise ParseError(empty, offset=pos)
    terms = []
    while True:
        sign = 1
        while text[pos:pos + 1] == "-":
            sign, pos = -sign, _skip_space(text, pos + 1)
        if pos == len(text):
            raise ParseError("expected a term", offset=pos)
        term, pos = read_term(text, pos)
        terms.append((sign, term))
        pos = _skip_space(text, pos)
        if pos == len(text):
            return terms
        if text[pos] == "+":
            pos = _skip_space(text, pos + 1)
        elif text[pos] != "-":  # a '-' separator is read as a leading '-'
            raise ParseError("expected '+' or '-'", offset=pos)


def _format_sum(pieces) -> str:
    """The text _read_sum reads back from (negative, body) pairs:
    "-a + b - c", or "0" when there are none."""
    out = []
    for neg, body in pieces:
        out.append((" - " if neg else " + ") if out else ("-" if neg else ""))
        out.append(body)
    return "".join(out) or "0"


def rational_from_string(text: str) -> Fraction:
    """The rational [-]digits[/digits], ASCII digits only and nothing
    around them; any other text is a ParseError."""
    start = 1 if text[:1] == "-" else 0
    try:
        value, end = _read_rational(text, start)
        if end != len(text):
            raise ParseError("expected the end of the literal", offset=end)
    except ParseError as err:
        raise ParseError("bad rational literal: %s" % err) from err
    return -value if start else value


_bernoulli_cache = [Fraction(1), Fraction(-1, 2)]


def bernoulli(m: int) -> Fraction:
    """The Bernoulli number B_m, with the convention B_1 = -1/2.

    Computed from the defining recurrence sum_{j<=m} C(m+1, j) B_j = 0.
    """
    if m < 0:
        raise DomainError("Bernoulli numbers are indexed by m >= 0")
    while len(_bernoulli_cache) <= m:
        n = len(_bernoulli_cache)
        acc = sum((comb(n + 1, j) * _bernoulli_cache[j] for j in range(n)),
                  Fraction(0))
        _bernoulli_cache.append(-acc / (n + 1))
    return _bernoulli_cache[m]


# ---------------------------------------------------------------------------
# primes and reduction mod p


# psi_13 (Sorenson-Webster, Math. Comp. 86, 2017): the least strong
# pseudoprime to all of the first 13 prime bases.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n < 3.3 * 10^24.

    Strong-probable-prime tests to the first 13 prime bases have no
    composite survivor below psi_13 = 3,317,044,064,679,887,385,961,981.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        raise DomainError("primality test not certified for n >= %d"
                          % _MR_LIMIT)
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def odd_primes_above(n: int):
    """Yield the odd primes strictly greater than n, in increasing order."""
    q = max(n + 1, 3)
    if q % 2 == 0:
        q += 1
    while True:
        if is_prime(q):
            yield q
        q += 2


# Parts at or above _MR_LIMIT are trial-divided by the odd d below this only.
_TRIAL_LIMIT = 1 << 16


def largest_prime_factor(n: int) -> int:
    """Largest prime factor of |n|; returns 1 for n in {-1, 0, 1}.

    Strips the primes up to 41, then splits what is left with Pollard-Brent
    rho; a part counts as prime only when is_prime says so.  A part at or
    above the range where is_prime is exact is divided by the odd d < 2^16
    only.  Every search is bounded: when such a cofactor stays out of
    range, or rho cannot split a composite, DomainError names the number
    instead of returning a guess.
    """
    n = abs(n)
    best = 1
    for q in _MR_BASES:
        while n and n % q == 0:
            best = q
            n //= q
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if m >= _MR_LIMIT:
            for d in range(_MR_BASES[-1] + 2, _TRIAL_LIMIT, 2):
                while m % d == 0:
                    best = max(best, d)
                    m //= d
            if m >= _MR_LIMIT:
                raise DomainError("cannot factor %d: at or above the "
                                  "certified primality range %d after "
                                  "dividing out the factors below 2^16"
                                  % (m, _MR_LIMIT))
            if m > 1:
                parts.append(m)
        elif is_prime(m):
            best = max(best, m)
        else:
            d = _brent_factor(m)
            if d is None:
                raise DomainError("cannot factor %d: Pollard-Brent rho "
                                  "found no divisor" % m)
            parts.extend((d, m // d))
    return best


def _brent_factor(n: int):
    """A proper factor of the composite n by Brent's rho, or None.

    Brent, BIT 20 (1980): x -> x^2 + c from x = 2, cycle lengths doubling,
    gcds batched over 128 steps and replayed one step at a time when a
    batch overshoots.  Each failing c (the gcd reached n) is retried with
    the next; the search is deterministic.
    """
    for c in range(1, 33):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            done = 0
            while done < r and g == 1:
                ys = y
                for _ in range(min(128, r - done)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                done += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    return None


_odd_primes: set[int] = set()


def is_odd_prime(p: int) -> bool:
    """p is an odd prime; positive answers are remembered, since the same
    few moduli are checked on every arithmetic result."""
    if p in _odd_primes:
        return True
    if p == 2 or not is_prime(p):
        return False
    _odd_primes.add(p)
    return True


def _check_odd_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise DomainError("modulus %r is not an odd prime" % (p,))


def from_rational(p: int, x) -> int:
    """x mod p, in [0, p), for an odd prime p and a rational x whose
    denominator is a unit mod p."""
    _check_odd_prime(p)
    x = Fraction(x)
    if x.denominator % p == 0:
        raise DomainError(
            "denominator of %s vanishes mod %d" % (x, p))
    return x.numerator * pow(x.denominator, -1, p) % p


# ---------------------------------------------------------------------------
# cyclotomic arithmetic
#
# Q(zeta_L) for L = p^k an odd prime power (or L = 1) is Q[x]/Phi_L(x).  An
# element is num/den: num holds phi(L) integer coefficients and den > 0 is
# coprime to their content, so equal elements have equal encodings (Cohen,
# GTM 138, 4.2).  Inverses come from relative norms, as in _inverse.


class _Level:
    """Q[x]/Phi_L for L = p^k, or L = 1 with p = 1: phi = phi(L) and the
    exponents jL/p, j < p - 1, of x^phi = -sum_j x^(jL/p)."""

    def __init__(self, L: int):
        p = next((q for q in range(2, L + 1) if L % q == 0), 1)
        k = 0
        while p > 1 and L % p ** (k + 1) == 0:
            k += 1
        if L < 1 or p == 2 or p ** k != L:
            raise DomainError("level %r is not an odd prime power" % (L,))
        self.L, self.p = L, p
        self.phi = max((p - 1) * (L // p), 1)
        self.tail = tuple(j * (L // p) for j in range(p - 1))


_level = lru_cache(maxsize=None)(_Level)


def _reduce(lev: _Level, c: list) -> list:
    """The phi coefficients of c mod Phi_L, by x^L = 1 and then
    x^phi = -sum_j x^(jL/p); c is consumed."""
    phi, L = lev.phi, lev.L
    if len(c) <= phi:
        return c + [0] * (phi - len(c))
    for i in range(L, len(c)):
        c[i % L] += c[i]
    for i in range(phi, min(len(c), L)):
        v = c[i]
        if v:
            for e in lev.tail:
                c[i - phi + e] -= v
    return c[:phi]


class CyclotomicNumber:
    """An element num/den of Q(zeta_L), L an odd prime power."""

    __slots__ = ("L", "num", "den")

    def __init__(self, L: int, coeffs):
        c = [(x, 1) if type(x) is int else Fraction(x).as_integer_ratio()
             for x in coeffs]
        den = lcm(*(d for _, d in c))
        x = self._make(L, [n * (den // d) for n, d in c], den)
        self.L, self.num, self.den = L, x.num, x.den

    @classmethod
    def _make(cls, L: int, num: list, den: int) -> "CyclotomicNumber":
        """num/den for an int list num of any length and an int den != 0,
        reduced mod Phi_L and divided by gcd(den, *num) taken with the sign
        of den."""
        num = _reduce(_level(L), num)
        g = gcd(den, *num) if den > 0 else -gcd(den, *num)
        self = object.__new__(cls)
        self.L, self.den = L, den // g
        self.num = tuple(num) if g == 1 else tuple(x // g for x in num)
        return self

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(n, self.den) for n in self.num)

    @classmethod
    def from_exponents(cls, L: int, pairs) -> "CyclotomicNumber":
        """Build sum c_m * zeta^m from (exponent, coefficient) pairs."""
        raw = [0] * max(L, 1)
        for m, c in pairs:
            raw[m % L] += c
        return cls(L, raw)

    @classmethod
    def zeta(cls, L: int) -> "CyclotomicNumber":
        return cls.from_exponents(L, [(1 % L, 1)])

    @classmethod
    def rational(cls, L: int, x) -> "CyclotomicNumber":
        return cls(L, [x])

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.L != self.L:
                raise DomainError("mixed cyclotomic levels %d and %d"
                                  % (self.L, other.L))
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.rational(self.L, other)
        return NotImplemented

    def _combine(self, other, sign: int):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        g = gcd(self.den, other.den)
        u, v = other.den // g, sign * (self.den // g)
        return CyclotomicNumber._make(
            self.L, [x * u + y * v for x, y in zip(self.num, other.num)],
            self.den * u)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber._make(self.L, [-x for x in self.num],
                                      self.den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        b = other.num
        out = [0] * (2 * len(b) - 1)
        for i, x in enumerate(self.num):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return CyclotomicNumber._make(self.L, out, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        return _inverse(self)

    def _galois(self, a: int) -> "CyclotomicNumber":
        """The image under zeta -> zeta^a, for a a unit mod L."""
        out = [0] * self.L
        for m, c in enumerate(self.num):
            out[m * a % self.L] = c
        return CyclotomicNumber._make(self.L, out, self.den)

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation, zeta -> zeta^(-1)."""
        return self._galois(-1)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise DomainError("element is irrational")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.L, self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return "CyclotomicNumber(%d, %r)" % (self.L, list(self.coeffs))


def _inverse(x: CyclotomicNumber) -> CyclotomicNumber:
    """1/x for nonzero x, by the relative norm to Q(zeta_m), m = L/p
    (Washington, GTM 83, ch. 2).  y, the product of the images of x under
    zeta -> zeta^a for the units a = 1 mod m, a != 1, makes n = x y fixed by
    all of them, so n lies in Q(zeta_m): its coefficients sit at multiples
    of p.  Then 1/x = y / n, with 1/n inverted at level m."""
    L = x.L
    if x.is_rational():
        return CyclotomicNumber._make(L, [x.den], x.num[0])
    lev = _level(L)
    p, m = lev.p, L // lev.p
    y = reduce(mul, [x._galois(a) for a in range(1 + m, L, m) if a % p])
    n = x * y
    if any(c for i, c in enumerate(n.num) if i % p):
        raise InvariantViolation("relative norm of a cyclotomic number is "
                                 "not in the subfield")
    sub = _inverse(CyclotomicNumber._make(m, list(n.num[::p]), n.den))
    spread = [0] * lev.phi
    spread[::p] = sub.num
    return CyclotomicNumber._make(L, spread, sub.den) * y


# ---------------------------------------------------------------------------
# certified cosines
#
# A real v is bracketed at scale 2^w by integers (lo, hi) with
# lo <= 2^w v <= hi.  Every division below is an exact integer floor, so
# each bracket is a proof, not an estimate.

_COS_GUARD = 32  # working bits beyond the requested ones, for floor errors


def _atan_inv(x: int, scale: int):
    """(A, E) with |scale * atan(1/x) - A| < E, for an integer x >= 2.

    Sums the Gregory series; the k-th term floor(scale / ((2k+1) x^(2k+1)))
    is exact, since floor(floor(a/b)/c) = floor(a/(bc)).  Each of the n
    terms summed loses less than one unit, and the sum stops at the first
    term that floors to 0, so the alternating tail is below one unit too:
    E = n + 1.
    """
    power = scale // x
    total = k = 0
    while True:
        term = power // (2 * k + 1)
        if not term:
            return total, k + 1
        total += -term if k % 2 else term
        power //= x * x
        k += 1


def _pi_bracket(w: int):
    """(lo, hi) with lo <= 2^w pi <= hi, by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239)."""
    a5, e5 = _atan_inv(5, 1 << w)
    a239, e239 = _atan_inv(239, 1 << w)
    mid, err = 16 * a5 - 4 * a239, 16 * e5 + 4 * e239
    return mid - err, mid + err


def _cos_fixed(x: int, w: int):
    """(C, E) with |2^w cos(x / 2^w) - C| < E, for 0 <= x <= 2^w pi.

    Taylor terms t_k = floor(t_(k-1) x^2 / (2^(2w) (2k-1) 2k)) from
    t_0 = 2^w.  Each trails the true term T_k = 2^w (x/2^w)^(2k) / (2k)! by
    e_k < r_k e_(k-1) + 1, r_k = (x/2^w)^2 / ((2k-1) 2k); as r_1 < 5,
    r_2 < 0.83 and r_k < 0.33 beyond, e_k < 2 for every k.  The terms
    decrease from k = 1 on, and the sum stops at the first t_k = 0, where
    T_k < 2, so the alternating tail is below 2: with n terms summed,
    E = 2n + 2.
    """
    x2 = x * x
    shift = 2 * w
    term = 1 << w
    total = k = 0
    while term:
        total += -term if k % 2 else term
        k += 1
        term = (term * x2 >> shift) // ((2 * k - 1) * 2 * k)
    return total, 2 * k + 2


_cos_tables: dict = {}


def _cos_table(L: int, bits: int) -> tuple:
    """Brackets (lo, hi) of 2^bits cos(2 pi j / L) for j = 0..L-1, L odd.

    Built once per (L, bits) and cached.  For j' = min(j, L - j) the angle
    2 pi j' / L lies in [0, pi), where cos falls, so the upper bracket of
    pi gives the lower bracket of cos and the lower one the upper.  Both
    Taylor sums run with _COS_GUARD extra bits and are rounded outward.
    """
    table = _cos_tables.get((L, bits))
    if table is None:
        w = bits + _COS_GUARD
        pi_lo, pi_hi = _pi_bracket(w)
        one = 1 << bits
        half = []
        for j in range(L // 2 + 1):
            c_lo, e_lo = _cos_fixed(-(-2 * j * pi_hi // L), w)
            c_hi, e_hi = _cos_fixed(2 * j * pi_lo // L, w)
            half.append((max((c_lo - e_lo) >> _COS_GUARD, -one),
                         min(-(-(c_hi + e_hi) >> _COS_GUARD), one)))
        table = tuple(half[min(j, L - j)] for j in range(L))
        _cos_tables[(L, bits)] = table
    return table


class CyclotomicReal:
    """A conjugation-fixed cyclotomic number together with a real embedding.

    The embedding sends zeta to exp(2 pi i r / L); being fixed by
    conjugation, the element lands on the real line, so it has a
    well-defined sign.  Determining that sign is exact: zero is decided
    from the reduced coordinate vector, and a nonzero value is certified
    by an integer interval dot product against _cos_table, the precision
    doubling from 64 bits until the interval excludes 0, which happens
    because the value is provably nonzero.
    """

    __slots__ = ("number", "embedding")

    def __init__(self, number: CyclotomicNumber, embedding: int = 1):
        if not isinstance(number, CyclotomicNumber):
            raise DomainError("CyclotomicReal wraps a CyclotomicNumber")
        if gcd(embedding, number.L) != 1:
            raise DomainError(
                "embedding index %d not invertible mod %d"
                % (embedding, number.L))
        if number.conjugate() != number:
            raise InvariantViolation(
                "element is not fixed by conjugation, so not real")
        self.number = number
        self.embedding = embedding % max(number.L, 1)

    @classmethod
    def _make(cls, number: CyclotomicNumber,
              embedding: int) -> "CyclotomicReal":
        """The real for a number already known to be fixed by conjugation
        and an embedding index in [0, L) coprime to L, without the
        constructor's checks."""
        self = object.__new__(cls)
        self.number, self.embedding = number, embedding
        return self

    def sign(self) -> int:
        x = self.number
        if x.is_zero():
            return 0
        if x.is_rational():
            return 1 if x.num[0] > 0 else -1
        L = x.L
        r = self.embedding
        terms = [(a, (r * m) % L) for m, a in enumerate(x.num) if a]
        bits = 64
        while bits <= (1 << 20):
            table = _cos_table(L, bits)
            lo = hi = 0
            for a, j in terms:
                c_lo, c_hi = table[j]
                if a > 0:
                    lo += a * c_lo
                    hi += a * c_hi
                else:
                    lo += a * c_hi
                    hi += a * c_lo
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2
        raise InternalConsistencyError(
            "sign of nonzero cyclotomic real undecided at %d bits" % bits)
