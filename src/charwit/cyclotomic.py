"""Real cyclotomic numbers with certified signs, the scalars of the forms.

A cyclotomic number is an integer coefficient tuple over one positive
common denominator, reduced in Q(zeta_L) for L an odd prime power, and
nothing here touches floating point.  The sign of a nonzero real
cyclotomic number is certified by an integer interval dot product against
fixed-point brackets of the cosines cos(2 pi j / L), one cached table per
level and precision.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import DomainError, InternalConsistencyError, InvariantViolation


# ---------------------------------------------------------------------------
# cyclotomic arithmetic
#
# Q(zeta_L) for L = p^k an odd prime power (or L = 1) is Q[x]/Phi_L(x).  An
# element is num/den: num holds phi(L) integer coefficients and den > 0 is
# coprime to their content, so equal elements have equal encodings (Cohen,
# GTM 138, 4.2).  Inverses come from relative norms, as in _inverse.


def _primitive_root(p: int) -> int:
    """The least primitive root mod the odd prime p: the least g with
    g^((p-1)/q) != 1 mod p for every prime q dividing p - 1."""
    primes, n, q = [], p - 1, 2
    while n > 1:
        if q * q > n:
            q = n
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return next(g for g in range(2, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in primes))


class _Level:
    """Q[x]/Phi_L for L = p^k, or L = 1 with p = 1: phi = phi(L), the
    exponents jL/p, j < p - 1, of x^phi = -sum_j x^(jL/p), and for L > 1
    a generator gen of the units a = 1 mod L/p with their number M:
    gen = 1 + L/p and M = p when L > p, gen a primitive root mod p and
    M = p - 1 when L = p."""

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
        if L > p:
            self.gen, self.M = 1 + L // p, p
        elif L > 1:
            self.gen, self.M = _primitive_root(p), p - 1


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
        of den.  A list of exactly phi coefficients is already reduced."""
        lev = _level(L)
        if len(num) != lev.phi:
            num = _reduce(lev, num)
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
        out = [0] * (2 * len(self.num) - 1)
        _mul_into(out, self.num, other.num, 1)
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
        """Complex conjugation, zeta -> zeta^(-1); a rational number is
        its own conjugate."""
        return self if self.is_rational() else self._galois(-1)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise DomainError("element is irrational")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.L != self.L:
                return False  # unlike arithmetic, which refuses mixed levels
        else:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.L, self.num, self.den))

    def __bool__(self):
        return any(self.num)

    def __repr__(self):
        return "CyclotomicNumber(%d, %r)" % (self.L, list(self.coeffs))


def _mul_into(out: list, a, b, scale: int) -> None:
    """Add scale * a * b to out, for coefficient lists a and b and out at
    least len(a) + len(b) - 1 long; the product is left unreduced.  The
    one product loop of the field: __mul__ and _sub_products share it."""
    for i, x in enumerate(a):
        if x:
            x *= scale
            for j, y in enumerate(b, i):
                out[j] += x * y


def _sub_products(a: CyclotomicNumber, xs, ys) -> CyclotomicNumber:
    """a - sum_t xs[t] ys[t], for numbers at the level of a, skipping each t
    where xs[t] or ys[t] is None; a itself when every t is skipped.

    The products accumulate unreduced in one (2 phi - 1)-long list over a
    common denominator, raised to the lcm only when a term needs it, so the
    result costs one reduction mod Phi_L and one gcd however many terms it
    has.  The encoding is canonical, so it is the one that the public
    operators give for a - (x y + ...)."""
    out = None
    for x, y in zip(xs, ys):
        if x is None or y is None:
            continue
        d = x.den * y.den
        if out is None:
            den, out = a.den, list(a.num)
            out += [0] * (len(out) - 1)
        f = d // gcd(den, d)  # den * f = lcm(den, d)
        if f != 1:
            out = [c * f for c in out]
            den *= f
        _mul_into(out, x.num, y.num, -(den // d))
    return a if out is None else CyclotomicNumber._make(a.L, out, den)


def _inverse(x: CyclotomicNumber) -> CyclotomicNumber:
    """1/x for nonzero x, by the relative norm to Q(zeta_m), m = L/p
    (Washington, GTM 83, ch. 2).  y, the product of the images of x under
    zeta -> zeta^a for the units a = 1 mod m, a != 1, makes n = x y fixed by
    all of them, so n lies in Q(zeta_m): its coefficients sit at multiples
    of p.  Then 1/x = y / n, with 1/n inverted at level m.

    Those units are the powers g^i, i < M, of _Level's gen g.  With
    P(t) = prod_{i<t} sigma_{g^i}(x), y = sigma_g(P(M - 1)), and
    P(a + b) = P(a) sigma_{g^a}(P(b)), so y is built by doubling along the
    bits of M - 1: O(log M) products where the plain product takes M - 2."""
    L = x.L
    if x.is_rational():
        return CyclotomicNumber._make(L, [x.den], x.num[0])
    lev = _level(L)
    p, m, g = lev.p, L // lev.p, lev.gen
    P, h = x, g  # P(t) and g^t mod L, t = 1 at the leading bit of M - 1
    for bit in bin(lev.M - 1)[3:]:
        P, h = P * P._galois(h), h * h % L
        if bit == "1":
            P, h = P * x._galois(h), h * g % L
    y = P._galois(g)
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
