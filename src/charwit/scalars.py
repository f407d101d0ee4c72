"""Exact scalar arithmetic: rationals, Bernoulli numbers, primes and the
reduction of rationals mod p; and the text grammar every format shares:
ASCII digits, rationals and signed sums of terms, and the JSON field
readers of the certificate and form files.

Rationals are ``fractions.Fraction``, an element of F_p is a plain int in
[0, p), and nothing in the package touches floating point.  The cyclotomic
numbers of the forms live in the cyclotomic module.

The largest number the formats hold is DIGIT_LIMIT digits, fixed here and
not by the interpreter: every int read from or written to text goes
through _int_of_literal or _decimal, which count the digits first and then
convert _CHUNK at a time, so the same text is read and written under any
int-string limit the interpreter is set to.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

from .errors import DomainError, ParseError


# Python's default int-string limit, a leading '-' not counted, which
# bounds the quadratic cost of converting between int and decimal text
# (CVE-2020-10735); _CHUNK stays below 640, the smallest limit Python allows.
DIGIT_LIMIT = 4300
_CHUNK = 600
_CHUNK_BASE = 10 ** _CHUNK
_DIGIT_BOUND = 10 ** DIGIT_LIMIT


def _within_limit(n: int) -> bool:
    """n has at most DIGIT_LIMIT digits."""
    return -_DIGIT_BOUND < n < _DIGIT_BOUND


def _int_of_literal(literal: str, offset=None) -> int:
    """The int of an ASCII literal -?digits (json.loads's parse_int);
    more than DIGIT_LIMIT digits is a ParseError at offset, which counts
    the whole literal."""
    digits = literal[1:] if literal[:1] == "-" else literal
    if len(digits) > DIGIT_LIMIT:
        raise ParseError("integer literal of %d digits is too long"
                         % len(literal), offset=offset)
    head = len(digits) % _CHUNK or _CHUNK
    value = int(digits[:head])
    for i in range(head, len(digits), _CHUNK):
        value = value * _CHUNK_BASE + int(digits[i:i + _CHUNK])
    return -value if len(digits) < len(literal) else value


def _decimal(n: int) -> str:
    """The decimal text of the int n, as "%d" writes it; more than
    DIGIT_LIMIT digits is a DomainError."""
    if -_CHUNK_BASE < n < _CHUNK_BASE:
        return "%d" % n
    if not _within_limit(n):
        raise DomainError("a number of more than %d digits, the format's "
                          "limit" % DIGIT_LIMIT)
    chunks, rest = [], abs(n)
    while rest >= _CHUNK_BASE:
        rest, low = divmod(rest, _CHUNK_BASE)
        chunks.append("%0*d" % (_CHUNK, low))
    chunks.append("%d" % rest)
    return ("-" if n < 0 else "") + "".join(reversed(chunks))


def rational_to_string(x: Fraction) -> str:
    """Canonical "num/den" form, denominator always present and positive."""
    x = Fraction(x)
    return _decimal(x.numerator) + "/" + _decimal(x.denominator)


def _fraction_text(x: Fraction) -> str:
    """str(x), written by _decimal: "num/den", or "num" for an integer."""
    return (_decimal(x.numerator) if x.denominator == 1
            else rational_to_string(x))


def _read_digits(text: str, pos: int, what: str, signed: bool = False):
    """(int of the ASCII digits at pos, the position after them); signed
    also takes one leading '-'.  No digit there is the ParseError "expected
    <what>", and more than DIGIT_LIMIT digits a ParseError at pos."""
    start = pos + 1 if signed and text[pos:pos + 1] == "-" else pos
    end = start
    while end < len(text) and "0" <= text[end] <= "9":
        end += 1
    if end == start:
        raise ParseError("expected " + what, offset=end)
    return _int_of_literal(text[pos:end], pos), end


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


# ---------------------------------------------------------------------------
# JSON documents: the readers the certificate and form files share


def _json_document(text: str):
    """json.loads(text), every failure a ParseError.  json is imported
    here, not at module level, so that certify and witness never load it."""
    import json

    try:
        return json.loads(text, parse_int=_int_of_literal)
    except json.JSONDecodeError as err:
        raise ParseError("not valid JSON: %s" % err) from err
    except RecursionError as err:
        raise ParseError("not valid JSON: nested too deeply") from err


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _field(mapping, key, kind, where):
    """mapping[key], which must be present and of type kind (int asks for
    a JSON integer, not a bool); otherwise a ParseError."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise ParseError("missing %s in %s" % (key, where))
    value = mapping[key]
    if kind is int:
        if not _is_int(value):
            raise ParseError("%s in %s must be an integer" % (key, where))
    elif not isinstance(value, kind):
        raise ParseError("%s in %s has the wrong type" % (key, where))
    return value


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
    range, or rho cannot split a composite, DomainError names the number,
    or says it has more than DIGIT_LIMIT digits, instead of a guess.
    """
    n = abs(n)
    best = 1
    for q in _MR_BASES:
        while n and n % q == 0:  # by the largest q^(2^j) that divides n
            best, d = q, q
            while n % (d * d) == 0:
                d *= d
            n //= d
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if m >= _MR_LIMIT:
            for d in range(_MR_BASES[-1] + 2, _TRIAL_LIMIT, 2):
                while m % d == 0:
                    best = max(best, d)
                    m //= d
            if m >= _MR_LIMIT:
                part = (_decimal(m) if _within_limit(m) else
                        "a number of more than %d digits" % DIGIT_LIMIT)
                raise DomainError("cannot factor %s: at or above the "
                                  "certified primality range %d after "
                                  "dividing out the factors below 2^16"
                                  % (part, _MR_LIMIT))
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


def is_odd_prime(p: int) -> bool:
    """p is an odd prime, by is_prime each time: no answer is kept."""
    return p != 2 and is_prime(p)


def _check_odd_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise DomainError("modulus %r is not an odd prime" % (p,))


def from_rational(p: int, x) -> int:
    """x mod p, in [0, p), for an odd prime p and a rational x whose
    denominator is a unit mod p."""
    _check_odd_prime(p)
    x = Fraction(x)
    if x.denominator % p == 0:
        raise DomainError("denominator vanishes mod %d" % p)
    return x.numerator * pow(x.denominator, -1, p) % p


# The benchmark under perfbench/ imports the two cyclotomic classes from
# here.  ROADMAP item 4's benchmark change moves those imports to
# charwit.cyclotomic and removes this hook; nothing else may use it.
def __getattr__(name):
    if name in ("CyclotomicNumber", "CyclotomicReal"):
        from . import cyclotomic
        return getattr(cyclotomic, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
