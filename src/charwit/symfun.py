"""Graded polynomials, the Hirzebruch L-polynomials, and their inversion.

A GradedPolynomial is a sparse polynomial over Q in named variables, each
carrying an integer weight (half the cohomological degree).  Each monomial
is keyed by its variable names, as a tuple of (name, exponent) pairs in
natural name order with e last, so operands with different variables
combine by merging term dicts; terms print by increasing weight, then by
exponent tuple over the sorted variables.

The L-table takes the logarithm of the series t/tanh(t), writes the power
sums of the squared roots in the Pontryagin variables by Newton's
identities, and exponentiates by a one-line recurrence, yielding

    L_1 = 1/3*p1,   L_2 = 7/45*p2 - 1/45*p1^2,   ...

together with the triangular inverse polynomials P_i expressing p_i in the
L_j.  Substituting elementary symmetric polynomials of squares gives the
symmetric forms ell_i used on the cyclic-group side; LTable.ell evaluates
them at rational roots without expanding them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial

from .errors import DomainError, InternalConsistencyError
from .scalars import bernoulli


def _name_key(name: str):
    # natural sort: alphabetic prefix, then numeric suffix; "e" sorts last
    i = 0
    while i < len(name) and not name[i].isdigit():
        i += 1
    prefix, suffix = name[:i], name[i:]
    return (name == "e", prefix, int(suffix) if suffix.isdigit() else -1, name)


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    """Product of two monomials, kept in natural name order."""
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for name, e in m2:
        exps[name] = exps.get(name, 0) + e
    return tuple((name, exps[name]) for name in sorted(exps, key=_name_key))


class GradedPolynomial:
    """Sparse polynomial over Q with weighted variables.

    `weights` maps each variable that occurs to its integer weight, and the
    weight of a monomial is the sum of exponent times variable weight.
    `terms` maps monomials to nonzero Fraction coefficients.  A monomial is
    a tuple of (name, exponent) pairs with positive exponents, in natural
    name order with "e" last (p2 < p10 < x1 < e); the constant monomial is
    ().  The constructor stores both dicts as given: every caller hands it
    canonical data, and since results share these dicts with their
    operands, neither is changed after construction.  Terms print in
    increasing (weight, exponent tuple over variables()) order, which
    reproduces the customary way of writing L-polynomials.
    """

    __slots__ = ("weights", "terms")

    def __init__(self, weights: dict, terms: dict):
        self.weights = weights
        self.terms = terms

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "GradedPolynomial":
        return cls({}, {})

    @classmethod
    def constant(cls, c) -> "GradedPolynomial":
        c = Fraction(c)
        return cls({}, {(): c} if c else {})

    @classmethod
    def variable(cls, name: str, weight: int) -> "GradedPolynomial":
        return cls({name: int(weight)}, {((name, 1),): Fraction(1)})

    # --- structure --------------------------------------------------------

    def variables(self) -> tuple:
        return tuple(sorted(self.weights, key=_name_key))

    def var_weight(self, name: str) -> int:
        if name not in self.weights:
            raise DomainError("no variable %r" % (name,))
        return self.weights[name]

    def is_zero(self) -> bool:
        return not self.terms

    def monomial_weight(self, mono) -> int:
        return sum(e * self.weights[name] for name, e in mono)

    def is_homogeneous(self) -> bool:
        weights = {self.monomial_weight(m) for m in self.terms}
        return len(weights) <= 1

    def weight(self) -> int:
        """Common weight of all terms; 0 for the zero polynomial."""
        weights = {self.monomial_weight(m) for m in self.terms}
        if len(weights) > 1:
            raise DomainError("polynomial is not homogeneous")
        return weights.pop() if weights else 0

    def coefficient(self, mono: dict) -> Fraction:
        """Coefficient of the monomial given as {name: exponent}."""
        key = tuple((name, mono[name])
                    for name in sorted(mono, key=_name_key) if mono[name])
        return self.terms.get(key, Fraction(0))

    # --- arithmetic -------------------------------------------------------

    def _weights_with(self, other: "GradedPolynomial") -> dict:
        """Both operands' weights in one dict; a variable with two weights
        raises."""
        if self.weights == other.weights:
            return self.weights
        merged = dict(self.weights)
        for name, w in other.weights.items():
            if merged.setdefault(name, w) != w:
                raise DomainError("variable %r carries two weights" % (name,))
        return merged

    def _coerce(self, other):
        if isinstance(other, GradedPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return GradedPolynomial.constant(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        weights = self._weights_with(other)
        out = dict(self.terms)
        cancelled = False
        for mono, c in other.terms.items():
            c += out.get(mono, 0)
            if c:
                out[mono] = c
            else:
                del out[mono]
                cancelled = True
        if cancelled:
            weights = {name: weights[name]
                       for mono in out for name, _ in mono}
        return GradedPolynomial(weights, out)

    __radd__ = __add__

    def __neg__(self):
        return GradedPolynomial(self.weights,
                                {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        weights = self._weights_with(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = _mono_mul(m1, m2)
                out[key] = out.get(key, 0) + c1 * c2
        out = {m: c for m, c in out.items() if c}
        # the degree in each variable adds up, so only a zero product loses
        # variables
        return GradedPolynomial(weights if out else {}, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise DomainError("polynomial powers take nonnegative integers")
        result = GradedPolynomial.constant(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._weights_with(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # --- substitution and evaluation ---------------------------------------

    def substitute(self, assignment: dict) -> "GradedPolynomial":
        """Replace variables by polynomials (or constants).

        Every key of the assignment must be a variable of this polynomial,
        and each nonzero image must be homogeneous of the same weight as
        the variable it replaces.
        """
        unknown = set(assignment) - set(self.weights)
        if unknown:
            raise DomainError("assignment mentions unknown variable%s %s"
                              % ("s" if len(unknown) > 1 else "",
                                 ", ".join(sorted(unknown))))
        images = {}
        for name, img in assignment.items():
            if isinstance(img, (int, Fraction)):
                img = GradedPolynomial.constant(img)
            if not isinstance(img, GradedPolynomial):
                raise DomainError("image of %r is not a polynomial" % (name,))
            if not img.is_zero():
                if not img.is_homogeneous() or img.weight() != self.var_weight(name):
                    raise DomainError(
                        "image of %r is not homogeneous of weight %d"
                        % (name, self.var_weight(name)))
            images[name] = img
        power_cache = {}

        def image_power(name, e):
            key = (name, e)
            if key not in power_cache:
                power_cache[key] = images[name] ** e
            return power_cache[key]

        total = GradedPolynomial.zero()
        for mono, c in self.terms.items():
            kept = tuple((name, e) for name, e in mono if name not in images)
            term = GradedPolynomial(
                {name: self.weights[name] for name, _ in kept}, {kept: c})
            for name, e in mono:
                if name in images:
                    term = term * image_power(name, e)
            total = total + term
        return total

    def evaluate(self, point: dict) -> Fraction:
        """Evaluate at rational coordinates; every variable must be assigned."""
        missing = set(self.weights) - set(point)
        if missing:
            raise DomainError("no value for variable%s %s"
                              % ("s" if len(missing) > 1 else "",
                                 ", ".join(sorted(missing))))
        unknown = set(point) - set(self.weights)
        if unknown:
            raise DomainError("value supplied for unknown variable%s %s"
                              % ("s" if len(unknown) > 1 else "",
                                 ", ".join(sorted(unknown))))
        values = {name: Fraction(point[name]) for name in self.weights}
        total = Fraction(0)
        for mono, c in self.terms.items():
            v = c
            for name, e in mono:
                v *= values[name] ** e
            total += v
        return total

    # --- printing ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.variables()

        def order(term):
            exps = dict(term[0])
            return (self.monomial_weight(term[0]),
                    tuple(exps.get(name, 0) for name in names))

        pieces = []
        for mono, c in sorted(self.terms.items(), key=order):
            factors = [name if e == 1 else "%s^%d" % (name, e)
                       for name, e in mono]
            mag = abs(c)
            if factors and mag == 1:
                body = "*".join(factors)
            else:
                coeff = str(mag.numerator) if mag.denominator == 1 \
                    else "%d/%d" % (mag.numerator, mag.denominator)
                body = "*".join([coeff] + factors)
            pieces.append((c < 0, body))
        first_neg, first = pieces[0]
        out = ("-" if first_neg else "") + first
        for neg, body in pieces[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def __repr__(self):
        return "<GradedPolynomial %s>" % self


# ---------------------------------------------------------------------------
# the multiplicative sequence of t/tanh(t)


def _f_series(order: int) -> list[Fraction]:
    """Coefficients of u^i, u = t^2, in t/tanh(t) = cosh(t) / (sinh(t)/t)."""
    cosh = [Fraction(1, factorial(2 * i)) for i in range(order + 1)]
    sinh_over_t = [Fraction(1, factorial(2 * i + 1)) for i in range(order + 1)]
    quot = []
    for i in range(order + 1):
        acc = cosh[i]
        for s in range(i):
            acc -= quot[s] * sinh_over_t[i - s]
        quot.append(acc)  # sinh_over_t[0] == 1
    return quot


def l_leading_coefficient(i: int) -> Fraction:
    """Coefficient of p_i in L_i: 2^{2i} (2^{2i-1} - 1) |B_{2i}| / (2i)!."""
    if i < 1:
        raise DomainError("L-polynomials are indexed from 1")
    return (Fraction(2 ** (2 * i) * (2 ** (2 * i - 1) - 1), factorial(2 * i))
            * abs(bernoulli(2 * i)))


def _log_f_series(order: int) -> list[Fraction]:
    """k * c_k for k = 0..order, where log(t/tanh(t)) = sum_k c_k u^k.

    With f = t/tanh(t) = sum_k f_k u^k and f_0 = 1, the identity
    u f' = f * u (log f)' gives k c_k = k f_k - sum_{i<k} i c_i f_{k-i}.
    """
    f = _f_series(order)
    kc = [Fraction(0)]
    for k in range(1, order + 1):
        kc.append(k * f[k] - sum((kc[i] * f[k - i] for i in range(1, k)),
                                 Fraction(0)))
    return kc


def _elementary_values(values, top: int) -> list:
    """e_0, e_1, ..., e_top of the given numbers (zero beyond their count)."""
    e = [Fraction(1)] + [Fraction(0)] * top
    for v in values:
        for j in range(min(top, len(values)), 0, -1):
            e[j] += v * e[j - 1]
    return e


class LTable:
    """L-polynomials L_1..L_M in the p_i and their inverses P_1..P_M in x_i."""

    def __init__(self, max_index: int, l_polys, p_polys):
        self.max_index = max_index
        self._l = list(l_polys)
        self._p = list(p_polys)

    def l(self, i: int) -> GradedPolynomial:
        if not 1 <= i <= self.max_index:
            raise DomainError("index %d outside table range 1..%d"
                              % (i, self.max_index))
        return self._l[i - 1]

    def p(self, i: int) -> GradedPolynomial:
        if not 1 <= i <= self.max_index:
            raise DomainError("index %d outside table range 1..%d"
                              % (i, self.max_index))
        return self._p[i - 1]

    def ell(self, i: int, roots) -> Fraction:
        """ell_i(a) at rational roots a: L_i at p_j = e_j(a_1^2, ..., a_n^2).

        This is the numeric value of ell_polynomial(i, n) at a, without
        expanding that polynomial.
        """
        li = self.l(i)
        e = _elementary_values([Fraction(a) ** 2 for a in roots], i)
        return li.evaluate({name: e[int(name[1:])] for name in li.variables()})


_l_table_cache: dict[int, LTable] = {}


def l_table(max_index: int) -> LTable:
    """Compute L_1..L_M and the inverse polynomials P_1..P_M.

    L is the multiplicative sequence of t/tanh(t): with b_j the squared
    roots and p_j = e_j(b), L = prod_j f(b_j u) = exp(sum_k c_k s_k u^k),
    where c_k are the coefficients of log f(u) and s_k = sum_j b_j^k are
    the power sums.  Newton's identities write s_k in the p_j, and
    differentiating the exponential gives m L_m = sum_k k c_k s_k L_(m-k)
    (Milnor-Stasheff, Characteristic Classes, section 19; Macdonald,
    Symmetric Functions and Hall Polynomials, I.2).  P_i follows by
    solving L_i for p_i, one index at a time.
    """
    M = int(max_index)
    if M < 1:
        raise DomainError("l_table wants max_index >= 1")
    if M in _l_table_cache:
        return _l_table_cache[M]
    for bigger in sorted(_l_table_cache):
        if bigger > M:
            big = _l_table_cache[bigger]
            table = LTable(M, big._l[:M], big._p[:M])
            _l_table_cache[M] = table
            return table

    kc = _log_f_series(M)
    pv = [None] + [GradedPolynomial.variable("p%d" % j, 2 * j)
                   for j in range(1, M + 1)]
    # Newton: s_k = sum_{i<k} (-1)^(i-1) p_i s_(k-i) + (-1)^(k-1) k p_k;
    # weighted[k] holds k c_k s_k
    power_sums = [None]
    weighted = [None]
    for k in range(1, M + 1):
        s = (-1) ** (k - 1) * k * pv[k]
        for i in range(1, k):
            s = s + (-1) ** (i - 1) * pv[i] * power_sums[k - i]
        power_sums.append(s)
        weighted.append(kc[k] * s)
    ls = [GradedPolynomial.constant(1)]
    for m in range(1, M + 1):
        acc = GradedPolynomial.zero()
        for k in range(1, m + 1):
            acc = acc + weighted[k] * ls[m - k]
        ls.append(acc / m)
    l_polys = ls[1:]

    p_polys = []
    for i in range(1, M + 1):
        li = l_polys[i - 1]
        ci = li.coefficient({"p%d" % i: 1})
        if not ci:
            raise InternalConsistencyError("L_%d has no p_%d term" % (i, i))
        pi_var = GradedPolynomial.variable("p%d" % i, 2 * i)
        qi = li - ci * pi_var
        assign = {"p%d" % j: p_polys[j - 1] for j in range(1, i)
                  if "p%d" % j in qi.variables()}
        xi = GradedPolynomial.variable("x%d" % i, 2 * i)
        p_polys.append((xi - qi.substitute(assign))
                       * (Fraction(1) / ci))

    table = LTable(M, l_polys, p_polys)
    _l_table_cache[M] = table
    return table


def ell_polynomial(i: int, n: int) -> GradedPolynomial:
    """The symmetric form ell_i(a_1..a_n): L_i with p_j -> e_j(a_1^2..a_n^2).

    Stable once n >= 2i; elementary symmetric polynomials of index beyond n
    are zero, which is how small n truncates the answer.
    """
    if i < 1 or n < 1:
        raise DomainError("ell_polynomial wants i >= 1 and n >= 1")
    li = l_table(i).l(i)
    names = ["a%d" % j for j in range(1, n + 1)]
    esubs = {}
    for j in range(1, i + 1):
        name = "p%d" % j
        if name not in li.variables():
            continue
        terms = {tuple((names[t], 2) for t in subset): Fraction(1)
                 for subset in combinations(range(n), j)}
        # zero when j > n; otherwise every a_t occurs
        weights = dict.fromkeys(names, 1) if terms else {}
        esubs[name] = GradedPolynomial(weights, terms)
    return li.substitute(esubs)
