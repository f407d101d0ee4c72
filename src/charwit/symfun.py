"""Graded polynomials, the Hirzebruch L-polynomials, and their inversion.

A GradedPolynomial is a sparse polynomial over Q in named variables, each
carrying an integer weight (half the cohomological degree).  Each monomial
is keyed by its variable names, as a tuple of (name, exponent) pairs in
natural name order with e last, so operands with different variables
combine by merging term dicts; terms print by increasing weight, then by
exponent tuple over the sorted variables.

Every L-series quantity comes from one logarithm and one exponential
recurrence on power series in u = t^2, over Fractions or polynomials alike.
The L-table takes the logarithm of t/tanh(t), reads the power sums of the
squared roots off log(1 + sum_j p_j u^j) and exponentiates, yielding

    L_1 = 1/3*p1,   L_2 = 7/45*p2 - 1/45*p1^2,   ...

together with the inverse polynomials P_i expressing p_i in the L_j.  The
same recurrences give the symmetric forms ell_i used on the cyclic-group
side, and LTable.ell and LTable.p_values evaluate ell_i and P_i at rational
numbers without expanding any polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .errors import DomainError
from .scalars import _format_sum, bernoulli


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
        names = self.variables()

        def order(term):
            exps = dict(term[0])
            return (self.monomial_weight(term[0]),
                    tuple(exps.get(name, 0) for name in names))

        pieces = []
        for mono, c in sorted(self.terms.items(), key=order):
            factors = [name if e == 1 else "%s^%d" % (name, e)
                       for name, e in mono]
            if not factors or abs(c) != 1:
                factors.insert(0, str(abs(c)))
            pieces.append((c < 0, "*".join(factors)))
        return _format_sum(pieces)

    def __repr__(self):
        return "<GradedPolynomial %s>" % self


# ---------------------------------------------------------------------------
# the multiplicative sequence of t/tanh(t)


def _log_series(a, order: int) -> list:
    """k g_k for k = 0..order, where log(1 + sum_{k>0} a_k u^k) = sum_k g_k
    u^k (a[0] is ignored): u f' = f u (log f)' gives k g_k = k a_k -
    sum_{0<i<k} i g_i a_(k-i)."""
    kg = [0]
    for k in range(1, order + 1):
        acc = k * a[k]
        for i in range(1, k):
            acc = acc - kg[i] * a[k - i]
        kg.append(acc)
    return kg


def _exp_series(kg, one, order: int) -> list:
    """E_0 = one, E_1, ..., E_order, where sum_m E_m u^m = exp(sum_k g_k u^k),
    from k g_k (kg[0] is ignored): m E_m = sum_{0<k<=m} k g_k E_(m-k)."""
    e = [one]
    for m in range(1, order + 1):
        acc = kg[1] * e[m - 1]
        for k in range(2, m + 1):
            acc = acc + kg[k] * e[m - k]
        e.append(acc / m)
    return e


def _log_f_series(order: int) -> list:
    """k c_k for k = 0..order, where log(t/tanh(t)) = sum_k c_k u^k.  By
    Newton's identities p_k enters s_k only as (-1)^(k-1) k p_k, so the
    coefficient of p_k in L_k is (-1)^(k-1) k c_k, which
    l_leading_coefficient gives in closed form."""
    return [0] + [(-1) ** (k - 1) * l_leading_coefficient(k)
                  for k in range(1, order + 1)]


def _l_series(kc, s, one, order: int) -> list:
    """1, L_1, ..., L_order at the power sums s_k of the squared roots:
    L = exp(sum_k c_k s_k u^k)."""
    return _exp_series([0] + [kc[k] * s[k] for k in range(1, order + 1)],
                       one, order)


def _p_series(kc, x, one, order: int) -> list:
    """1, P_1, ..., P_order at x_1..x_order (x[0] is ignored): the power
    sums are s_k = k [log(1 + sum_i x_i u^i)]_k / (k c_k), and
    1 + sum_j p_j u^j = exp(sum_k (-1)^(k-1) s_k u^k / k)."""
    log_x = _log_series(x, order)
    return _exp_series([0] + [(-1) ** (k - 1) * log_x[k] / kc[k]
                              for k in range(1, order + 1)], one, order)


def l_leading_coefficient(i: int) -> Fraction:
    """Coefficient of p_i in L_i: 2^{2i} (2^{2i-1} - 1) |B_{2i}| / (2i)!."""
    if i < 1:
        raise DomainError("L-polynomials are indexed from 1")
    return (Fraction(2 ** (2 * i) * (2 ** (2 * i - 1) - 1), factorial(2 * i))
            * abs(bernoulli(2 * i)))


class LTable:
    """L-polynomials L_1..L_M in the p_i and their inverses P_1..P_M in x_i.

    A table holds only k c_k up to k = M.  ell() and p_values() evaluate
    ell_i and the P_i at numbers from it; l() and p() expand the
    polynomials on their first call.
    """

    def __init__(self, max_index: int):
        self.max_index = max_index
        self._kc = _log_f_series(max_index)
        self._polys = None

    def _check(self, i: int) -> int:
        if not 1 <= i <= self.max_index:
            raise DomainError("index %d outside table range 1..%d"
                              % (i, self.max_index))
        return i

    def _expand(self):
        """(L_0..L_M, P_0..P_M); Newton's identities read the power sums
        off log(1 + sum_j p_j u^j) as (-1)^(k-1) s_k / k."""
        if self._polys is None:
            M, one = self.max_index, GradedPolynomial.constant(1)
            pv, xv = ([None] + [GradedPolynomial.variable(v + str(j), 2 * j)
                                for j in range(1, M + 1)] for v in "px")
            log_p = _log_series(pv, M)
            s = [0] + [(-1) ** (k - 1) * log_p[k] for k in range(1, M + 1)]
            self._polys = (_l_series(self._kc, s, one, M),
                           _p_series(self._kc, xv, one, M))
        return self._polys

    def l(self, i: int) -> GradedPolynomial:
        return self._expand()[0][self._check(i)]

    def p(self, i: int) -> GradedPolynomial:
        return self._expand()[1][self._check(i)]

    def ell(self, i: int, roots) -> Fraction:
        """ell_i(a) at rational roots a: L_i at p_j = e_j(a_1^2, ..., a_n^2),
        from the power sums s_k = sum_j a_j^(2k), over one denominator D."""
        self._check(i)
        roots = [Fraction(a) for a in roots]
        D = lcm(*(a.denominator for a in roots))
        nums = [a.numerator * (D // a.denominator) for a in roots]
        s = [Fraction(sum(v ** (2 * k) for v in nums), D ** (2 * k))
             for k in range(i + 1)]
        return _l_series(self._kc, s, Fraction(1), i)[i]

    def p_values(self, x) -> list:
        """[P_1(x), ..., P_M(x)] at rational x = (x_1, ..., x_M)."""
        if len(x) != self.max_index:
            raise DomainError("p_values wants %d values, got %d"
                              % (self.max_index, len(x)))
        return _p_series(self._kc, [None] + [Fraction(v) for v in x],
                         Fraction(1), self.max_index)[1:]


_l_table_cache: dict[int, LTable] = {}


def l_table(max_index: int) -> LTable:
    """The table of L_1..L_M and of the inverse polynomials P_1..P_M.

    L is the multiplicative sequence of t/tanh(t): with b_j the squared
    roots and p_j = e_j(b), L = prod_j f(b_j u) = exp(sum_k c_k s_k u^k),
    where c_k are the coefficients of log f(u) and s_k = sum_j b_j^k are
    the power sums; P inverts L through log(1 + sum_i x_i u^i) =
    sum_k c_k s_k u^k (Milnor-Stasheff, Characteristic Classes, section 19;
    Macdonald, Symmetric Functions and Hall Polynomials, I.2).  One table is
    cached per M, and building it computes only the k c_k, each from the
    Bernoulli closed form of l_leading_coefficient.
    """
    M = int(max_index)
    if M < 1:
        raise DomainError("l_table wants max_index >= 1")
    if M not in _l_table_cache:
        _l_table_cache[M] = LTable(M)
    return _l_table_cache[M]


def ell_polynomial(i: int, n: int) -> GradedPolynomial:
    """The symmetric form ell_i(a_1..a_n): L_i with p_j -> e_j(a_1^2..a_n^2),
    from the power sums s_k = sum_j a_j^(2k).  Stable once n >= 2i."""
    if i < 1 or n < 1:
        raise DomainError("ell_polynomial wants i >= 1 and n >= 1")
    a = [GradedPolynomial.variable("a%d" % j, 1) for j in range(1, n + 1)]
    s = [sum(x ** (2 * k) for x in a) for k in range(i + 1)]
    return _l_series(l_table(i)._kc, s, GradedPolynomial.constant(1), i)[i]
