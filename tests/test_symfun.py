import hashlib
import random
import re
import time
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

import charwit.symfun as symfun
from charwit.cli import L_TABLE_LIMIT, main
from charwit.detect import (DetectionProblem, find_rational_witness,
                            run_pipeline, verify_certificate)
from charwit.errors import DomainError
from charwit.scalars import DIGIT_LIMIT, from_rational, is_odd_prime
from charwit.symfun import (GradedPolynomial, ell_polynomial,
                            l_leading_coefficient, l_table, parse_polynomial)


def triangle_bernoulli(n):
    """Akiyama-Tanigawa oracle (B_1 = +1/2 convention, irrelevant here)."""
    a = []
    for m in range(n + 1):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0]


def genus_coefficients(order):
    """Series of t/tanh(t) in u = t^2 from the classical Bernoulli formula,
    independent of the series division used by the library."""
    return [Fraction(4 ** s) * triangle_bernoulli(2 * s) / factorial(2 * s)
            for s in range(order + 1)]


def l_series_oracle(roots, i):
    """Coefficients of u^0..u^i in prod_j f(b_j u): the multiplicative
    sequence evaluated at numeric roots."""
    fs = genus_coefficients(i)
    series = [Fraction(1)] + [Fraction(0)] * i
    for b in roots:
        factor = [fs[s] * b ** s for s in range(i + 1)]
        series = [sum((series[a] * factor[c - a] for a in range(c + 1)),
                      Fraction(0)) for c in range(i + 1)]
    return series


def l_value_oracle(roots, i):
    """Coefficient of u^i in prod_j f(b_j u)."""
    return l_series_oracle(roots, i)[i]


def elementary(roots, j):
    total = Fraction(0)
    idx = list(range(len(roots)))
    for comb_ in _subsets(idx, j):
        prod = Fraction(1)
        for t in comb_:
            prod *= roots[t]
        total += prod
    return total


def _subsets(idx, j):
    from itertools import combinations
    return combinations(idx, j)


def pvar(i):
    return GradedPolynomial.variable("p%d" % i, 2 * i)


def xvar(i):
    return GradedPolynomial.variable("x%d" % i, 2 * i)


def test_polynomial_printing():
    e = GradedPolynomial.variable("e", 2)
    assert str(e ** 2 - pvar(2)) == "e^2 - p2"
    assert str(Fraction(7, 45) * pvar(2) - Fraction(1, 45) * pvar(1) ** 2) \
        == "7/45*p2 - 1/45*p1^2"
    assert str(GradedPolynomial.zero()) == "0"
    assert str(GradedPolynomial.constant(Fraction(-3, 2))) == "-3/2"
    assert str(3 * xvar(1)) == "3*x1"


def test_polynomial_arithmetic():
    p1, p2 = pvar(1), pvar(2)
    a = (p1 + p2) ** 2
    assert a == p1 ** 2 + 2 * p1 * p2 + p2 ** 2
    assert (a - a).is_zero()
    assert a / 2 + a / 2 == a
    with pytest.raises(DomainError):
        a.weight()  # p1^2 has weight 4, p2^2 weight 8


def test_homogeneity_bookkeeping():
    p1, p2 = pvar(1), pvar(2)
    assert (p1 ** 2).is_homogeneous() and (p1 ** 2).weight() == 4
    assert not (p1 + p2).is_homogeneous()
    assert (p1 * p2).coefficient({"p1": 1, "p2": 1}) == 1
    assert (p1 * p2).coefficient({"p1": 2}) == 0


def test_substitute_checks_weights():
    p1 = pvar(1)
    with pytest.raises(DomainError):
        p1.substitute({"p1": pvar(2)})
    assert p1.substitute({"p1": 3 * xvar(1)}) == 3 * xvar(1)
    # terms that cancel, and a constant, still give a polynomial
    zero = (pvar(2) - p1 ** 2).substitute({"p2": xvar(1) ** 2, "p1": xvar(1)})
    assert isinstance(zero, GradedPolynomial) and zero.is_zero()
    assert zero.variables() == ()
    five = GradedPolynomial.constant(5).substitute({})
    assert isinstance(five, GradedPolynomial) and five == 5


def test_evaluate_is_strict():
    poly = pvar(1) * pvar(2)
    assert poly.evaluate({"p1": Fraction(2), "p2": Fraction(3)}) == 6
    # a float is read exactly, as Fraction() reads it
    value = poly.evaluate({"p1": 0.1, "p2": 3})
    assert type(value) is Fraction and value == 3 * Fraction(0.1) != 0.3
    with pytest.raises(DomainError):
        poly.evaluate({"p1": Fraction(2)})
    with pytest.raises(DomainError):
        poly.evaluate({"p1": Fraction(2), "p2": Fraction(3), "p3": Fraction(1)})


def test_l_table_frozen_forms():
    table = l_table(3)
    assert str(table.l(1)) == "1/3*p1"
    assert str(table.l(2)) == "7/45*p2 - 1/45*p1^2"
    assert str(table.l(3)) == "62/945*p3 - 13/945*p1*p2 + 2/945*p1^3"
    assert str(table.p(1)) == "3*x1"
    assert str(table.p(2)) == "45/7*x2 + 9/7*x1^2"


def test_l_leading_coefficient_closed_form():
    for i in range(1, 7):
        b = triangle_bernoulli(2 * i)
        expected = Fraction(2 ** (2 * i) * (2 ** (2 * i - 1) - 1)) \
            * abs(b) / factorial(2 * i)
        assert l_leading_coefficient(i) == expected


def _log_f_by_series(order):
    """k c_k for k <= order from log(t/tanh(t)) = log(cosh t) -
    log(sinh(t)/t) in u = t^2, each log by the recurrence k g_k = k a_k -
    sum_{0<i<k} i g_i a_(k-i) on the Taylor coefficients a_i."""
    def k_log(a):
        kg = [0]
        for k in range(1, order + 1):
            kg.append(k * a[k] - sum(kg[i] * a[k - i] for i in range(1, k)))
        return kg
    cosh = k_log([Fraction(1, factorial(2 * i)) for i in range(order + 1)])
    sinh_over_t = k_log([Fraction(1, factorial(2 * i + 1))
                         for i in range(order + 1)])
    return [a - b for a, b in zip(cosh, sinh_over_t)]


def test_log_f_series_matches_the_series_of_log_t_over_tanh_t():
    """The table's k c_k, read off the Bernoulli closed form of the
    leading coefficients, against the series derivation for k <= 30."""
    assert symfun._log_f_series(30) == _log_f_by_series(30)


def test_l_table_leading_terms_match_closed_form():
    table = l_table(6)
    for i in range(1, 7):
        assert table.l(i).coefficient({"p%d" % i: 1}) \
            == l_leading_coefficient(i)


def test_l_series_oracle():
    """L_1..L_3 evaluated at elementary symmetric values of random roots
    agree with the coefficient extracted from the product of one-variable
    series."""
    rng = random.Random(5)
    table = l_table(3)
    for _ in range(10):
        roots = [Fraction(rng.randint(1, 9), rng.randint(1, 4))
                 for _ in range(4)]
        for i in (1, 2, 3):
            point = {"p%d" % j: elementary(roots, j) for j in range(1, i + 1)}
            assert table.l(i).evaluate(point) == l_value_oracle(roots, i)


def test_p_l_round_trip_through_weight_12():
    table = l_table(6)
    for i in range(1, 7):
        ls = {"x%d" % j: table.l(j) for j in range(1, i + 1)}
        assert table.p(i).substitute(ls) == pvar(i)
        ps = {"p%d" % j: table.p(j) for j in range(1, i + 1)}
        assert table.l(i).substitute(ps) == xvar(i)


def test_l_table_range_checks():
    table = l_table(2)
    with pytest.raises(DomainError):
        table.l(3)
    with pytest.raises(DomainError):
        table.l(0)
    with pytest.raises(DomainError):
        l_table(0)


def test_ell_polynomial_frozen():
    assert str(ell_polynomial(2, 1)) == "-1/45*a1^4"
    assert str(ell_polynomial(1, 1)) == "1/3*a1^2"
    assert ell_polynomial(3, 1) == \
        GradedPolynomial.variable("a1", 1) ** 6 * Fraction(2, 945)


def test_ell_polynomial_matches_l_at_squares():
    rng = random.Random(7)
    table = l_table(2)
    for n in (2, 3, 4):
        ell = ell_polynomial(2, n)
        for _ in range(5):
            vals = [Fraction(rng.randint(1, 6)) for _ in range(n)]
            point = {"a%d" % (j + 1): vals[j] for j in range(n)}
            squares = [v * v for v in vals]
            lpoint = {"p%d" % j: elementary(squares, j) for j in (1, 2)}
            assert ell.evaluate(point) == table.l(2).evaluate(lpoint)


def test_ell_polynomial_stability():
    """Appending a zero root does not change the value."""
    rng = random.Random(9)
    for i in (1, 2):
        small = ell_polynomial(i, 3)
        big = ell_polynomial(i, 4)
        for _ in range(5):
            vals = {"a%d" % j: Fraction(rng.randint(1, 5)) for j in (1, 2, 3)}
            padded = dict(vals)
            padded["a4"] = Fraction(0)
            assert big.evaluate(padded) == small.evaluate(vals)


# SHA-256 of `charwit l-table --max 7` as printed by the earlier
# formal-root expansion (2M = 14 Chern roots, about 40 s to compute).
L_TABLE_7_SHA256 = \
    "bce5a0f4038ebf1290ea7706fcbb4ec24c9270bc9177f6c959ac7d7bb377fdff"


def test_l_table_7_matches_root_expansion(capsys):
    assert main(["l-table", "--max", "7"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == L_TABLE_7_SHA256


# SHA-256 of `charwit l-table --max 12`, frozen before monomials were keyed
# by variable name; it prints the two-digit names p10..p12 and x10..x12.
L_TABLE_12_SHA256 = \
    "e0b6ef240a2190294b107ab2d01bcc6a9df5bfda73dff15be9462853cfae2ce6"


def test_l_table_12_prints_two_digit_names_in_natural_order(capsys):
    assert main(["l-table", "--max", "12"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == L_TABLE_12_SHA256


# SHA-256 of `charwit l-table --max 16`, printed before the limit was set.
L_TABLE_16_SHA256 = \
    "b2b7b14e908f3ba1beae0963707935273ad8c21b49cca6a83b6ea586d9f6f91e"


def test_l_table_at_the_limit_prints_what_it_printed(capsys):
    assert main(["l-table", "--max", str(L_TABLE_LIMIT)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == L_TABLE_16_SHA256


@pytest.mark.parametrize("top", [L_TABLE_LIMIT + 1, 100000])
def test_l_table_past_the_limit_ends(capsys, top):
    """One past the limit, or --max 100000, which ran past 30 s expanding
    polynomials, exits 1 with no stdout, naming the limit, within 1 s in
    process."""
    start = time.perf_counter()
    assert main(["l-table", "--max", str(top)]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == (
        "", "error: --max exceeds the l-table limit %d\n" % L_TABLE_LIMIT)


def avar(j):
    return GradedPolynomial.variable("a%d" % j, 1)


def canonical_corpus():
    """Seeded sums, differences, products, powers, quotients and
    substitutions over e, p1..p12, x1..x12 and a1..a11, followed by
    ell_polynomial(i, n) for i <= 3 and n <= 11."""
    rng = random.Random(12)
    e = GradedPolynomial.variable("e", 3)
    pool = ([e] + [pvar(i) for i in range(1, 13)]
            + [xvar(i) for i in range(1, 13)] + [avar(j) for j in range(1, 12)])

    def random_poly(terms, factors, top):
        out = GradedPolynomial.zero()
        for _ in range(terms):
            mono = GradedPolynomial.constant(
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            for _ in range(rng.randint(0, factors)):
                mono = mono * rng.choice(pool) ** rng.randint(1, top)
            out = out + mono
        return out

    corpus = []
    for _ in range(30):
        f = random_poly(rng.randint(1, 5), 3, 3)
        g = random_poly(rng.randint(1, 5), 3, 3)
        corpus += [f, f + g, f - g, g - f, f * g, f ** rng.randint(2, 3),
                   f / Fraction(rng.randint(1, 9), rng.randint(-4, -1)),
                   f - f, (f + g) - g]
    table = l_table(12)
    ell = {(i, n): ell_polynomial(i, n) for n in range(1, 12)
           for i in range(1, 4)}
    for _ in range(30):
        f = random_poly(rng.randint(1, 4), 2, 2)
        images = {}
        for name in f.variables():
            i = int(name[1:] or 0)
            if rng.random() < 0.3 or i > 5:
                continue
            if name == "e":
                images[name] = avar(1) * avar(2) * avar(3)
            elif name[0] == "p":
                images[name] = table.p(i)
            elif name[0] == "x":
                images[name] = (ell[i, rng.randint(1, 11)] if i <= 3
                                else table.l(i))
        corpus.append(f.substitute(images))
    corpus += list(ell.values())
    return corpus


# SHA-256 of the corpus above, one str() per line, frozen before monomials
# were keyed by variable name.
CORPUS_SHA256 = \
    "f6b79b1e972e4a509789d5a7b19d62739d71e6c75ad713fea6826d6a125fb56d"


def test_canonical_text_of_seeded_corpus():
    text = "".join(str(poly) + "\n" for poly in canonical_corpus())
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_SHA256


def test_l_genus_of_even_projective_spaces():
    """p(CP^{2k}) = (1 + x^2)^(2k+1), so p_j = C(2k+1, j), and the
    signature L_k[CP^{2k}] is 1."""
    table = l_table(12)
    for k in range(1, 13):
        point = {"p%d" % j: Fraction(comb(2 * k + 1, j))
                 for j in range(1, k + 1)
                 if "p%d" % j in table.l(k).variables()}
        assert table.l(k).evaluate(point) == 1


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 7),
       st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                min_size=1, max_size=6))
def test_l_at_squares_matches_series_product(m, roots):
    """L_m at p_j = e_j(b_1^2, ..., b_n^2), and entry m - 1 of
    LTable.ell(b), equal the u^m coefficient of prod_j f(b_j^2 u),
    f(u) = t/tanh(t) with u = t^2."""
    table = l_table(m)
    squares = [b * b for b in roots]
    expected = l_value_oracle(squares, m)
    point = {"p%d" % j: elementary(squares, j) for j in range(1, m + 1)
             if "p%d" % j in table.l(m).variables()}
    assert table.l(m).evaluate(point) == expected
    assert table.ell(roots)[m - 1] == expected


# ---------------------------------------------------------------------------
# An oracle that reads polynomials only through evaluate, substitute and
# variables(), never through their representation.

ORACLE_WEIGHTS = {"a1": 1, "a2": 1, "a10": 1, "p1": 2, "p2": 4, "p10": 20,
                  "x1": 2, "x3": 6, "x11": 22, "e": 3}
ORACLE_NAMES = sorted(ORACLE_WEIGHTS)
LINEAR_NAMES = [n for n in ORACLE_NAMES if ORACLE_WEIGHTS[n] == 1]
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def build(terms):
    """Sum of c * prod(name^k) through the public constructors."""
    out = GradedPolynomial.zero()
    for c, factors in terms:
        term = GradedPolynomial.constant(c)
        for name, k in factors:
            var = GradedPolynomial.variable(name, ORACLE_WEIGHTS[name])
            term = term * var ** k
        out = out + term
    return out


polynomials = st.lists(
    st.tuples(rationals,
              st.lists(st.tuples(st.sampled_from(ORACLE_NAMES),
                                 st.integers(1, 3)), max_size=3)),
    max_size=4).map(build)
points = st.fixed_dictionaries({name: rationals for name in ORACLE_NAMES})


def homogeneous(weight):
    """Polynomials in the weight-1 names, every term of the given weight."""
    factors = st.lists(st.sampled_from(LINEAR_NAMES).map(lambda n: (n, 1)),
                       min_size=weight, max_size=weight)
    return st.lists(st.tuples(rationals, factors), max_size=3).map(build)


def at(poly, point):
    return poly.evaluate({name: point[name] for name in poly.variables()})


def natural_key(name):
    prefix, digits = re.fullmatch(r"([a-z]+)([0-9]*)", name).groups()
    return (name == "e", prefix, int(digits) if digits else -1)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(polynomials, polynomials, rationals.filter(bool), st.integers(0, 3),
       points)
def test_evaluate_commutes_with_arithmetic(f, g, q, k, point):
    vf, vg = at(f, point), at(g, point)
    assert at(f + g, point) == vf + vg
    assert at(f - g, point) == vf - vg
    assert at(f * g, point) == vf * vg
    assert at(f ** k, point) == vf ** k
    assert at(f / q, point) == vf / q


@settings(derandomize=True, max_examples=100, deadline=None)
@given(polynomials, st.data(), points)
def test_substitute_then_evaluate(f, data, point):
    images = {name: data.draw(homogeneous(ORACLE_WEIGHTS[name]))
              for name in f.variables() if data.draw(st.booleans())}
    values = {name: at(images[name], point) if name in images else point[name]
              for name in f.variables()}
    assert at(f.substitute(images), point) == f.evaluate(values)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(polynomials, polynomials)
def test_variables_in_natural_order_with_e_last(f, g):
    for h in (f, g, f + g, f * g):
        names = list(h.variables())
        assert names == sorted(set(names), key=natural_key)
    assert (f - f).variables() == ()
    assert (f * GradedPolynomial.zero()).variables() == ()
    assert (f + g - g).variables() == f.variables()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(ORACLE_NAMES), st.integers(1, 5))
def test_variable_with_two_weights_raises(name, shift):
    good = GradedPolynomial.variable(name, ORACLE_WEIGHTS[name])
    bad = GradedPolynomial.variable(name, ORACLE_WEIGHTS[name] + shift)
    with pytest.raises(DomainError):
        good + bad
    with pytest.raises(DomainError):
        good * bad
    assert good != bad and not good == bad
    holder = GradedPolynomial.variable("q1", ORACLE_WEIGHTS[name] + shift)
    with pytest.raises(DomainError):
        (good * holder).substitute({"q1": bad})


def test_parse_polynomial_reads_a_power_as_one_monomial():
    """Twenty factors e^E, E of DIGIT_LIMIT digits: by squaring, each power
    took 0.15 s (x86-64); read as a monomial, the text parses at once."""
    exponent = "9" * DIGIT_LIMIT
    start = time.perf_counter()
    xi = parse_polynomial("*".join(["e^" + exponent] * 20), 2)
    assert time.perf_counter() - start < 1.0
    assert xi.terms == {(("e", 20 * (10 ** DIGIT_LIMIT - 1)),): 1}
    assert parse_polynomial("p1^0*e^3 - 2*p2^1*e^0", 2) == (
        parse_polynomial("e^3 - 2*p2", 2))
    assert parse_polynomial("p1^0", 2).weights == {}


def test_equality_across_gradings_is_false():
    """e carries weight 2 in one and 3 in the other: the two are unequal,
    so a set holds both, while arithmetic on them still raises."""
    xi2, xi3 = parse_polynomial("e^2 - p2", 2), parse_polynomial("e^2 - p2", 3)
    assert xi2 != xi3 and not xi2 == xi3
    assert hash(xi2) == hash(xi3)
    assert len({xi2, xi3}) == 2
    with pytest.raises(DomainError, match="two weights"):
        xi2 - xi3


# ---------------------------------------------------------------------------
# The numeric bridge: LTable.p_values against the expanded P_i, and
# LTable.ell followed by p_values against the elementary symmetric values.

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 10).flatmap(
    lambda m: st.lists(small_fractions, min_size=m, max_size=m)))
def test_p_values_match_p_polynomials(x):
    table = l_table(len(x))
    expected = [table.p(i).evaluate({name: x[int(name[1:]) - 1]
                                     for name in table.p(i).variables()})
                for i in range(1, len(x) + 1)]
    assert table.p_values(x) == expected


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 8), st.lists(small_fractions, min_size=1, max_size=6))
def test_p_values_of_ell_are_elementary_in_squares(m, roots):
    table = l_table(m)
    ells = table.ell(roots)
    squares = [a * a for a in roots]
    assert table.p_values(ells) == [elementary(squares, j)
                                    for j in range(1, m + 1)]


def test_p_values_wants_one_value_per_index():
    with pytest.raises(DomainError):
        l_table(3).p_values([Fraction(1), Fraction(2)])


def units_mod(p, m):
    """Whether every k c_k, k = 1..m, and every index up to m is a unit
    mod p, so that the L-series divide only by units."""
    return p > m and all(l_leading_coefficient(k).numerator
                         * l_leading_coefficient(k).denominator % p
                         for k in range(1, m + 1))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 16).flatmap(lambda m: st.tuples(
    st.sampled_from([p for p in range(3, 200)
                     if is_odd_prime(p) and units_mod(p, m)]),
    st.lists(st.integers(-500, 500), min_size=m, max_size=m),
    st.lists(st.integers(-500, 500), min_size=1, max_size=5))))
def test_series_mod_p_reduce_the_values_over_q(case):
    """p_values and ell given p run the series mod p; at a prime where
    every division is by a unit, that is the value over Q reduced."""
    p, x, roots = case
    table = l_table(len(x))
    assert table.p_values(x, p) == [from_rational(p, v)
                                    for v in table.p_values(x)]
    assert table.ell(roots, p) == [from_rational(p, v)
                                   for v in table.ell(roots)]


def test_series_mod_p_refuses_a_non_unit():
    """7 divides 2 c_2 = 7/45, the coefficient of p2 in L_2, so the series
    for P_2 divides by 0 mod 7: a DomainError, which verify reports, not a
    bare ValueError; over Q, P_2(1, 2) = 45/7*2 + 9/7 is a value.  A k c_k
    whose denominator p divides, here 5 and 45, is refused too."""
    assert l_table(2).p_values([1, 2]) == [3, Fraction(99, 7)]
    with pytest.raises(DomainError, match="mod 7"):
        l_table(2).p_values([1, 2], 7)
    with pytest.raises(DomainError, match="mod 5"):
        l_table(2).ell([1, 2], 5)


# The certify and witness problems of the benchmark suite.
CERTIFY_SUITE = [("e^2 - p2", 2), ("p3 - e^2", 3), ("e*p1^2 - p5", 6),
                 ("e^2 - p1^8", 8), ("e^2 - p1^5", 5), ("e^2 - p1^6", 6),
                 ("e^2 - p2^2", 4)]
WITNESS_SUITE = [("e^4 - p6", 3), ("e^6 - p6", 2), ("e^2 - p1^8", 8),
                 ("e^2 - p5", 5), ("e^2 - p4", 4), ("e*p1^2 - p5", 6),
                 ("e^2 - p1*p4", 5), ("e^2 - p1^6", 6)]


def test_certificate_path_expands_no_polynomial(monkeypatch):
    """Certify, verify and the witness search evaluate numerically: they
    neither substitute into a polynomial nor expand an L or P polynomial."""
    def refuse(*args):
        raise AssertionError("symbolic call on the certificate path")

    monkeypatch.setattr(GradedPolynomial, "substitute", refuse)
    monkeypatch.setattr(symfun.LTable, "_expand", refuse)
    monkeypatch.setattr(symfun, "_l_table_cache", {})
    for xi, n in CERTIFY_SUITE:
        for cert in run_pipeline(parse_polynomial(xi, n), n, 2):
            assert verify_certificate(cert) == (True, "ok")
    for xi, n in WITNESS_SUITE:
        problem = DetectionProblem(parse_polynomial(xi, n), n)
        assert find_rational_witness(problem).value
