import hashlib
import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from charwit.cli import main
from charwit.errors import DomainError
from charwit.symfun import (GradedPolynomial, ell_polynomial,
                            l_leading_coefficient, l_table)


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


def l_value_oracle(roots, i):
    """Coefficient of u^i in prod_j f(b_j u): the multiplicative sequence
    evaluated at numeric roots."""
    fs = genus_coefficients(i)
    series = [Fraction(1)] + [Fraction(0)] * i
    for b in roots:
        factor = [fs[s] * b ** s for s in range(i + 1)]
        series = [sum((series[a] * factor[c - a] for a in range(c + 1)),
                      Fraction(0)) for c in range(i + 1)]
    return series[i]


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


def test_evaluate_is_strict():
    poly = pvar(1) * pvar(2)
    assert poly.evaluate({"p1": Fraction(2), "p2": Fraction(3)}) == 6
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
    """L_m at p_j = e_j(b_1^2, ..., b_n^2), and LTable.ell(m, b), equal the
    u^m coefficient of prod_j f(b_j^2 u), f(u) = t/tanh(t) with u = t^2."""
    table = l_table(m)
    squares = [b * b for b in roots]
    expected = l_value_oracle(squares, m)
    point = {"p%d" % j: elementary(squares, j) for j in range(1, m + 1)
             if "p%d" % j in table.l(m).variables()}
    assert table.l(m).evaluate(point) == expected
    assert table.ell(m, roots) == expected
