"""
Hirzebruch L-polynomials, exactly
=================================

The multiplicative sequence of f(t) = t/tanh(t) in Pontryagin classes,
with exact rational coefficients, plus the inverse change of basis.
"""

from fractions import Fraction

from charwit import GradedPolynomial, l_leading_coefficient, l_table

# the first six L-polynomials and the inverse expressions of the p_i
table = l_table(6)
for i in range(1, 4):
    print("L%d = %s" % (i, table.l(i)))
for i in range(1, 3):
    print("p%d in terms of L = %s" % (i, table.p(i)))

# the p_i coefficient of L_i has a classical closed form built from
# Bernoulli numbers; the table agrees with it
for i in range(1, 7):
    lead = table.l(i).coefficient({"p%d" % i: 1})
    assert lead == l_leading_coefficient(i)
    print("leading coefficient of L%d: %s" % (i, lead))

# composing the two tables gives back the generators, a full round trip
for i in range(1, 7):
    ls = {"x%d" % j: table.l(j) for j in range(1, i + 1)}
    assert table.p(i).substitute(ls) \
        == GradedPolynomial.variable("p%d" % i, 2 * i)
print("P(L) round trip is the identity for i <= 6")

# evaluating L_2 at the elementary symmetric values of squares (2, 3):
# p_1 = 5, p_2 = 6
point = {"p1": Fraction(5), "p2": Fraction(6)}
print("L2 at p1=5, p2=6:", table.l(2).evaluate(point))
