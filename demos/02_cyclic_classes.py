"""
Characteristic classes over a cyclic group, mod p
=================================================

Virtual representations of C_p, their Chern characters, and the
prescribed-target solver that drives certificate synthesis.
"""

from charwit import (LinearRepData, VirtualRep, chern_character, euler_class,
                     l_class_linear, pullback_l_nonlinear, restrict,
                     solve_chern_targets, symmetrize)

p = 11

# the regular-ish test representation chi^1 + chi^3 - 2*chi^0
xi = VirtualRep(p, 1, {1: 1, 3: 1, 0: -2})
print("xi =", xi)
print("conjugate:", xi.conjugate())
print("ch_2(xi) = %d*c^2" % chern_character(xi, 2))

# prescribe ch_j targets and solve for multiplicities in [0, p)
targets = [0] * p
targets[2] = 1
solved = solve_chern_targets(p, targets)
print("solved multiplicities:", solved.serialize())
for j in range(p):
    assert chern_character(solved, j) == targets[j]
print("forward Chern check passed for all j < %d" % p)

# symmetrize to get integral conjugation behaviour
sym = symmetrize(solved, 2)
assert sym.conjugate() == sym
print("symmetrized:", sym.serialize())

# a free linear representation of weights (1, 2) and its classes
rho = LinearRepData(p, (1, 2))
print("euler class: %d*c^2" % euler_class(rho))
print("L_1 of rho: %d*c^2" % l_class_linear(rho, 1)[0])

# the corrected L-class pullback once a virtual summand is attached
print("L_2 pullback with correction xi: %d*c^4"
      % pullback_l_nonlinear(rho, sym, 2)[1])

# restriction along C_p < C_{p^2} folds exponents mod p
deep = VirtualRep(3, 2, {4: 1, 2: 1})
print("restrict to level 1:", restrict(deep).serialize())
