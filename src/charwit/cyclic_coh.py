"""Characteristic classes in the mod-p cohomology of the cyclic group C_p.

H^(2j)(BC_p; F_p) is one-dimensional on c^j, where c is the Euler class of
the standard character, so a class in a known degree is its coefficient on
c^j: an int in [0, p).  Every function here returns that coefficient, or,
for the L-classes, the list of coefficients in every degree 4, 8, ..., 4m,
from one series; each docstring names the degrees.  Everything a
certificate mentions lives here: Euler classes and L-classes of
fixed-point-free linear representations, the mod-p Chern character of a
virtual representation, and the L-class of the total space twisted by a
representation correction term.
"""

from __future__ import annotations

from math import factorial

from .errors import DomainError
from .repring import VirtualRep
from .scalars import _check_odd_prime
from .symfun import l_table


class LinearRepData:
    """Rotation numbers of a fixed-point-free linear C_p-representation.

    The residues are the weights a_1, ..., a_n of a sum of n nontrivial
    characters; none may vanish mod p, and they are kept canonically in
    [1, p-1].
    """

    __slots__ = ("p", "residues")

    def __init__(self, p: int, residues):
        _check_odd_prime(p)
        res = tuple(int(a) % p for a in residues)
        if not res:
            raise DomainError("a linear representation needs at least one weight")
        if any(a == 0 for a in res):
            raise DomainError("weights must be nonzero mod %d "
                              "(no trivial subrepresentation)" % p)
        self.p = p
        self.residues = res

    @property
    def n(self) -> int:
        return len(self.residues)

    def __eq__(self, other):
        return (isinstance(other, LinearRepData)
                and self.p == other.p and self.residues == other.residues)

    def __repr__(self):
        return "LinearRepData(p=%d, residues=%r)" % (self.p, self.residues)


def euler_class(rho: LinearRepData) -> int:
    """e(rho) = a_1 ... a_n * c^n in H^(2n)(BC_p; F_p), as its coefficient;
    never zero since no weight is."""
    prod = 1
    for a in rho.residues:
        prod = prod * a % rho.p
    return prod


def l_class_linear(rho: LinearRepData, m: int) -> list:
    """The L-class of a sum of characters in degrees 4, 8, ..., 4m: entry
    i - 1 is the coefficient of ell_i(a_1..a_n) * c^(2i) in H^(4i)(BC_p; F_p).

    The series runs mod p, never over Q, and refuses exactly the p <= 2m+1
    (DomainError): by von Staudt-Clausen p divides the denominator of
    k c_k at k = (p-1)/2 <= m.  l_table refuses m < 1.
    """
    return l_table(m).ell(rho.residues, rho.p)


def chern_character(xi: VirtualRep, j: int) -> int:
    """ch_j(xi) = sum_r m_r r^j / j! * c^j in H^(2j)(BC_p; F_p), as its
    coefficient.

    Defined for j <= p - 1, where j! is invertible; 0^0 counts as 1.
    """
    if xi.k != 1:
        raise DomainError("the mod-p Chern character is for C_p itself")
    p = xi.p
    if j < 0 or j > p - 1:
        raise DomainError("ch_%d is not defined mod %d "
                          "(factorial not invertible)" % (j, p))
    acc = sum(m * pow(r, j, p) for r, m in xi.coeffs.items())
    return acc * pow(factorial(j), -1, p) % p


def pullback_l_nonlinear(rho: LinearRepData, xi: VirtualRep, m: int) -> list:
    """L-class of the twisted total space in degrees 4, 8, ..., 4m: entry
    i - 1 is its coefficient on c^(2i).

    For 2i < n = rho.n this is the linear answer, entry i - 1 of
    l_class_linear(rho, m); for 2i >= n the correction term enters:

        ell_i(a) * c^(2i)  -  2^(2+2i-n) * e(rho) * ch_(2i-n)(xi).
    """
    if xi.p != rho.p or xi.k != 1:
        raise DomainError("xi must be a virtual representation of C_%d" % rho.p)
    p, n, euler = rho.p, rho.n, euler_class(rho)
    pulled = l_class_linear(rho, m)
    for i in range((n + 1) // 2, m + 1):
        j = 2 * i - n
        pulled[i - 1] = (pulled[i - 1] - pow(2, 2 + j, p) * euler
                         * chern_character(xi, j)) % p
    return pulled
