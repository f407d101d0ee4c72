"""Characteristic classes in the mod-p cohomology of the cyclic group C_p.

H^(2j)(BC_p; F_p) is one-dimensional on c^j, where c is the Euler class of
the standard character.  A CpClass records such an element as its half
degree j and its coefficient.  Everything a certificate mentions lives here:
Euler classes and L-classes of fixed-point-free linear representations, the
mod-p Chern character of a virtual representation, and the L-class of the
total space twisted by a representation correction term.
"""

from __future__ import annotations

from math import factorial

from .errors import DomainError
from .repring import VirtualRep
from .scalars import FpScalar, from_rational
from .symfun import l_table


class CpClass:
    """A scalar multiple of c^j in H^(2j)(BC_p; F_p)."""

    __slots__ = ("p", "half_degree", "coefficient")

    def __init__(self, p: int, half_degree: int, coefficient):
        if half_degree < 0:
            raise DomainError("negative cohomological degree")
        if not isinstance(coefficient, FpScalar):
            coefficient = FpScalar(p, coefficient)
        elif coefficient.p != p:
            raise DomainError("coefficient lives mod %d, class mod %d"
                              % (coefficient.p, p))
        self.p = p
        self.half_degree = half_degree
        self.coefficient = coefficient

    def degree(self) -> int:
        return 2 * self.half_degree

    def __eq__(self, other):
        return (isinstance(other, CpClass)
                and self.p == other.p
                and self.half_degree == other.half_degree
                and self.coefficient == other.coefficient)

    def __hash__(self):
        return hash((self.p, self.half_degree, self.coefficient.val))

    def __repr__(self):
        return "CpClass(p=%d, %d*c^%d)" % (self.p, self.coefficient.val,
                                           self.half_degree)


class LinearRepData:
    """Rotation numbers of a fixed-point-free linear C_p-representation.

    The residues are the weights a_1, ..., a_n of a sum of n nontrivial
    characters; none may vanish mod p, and they are kept canonically in
    [1, p-1].
    """

    __slots__ = ("p", "residues")

    def __init__(self, p: int, residues):
        FpScalar(p, 0)  # primality check
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


def euler_class(rho: LinearRepData) -> CpClass:
    """e(rho) = a_1 ... a_n * c^n; never zero since no weight is."""
    prod = 1
    for a in rho.residues:
        prod = prod * a % rho.p
    return CpClass(rho.p, rho.n, prod)


def l_class_linear(rho: LinearRepData, i: int) -> CpClass:
    """The i-th L-class of a sum of characters: ell_i(a_1..a_n) * c^(2i).

    ell_i has denominators built from primes up to 2i+1 only, so reduction
    mod p is legitimate exactly when p > 2i+1.
    """
    p = rho.p
    if i < 1:
        raise DomainError("L-classes are indexed from 1")
    if p <= 2 * i + 1:
        raise DomainError(
            "ell_%d has denominators divisible by primes up to %d; "
            "p = %d is too small to reduce" % (i, 2 * i + 1, p))
    value = l_table(i).ell(i, rho.residues)
    return CpClass(p, 2 * i, from_rational(p, value))


def chern_character(xi: VirtualRep, j: int) -> CpClass:
    """ch_j(xi) = sum_r m_r r^j / j! * c^j in H^(2j)(BC_p; F_p).

    Defined for j <= p - 1, where j! is invertible; 0^0 counts as 1.
    """
    if xi.k != 1:
        raise DomainError("the mod-p Chern character is for C_p itself")
    p = xi.p
    if j < 0 or j > p - 1:
        raise DomainError("ch_%d is not defined mod %d "
                          "(factorial not invertible)" % (j, p))
    acc = 0
    for r, m in xi.mults.items():
        power = 1 if j == 0 else pow(r, j, p)
        acc = (acc + m * power) % p
    inv_fact = pow(factorial(j) % p, -1, p)
    return CpClass(p, j, acc * inv_fact)


def pullback_l_nonlinear(rho: LinearRepData, xi: VirtualRep, n: int,
                         i: int) -> CpClass:
    """L-class in degree 4i of the twisted total space.

    For 2i < n this is the linear answer l_class_linear(rho, i); for
    2i >= n the correction term enters:

        ell_i(a) * c^(2i)  -  2^(2+2i-n) * e(rho) * ch_(2i-n)(xi).
    """
    if n != rho.n:
        raise DomainError("n = %d does not match the %d weights of rho"
                          % (n, rho.n))
    if xi.p != rho.p or xi.k != 1:
        raise DomainError("xi must be a virtual representation of C_%d" % rho.p)
    linear = l_class_linear(rho, i)
    if 2 * i < n:
        return linear
    p = rho.p
    ch = chern_character(xi, 2 * i - n)
    e = euler_class(rho)
    two_power = pow(2, 2 + 2 * i - n, p)
    corr = FpScalar(p, two_power) * e.coefficient * ch.coefficient
    assert e.half_degree + ch.half_degree == 2 * i
    return CpClass(p, 2 * i, linear.coefficient - corr)
