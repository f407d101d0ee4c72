"""Virtual representations of cyclic p-groups.

The virtual characters of C_{p^k} and the group ring Z[C_{p^k}] are one
lattice, finitely supported integer vectors on Z/p^k, with one
conjugation r -> -r: R(C_n) is the group ring of the dual group (Serre,
Linear Representations of Finite Groups, section 9.1).  _CyclicVector
holds what the two share; VirtualRep, the multiplicities over the
characters chi^0, ..., chi^(p^k - 1), and lforms.GroupRingElement
subclass it.  The module also houses the two constructions the
certificate pipeline needs: prescribing all p Chern-character values of a
virtual representation of C_p at once (a closed-form interpolation over
F_p, by Fermat's little theorem), and averaging a representation into one
with the conjugation symmetry required of a surgery obstruction.
"""

from __future__ import annotations

from .errors import DomainError
from .scalars import is_odd_prime


def _check_group(p: int, k: int) -> None:
    """Refuses a cyclic group C_{p^k} with k < 1 or p not an odd prime."""
    if k < 1:
        raise DomainError("level exponent k must be >= 1")
    if not is_odd_prime(p):
        raise DomainError("group order must be a power of an odd prime")


class _CyclicVector:
    """Int coefficients c_r at r in Z/p^k, p an odd prime and k >= 1.

    coeffs maps r in [0, p^k) to c_r and holds no zeros, so equal vectors
    have equal dicts.  A subclass supplies _coerce, which returns the
    other operand as a vector over the same group, or NotImplemented.
    """

    __slots__ = ("p", "k", "coeffs")

    def __init__(self, p: int, k: int, coeffs: dict):
        """Checks the group by _check_group, reduces the int keys mod
        p^k, sums the int values that land on one key and drops zeros."""
        _check_group(p, k)
        order = p ** k
        clean = {}
        for r, c in coeffs.items():
            c = int(c)
            if c:
                r = int(r) % order
                clean[r] = clean.get(r, 0) + c
        self.p, self.k = p, k
        self.coeffs = {r: c for r, c in clean.items() if c}

    @classmethod
    def _make(cls, p: int, k: int, coeffs: dict):
        """The vector with the given int coefficients at distinct keys in
        [0, p^k), for p and k already checked.  Arithmetic builds its
        results this way, without the constructor's checks.  Zero
        coefficients are dropped."""
        self = object.__new__(cls)
        self.p, self.k = p, k
        self.coeffs = {r: c for r, c in coeffs.items() if c}
        return self

    @property
    def order(self) -> int:
        return self.p ** self.k

    def coefficient(self, r: int) -> int:
        return self.coeffs.get(r % self.order, 0)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for r, c in other.coeffs.items():
            out[r] = out.get(r, 0) + c
        return self._make(self.p, self.k, out)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._make(self.p, self.k,
                          {r: -c for r, c in self.coeffs.items()})

    def conjugate(self):
        """The image under r -> -r."""
        order = self.order
        return self._make(self.p, self.k,
                          {-r % order: c for r, c in self.coeffs.items()})

    def __hash__(self):
        if self.coeffs.keys() <= {0}:  # as a GroupRingElement equals c_0
            return hash(self.coeffs.get(0, 0))
        return hash((self.p, self.k, frozenset(self.coeffs.items())))


class VirtualRep(_CyclicVector):
    """Integer multiplicities m_r of the characters chi^r of C_{p^k}."""

    __slots__ = ()

    @property
    def mults(self) -> dict:
        """The multiplicities {r: m_r}: coeffs, read-only."""
        return self.coeffs

    multiplicity = _CyclicVector.coefficient

    @classmethod
    def character(cls, p: int, k: int, r: int) -> "VirtualRep":
        return cls(p, k, {r: 1})

    def dim(self) -> int:
        return sum(self.coeffs.values())

    def _coerce(self, other):
        if not isinstance(other, VirtualRep):
            return NotImplemented
        if (other.p, other.k) != (self.p, self.k):
            raise DomainError("representations live over different groups")
        return other

    def __mul__(self, c: int):
        if not isinstance(c, int):
            return NotImplemented
        return VirtualRep._make(self.p, self.k,
                                {r: c * m for r, m in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, VirtualRep)
                and (self.p, self.k) == (other.p, other.k)
                and self.coeffs == other.coeffs)

    __hash__ = _CyclicVector.__hash__

    def serialize(self) -> list:
        """Sorted [r, m_r] pairs, zero multiplicities omitted."""
        return [[r, self.coeffs[r]] for r in sorted(self.coeffs)]

    def __repr__(self):
        if not self.coeffs:
            return "VirtualRep(%d, %d, 0)" % (self.p, self.k)
        body = " + ".join("%d*chi^%d" % (m, r)
                          for r, m in sorted(self.coeffs.items()))
        return "VirtualRep(%d, %d, %s)" % (self.p, self.k, body)


def restrict(xi: VirtualRep) -> VirtualRep:
    """Restriction along C_{p^(k-1)} <= C_{p^k}: chi^r -> chi^(r mod p^(k-1))."""
    if xi.k < 2:
        raise DomainError("restriction needs level k >= 2")
    sub = xi.p ** (xi.k - 1)
    out = {}
    for r, m in xi.coeffs.items():
        out[r % sub] = out.get(r % sub, 0) + m
    return VirtualRep(xi.p, xi.k - 1, out)


def solve_chern_targets(p: int, targets) -> VirtualRep:
    """The unique multiplicity vector in [0, p)^p with prescribed ch_j mod p.

    ch_j(chi^r) = r^j / j! in H^(2j)(BC_p; F_p), so multiplicities must solve
    sum_r m_r r^j = b_j := j! * target_j for 0 <= j <= p-1 (0^0 = 1).  Over
    F_p, [r = s] = 1 - (r - s)^(p-1) and C(p-1, j) = (-1)^j, so
    [r = s] = 1 - sum_j r^j s^(p-1-j), and summing against m_r gives

        m_s = b_0 - sum_j b_j s^(p-1-j)  (mod p),

    Lagrange interpolation on all of F_p.  At s = 0 only j = p-1 survives,
    so m_0 = b_0 - b_(p-1).  At s != 0 the j = 0 term is b_0 s^(p-1) = b_0,
    which cancels, and since p - 1 is even, (-s)^(p-1-j) = (-1)^j
    s^(p-1-j): with E and O the sums over the even j > 0 and the odd j,
    m_s = -E - O and m_(p-s) = O - E.  Only nonzero b_j contribute, so the
    cost is one modular power per pair +-s and nonzero target past b_0:
    (p-1)/2 powers each.
    """
    if not is_odd_prime(p):
        raise DomainError("p must be an odd prime")
    targets = list(targets)
    if len(targets) != p:
        raise DomainError("need exactly %d Chern targets, got %d"
                          % (p, len(targets)))
    b = []
    fact = 1
    for j, t in enumerate(targets):
        if j:
            fact = fact * j % p
        b.append(int(t) * fact % p)
    even = [(p - 1 - j, b[j]) for j in range(2, p, 2) if b[j]]
    odd = [(p - 1 - j, b[j]) for j in range(1, p, 2) if b[j]]
    mults = {0: (b[0] - b[-1]) % p}
    for s in range(1, (p + 1) // 2):
        e = o = 0
        for n, bj in even:
            e += bj * pow(s, n, p)
        for n, bj in odd:
            o += bj * pow(s, n, p)
        mults[s] = -(e + o) % p
        mults[p - s] = (o - e) % p
    return VirtualRep._make(p, 1, mults)


def symmetrize(xi: VirtualRep, n: int) -> VirtualRep:
    """m * (xi + (-1)^n conj(xi)), with m the least positive 2m = 1 mod p.

    The result satisfies conj = (-1)^n * itself as an exact integer identity,
    and has the same Chern characters mod p as xi in degrees of the parity
    of n.  Its coefficient at s is m (c_s + (-1)^n c_(-s)), built in one
    pass over the keys of xi and their negatives.
    """
    m = (xi.p + 1) // 2
    sign = -1 if n % 2 else 1
    order, c = xi.order, xi.coeffs
    return VirtualRep._make(xi.p, xi.k, {
        s: m * (c.get(s, 0) + sign * c.get(-s % order, 0))
        for r in c for s in (r, -r % order)})
