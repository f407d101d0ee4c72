"""Hermitian and skew-hermitian forms over integral group rings of cyclic
p-groups, and their character-by-character signatures.

A form is a square matrix Lambda over Z[C_{p^k}] with Lambda* = eps Lambda,
eps in {+1, -1}, sesquilinear in the first slot: lambda(x a, y b) =
conj(a) lambda(x, y) b.  Evaluating the group generator at a character
chi^r gives a complex (skew-)hermitian matrix H_r; the multisignature
records signature(H_r) for every r (for skew forms, signature(i H_r)),
packaged as a virtual character.  All of this is computed exactly: the
evaluations live in cyclotomic fields, diagonalization is by congruence,
and pivot signs are certified in the cyclotomic module.

Skew forms carry a quadratic refinement mu, one group-ring value per basis
vector modulo the relations g - eps g^(-1); only its coefficient at the
identity (the Arf datum) survives to the integer invariants, but the full
values are kept so that congruences transport the refinement exactly.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import gcd

from .cyclotomic import CyclotomicNumber, CyclotomicReal, _sub_products
from .errors import DomainError, InvariantViolation, ParseError
from .repring import VirtualRep, _check_group, _CyclicVector
from .scalars import (_decimal, _field, _format_sum, _is_int,
                      _json_document, _read_digits, _read_sum, _skip_space)


class GroupRingElement(_CyclicVector):
    """An element of Z[C_{p^k}], coefficients indexed by exponents of g."""

    __slots__ = ()

    @classmethod
    def zero(cls, p: int, k: int) -> "GroupRingElement":
        return cls(p, k, {})

    @classmethod
    def one(cls, p: int, k: int) -> "GroupRingElement":
        return cls(p, k, {0: 1})

    def _coerce(self, other):
        if isinstance(other, GroupRingElement):
            if (other.p, other.k) != (self.p, self.k):
                raise DomainError("mixed group rings")
            return other
        if isinstance(other, int):
            return GroupRingElement(self.p, self.k, {0: other})
        return NotImplemented

    __radd__ = _CyclicVector.__add__

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        order = self.order
        out = {}
        for r, c in self.coeffs.items():
            for s, d in other.coeffs.items():
                key = (r + s) % order
                out[key] = out.get(key, 0) + c * d
        return GroupRingElement._make(self.p, self.k, out)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, d: int) -> CyclotomicNumber:
        """Image under g -> zeta_d, for d dividing the group order."""
        if d < 1 or self.order % d != 0:
            raise DomainError("%d does not divide the group order %d"
                              % (d, self.order))
        raw = [0] * d
        for r, c in self.coeffs.items():
            raw[r % d] += c
        return CyclotomicNumber._make(d, raw, 1)

    def __eq__(self, other):
        if isinstance(other, int):
            other = GroupRingElement(self.p, self.k, {0: other})
        return (isinstance(other, GroupRingElement)
                and (self.p, self.k) == (other.p, other.k)
                and self.coeffs == other.coeffs)

    __hash__ = _CyclicVector.__hash__

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return "GroupRingElement(%d, %d, %r)" % (self.p, self.k, self.coeffs)

    def __str__(self):
        return format_group_ring(self)


def format_group_ring(x: GroupRingElement) -> str:
    """Canonical text form "c0 + c1*g + c2*g^2 + ...": the signed sum
    (scalars._format_sum) of the nonzero terms by increasing exponent in
    [0, p^k), a coefficient of magnitude 1 not written before g."""
    pieces = []
    for r in sorted(x.coeffs):
        c = x.coeffs[r]
        if r == 0:
            body = _decimal(abs(c))
        else:
            g = "g" if r == 1 else "g^" + _decimal(r)
            body = g if abs(c) == 1 else _decimal(abs(c)) + "*" + g
        pieces.append((c < 0, body))
    return _format_sum(pieces)


def _read_group_ring_term(text: str, pos: int):
    """((exponent, coefficient), the position after it) for the term c, g,
    g^r or c*g^r at pos; c and r are ASCII digits, r with an optional
    leading '-'."""
    coeff = 1
    if "0" <= text[pos] <= "9":
        coeff, pos = _read_digits(text, pos, "a number")
        pos = _skip_space(text, pos)
        if text[pos:pos + 1] == "g":
            raise ParseError("missing '*' between coefficient and g",
                             offset=pos)
        if text[pos:pos + 1] != "*":
            return (0, coeff), pos
        pos = _skip_space(text, pos + 1)
        if text[pos:pos + 1] != "g":
            raise ParseError("expected g after '*'", offset=pos)
    elif text[pos] != "g":
        raise ParseError("expected a coefficient or g", offset=pos)
    exponent, pos = 1, pos + 1
    if text[pos:pos + 1] == "^":
        exponent, pos = _read_digits(text, pos + 1, "exponent digits",
                                     signed=True)
    return (exponent, coeff), pos


def parse_group_ring(text: str, p: int, k: int) -> GroupRingElement:
    """Inverse of format_group_ring: a signed sum (scalars._read_sum) of
    terms c, g, g^r and c*g^r, with any integer exponent r, read mod p^k;
    also accepts explicit 1* coefficients."""
    coeffs = {}
    for sign, (r, c) in _read_sum(text, _read_group_ring_term,
                                  "expected a term"):
        coeffs[r] = coeffs.get(r, 0) + sign * c
    return GroupRingElement(p, k, coeffs)


# ---------------------------------------------------------------------------
# form files: JSON documents whose entries are group-ring strings or integers


def _group_ring_entries(values, where):
    """A list of group-ring strings or JSON integers (not bool)."""
    if not (isinstance(values, list)
            and all(isinstance(x, str) or _is_int(x) for x in values)):
        raise ParseError("%s must be a list of group-ring strings or "
                         "integers" % where)
    return values


# The largest group order p^k a form file may ask for.  multisignature on
# rank-4 random_form(p, k, 1, 4, 0) takes 0.01 s at order 125, 0.04 s at
# 113, 0.03 s at 127, 0.23 s at 151, 0.22 s at 199, 1.6 s at 331 and over
# 20 s at 3^7 (a shared 2-core x86-64 box).  Rank-1 forms past it are
# cheap (about 0.5 s at order 10007), and it refuses them too.
FORM_ORDER_LIMIT = 125

# The keys a form file may hold.  Any other is refused, so that a
# misspelled refinement is not read as a form without one.
FORM_KEYS = ("p", "k", "parity", "matrix", "refinement")


def form_from_json(text: str) -> HermitianForm:
    doc = _json_document(text)
    if isinstance(doc, dict):
        for key in doc:
            if key not in FORM_KEYS:
                raise ParseError("unknown key %r in form" % key)
    p = _field(doc, "p", int, "form")
    k = _field(doc, "k", int, "form")
    # |p|^k >= 2^k > limit once k reaches the limit's bit length; no p ** k
    # then.  Before any entry is parsed, so before p is known to be prime.
    if abs(p) >= 2 and k >= 1 and (k >= FORM_ORDER_LIMIT.bit_length()
                                   or abs(p) ** k > FORM_ORDER_LIMIT):
        raise DomainError("the group order p^k exceeds the form limit %d"
                          % FORM_ORDER_LIMIT)
    parity = _field(doc, "parity", int, "form")
    matrix = [_group_ring_entries(row, "matrix row %d" % a)
              for a, row in enumerate(_field(doc, "matrix", list, "form"))]
    refinement = doc.get("refinement")
    if refinement is not None:
        _group_ring_entries(refinement, "refinement")
    return HermitianForm(p, k, parity, matrix, refinement)


def form_to_json(form: HermitianForm) -> str:
    import json

    doc = {
        "p": form.p,
        "k": form.k,
        "parity": form.parity,
        "matrix": [[format_group_ring(x) for x in row]
                   for row in form.matrix],
    }
    if form.refinement is not None:
        doc["refinement"] = [format_group_ring(x) for x in form.refinement]
    return json.dumps(doc, indent=2) + "\n"


def multisignature_to_json(sign: VirtualRep) -> str:
    """The multisig document: p, k and the [r, m_r] multiplicities."""
    import json

    doc = {"p": sign.p, "k": sign.k, "multiplicities": sign.serialize()}
    return json.dumps(doc, indent=2) + "\n"


def reduce_refinement(x: GroupRingElement, parity: int) -> GroupRingElement:
    """Canonical representative modulo the relations g^s = eps * g^(-s).

    Exponents above half the group order are folded down; for eps = -1 the
    identity coefficient additionally lives mod 2.
    """
    L = x.order
    out = {}
    for r, c in x.coeffs.items():
        if r > L // 2:
            out[L - r] = out.get(L - r, 0) + parity * c
        else:
            out[r] = out.get(r, 0) + c
    if parity == -1:
        out[0] = out.get(0, 0) % 2
    return GroupRingElement._make(x.p, x.k, out)


class HermitianForm:
    """An eps-hermitian form over Z[C_{p^k}], with refinement.

    matrix[a][b] = lambda(v_a, v_b); the parity axiom lambda(y, x) =
    eps * conj(lambda(x, y)) makes the matrix equal to eps times its
    conjugate transpose.  Skew forms (eps = -1) carry the quadratic
    refinement values mu(v_a), reduced mod g - eps g^(-1); hermitian forms
    carry none, their refinement quotient being trivial.

    The constructor is for outside input: each entry and refinement value
    may be a GroupRingElement over (p, k), an int or a group-ring string,
    and is coerced by _entry.  _make is for the forms lforms builds from
    GroupRingElements over (p, k) it made itself or took from checked
    forms; it trusts their type and ring and skips only _entry.  Both run
    every form-level check, in this order: the group (_check_group), the
    parity, the square shape, eps-symmetry over the pairs a <= b, and for
    skew forms the refinement's length and its compatibility with the
    diagonal after reduce_refinement.  Neither checks that the form is
    nonsingular: multisignature does, character by character.
    """

    def __init__(self, p: int, k: int, parity: int, matrix, refinement=None):
        # first, so that an empty matrix is checked too
        self._check_kind(p, k, parity)
        entry = self._entry
        self._fill(p, k, parity,
                   [[entry(p, k, x) for x in row] for row in matrix],
                   refinement, entry)

    @classmethod
    def _make(cls, p: int, k: int, parity: int, rows,
              refinement=None) -> "HermitianForm":
        """The form with the given rows of GroupRingElements over (p, k),
        without the per-entry coercion of the constructor."""
        self = object.__new__(cls)
        self._check_kind(p, k, parity)
        self._fill(p, k, parity, rows, refinement)
        return self

    @staticmethod
    def _check_kind(p, k, parity):
        _check_group(p, k)
        if parity not in (1, -1):
            raise DomainError("parity must be +1 or -1")

    def _fill(self, p, k, parity, rows, refinement, entry=None):
        """Sets the form from rows of GroupRingElements over (p, k) after
        the square, symmetry and refinement checks; entry, when given,
        coerces each refinement value first."""
        q = len(rows)
        if any(len(row) != q for row in rows):
            raise DomainError("matrix must be square")
        self.p = p
        self.k = k
        self.parity = parity
        self.matrix = matrix = tuple(map(tuple, rows))
        self.rank = q
        order = p ** k
        for a, row in enumerate(matrix):
            # the condition at (b, a) is the one at (a, b), so the first
            # failure in row-major order always has a <= b
            for b in range(a, q):
                upper = row[b].coeffs
                lower = matrix[b][a].coeffs
                if not upper and not lower:
                    continue
                mirror = {(-r) % order: parity * c for r, c in upper.items()}
                if lower != mirror:
                    raise InvariantViolation(
                        "matrix is not %s-symmetric at (%d, %d)"
                        % ("hermitian" if parity == 1 else "skew", a, b))
        if parity == 1:
            if refinement is not None:
                raise DomainError("hermitian forms carry no refinement data")
            self.refinement = None
        else:
            if refinement is None:
                refinement = [GroupRingElement.zero(p, k)] * q
            elif entry is not None:
                refinement = [entry(p, k, x) for x in refinement]
            ref = [reduce_refinement(x, parity) for x in refinement]
            if len(ref) != q:
                raise DomainError("refinement needs one value per basis vector")
            for a, mu in enumerate(ref):
                # mu + eps conj(mu), eps = -1
                if matrix[a][a] != mu - mu.conjugate():
                    raise InvariantViolation(
                        "refinement incompatible with the form at index %d" % a)
            self.refinement = tuple(ref)

    @staticmethod
    def _entry(p, k, x):
        if isinstance(x, GroupRingElement):
            if (x.p, x.k) != (p, k):
                raise DomainError("entry lives in the wrong group ring")
            return x
        if isinstance(x, int):
            return GroupRingElement(p, k, {0: x})
        if isinstance(x, str):
            return parse_group_ring(x, p, k)
        raise DomainError("matrix entries must be group-ring elements")

    @property
    def order(self) -> int:
        return self.p ** self.k

    def arf_vector(self):
        """Identity coefficients of the refinement, mod 2."""
        if self.refinement is None:
            return None
        return tuple(mu.coefficient(0) % 2 for mu in self.refinement)

    def __eq__(self, other):
        return (isinstance(other, HermitianForm)
                and (self.p, self.k, self.parity) == (other.p, other.k, other.parity)
                and self.matrix == other.matrix
                and self.refinement == other.refinement)

    def __repr__(self):
        return ("HermitianForm(p=%d, k=%d, parity=%+d, rank=%d)"
                % (self.p, self.k, self.parity, self.rank))


def hyperbolic(p: int, k: int, parity: int, half_rank: int) -> HermitianForm:
    """Orthogonal sum of half_rank standard (skew-)hyperbolic planes."""
    if half_rank < 1:
        raise DomainError("need at least one hyperbolic plane")
    q = 2 * half_rank
    zero = GroupRingElement.zero(p, k)
    one = GroupRingElement.one(p, k)
    rows = [[zero] * q for _ in range(q)]
    for h in range(half_rank):
        rows[2 * h][2 * h + 1] = one
        rows[2 * h + 1][2 * h] = parity * one
    refinement = None if parity == 1 else [zero] * q
    return HermitianForm._make(p, k, parity, rows, refinement)


def direct_sum(f1: HermitianForm, f2: HermitianForm) -> HermitianForm:
    if (f1.p, f1.k, f1.parity) != (f2.p, f2.k, f2.parity):
        raise DomainError("forms are not over the same ring and parity")
    zero = GroupRingElement.zero(f1.p, f1.k)
    q1, q2 = f1.rank, f2.rank
    rows = []
    for a in range(q1):
        rows.append(list(f1.matrix[a]) + [zero] * q2)
    for b in range(q2):
        rows.append([zero] * q1 + list(f2.matrix[b]))
    refinement = None
    if f1.parity == -1:
        refinement = f1.refinement + f2.refinement
    return HermitianForm._make(f1.p, f1.k, f1.parity, rows, refinement)


def congruence(form: HermitianForm, change) -> HermitianForm:
    """The form E Lambda E* in the new basis, refinement transported exactly.

    The rows of E express the new basis through conjugated coordinates, so
    mu'(u_a) = sum_c E_ac conj(E_ac) mu_c + sum_{c<d} E_ac Lambda_cd conj(E_ad).
    The products are taken over the nonzero entries of E only: support[a]
    lists the c with E_ac != 0 in increasing order, the sums over c and d
    run over it, and the pairs c < d of the refinement are taken from it.
    """
    p, k, q = form.p, form.k, form.rank
    e = [[HermitianForm._entry(p, k, x) for x in row] for row in change]
    if len(e) != q or any(len(row) != q for row in e):
        raise DomainError("change of basis must be %d x %d" % (q, q))
    lam = form.matrix
    zero = GroupRingElement.zero(p, k)
    support = [[c for c in range(q) if e[a][c]] for a in range(q)]
    half = [[sum((e[a][c] * lam[c][d] for c in support[a]), zero)
             for d in range(q)] for a in range(q)]
    e_star = [[(d, e[b][d].conjugate()) for d in support[b]] for b in range(q)]
    new = [[sum((half[a][d] * y for d, y in e_star[b]), zero)
            for b in range(q)] for a in range(q)]
    refinement = None
    if form.parity == -1:
        refinement = []
        for a in range(q):
            acc = zero
            for c in support[a]:
                acc = acc + e[a][c] * e[a][c].conjugate() * form.refinement[c]
            for c, d in combinations(support[a], 2):
                acc = acc + e[a][c] * lam[c][d] * e[a][d].conjugate()
            refinement.append(acc)
    return HermitianForm._make(p, k, form.parity, new, refinement)


# ---------------------------------------------------------------------------
# multisignature


def _bits(x: CyclotomicNumber) -> int:
    """The size of x = num/den: the bit lengths of den and of each num."""
    return x.den.bit_length() + sum(map(int.bit_length, x.num))


def _diagonalize(mat, level: int):
    """Congruence-diagonalize a hermitian matrix over Q(zeta_level).

    Only the lower triangle is read: row i may stop at a[i][i], and any
    entry above the diagonal stands for the conjugate of its mirror.
    Symmetric block elimination, as in LDL* (Golub-Van Loan, 4.1-4.2) with
    the 1 x 1 and 2 x 2 blocks of Bunch and Parlett (SIAM J. Numer. Anal. 8,
    1971): each step picks a pivot block B of remaining indices and
    replaces the rest A by its Schur complement A - C B^-1 C*, C the
    entries joining the rest to B.  The block is one s with a[s][s] != 0
    when the remaining diagonal has one, chosen by the symmetric
    minimum-degree rule (Markowitz, Management Sci. 3, 1957; George-Liu,
    SIAM Review 31, 1989): the s with the fewest remaining nonzero a[i][s],
    which keeps the fill-in of a sparse matrix small.  Among those it takes
    the a[s][s] of fewest bits (_bits), then the lowest index.  Size matters
    because every update of the step multiplies by a[s][s]^-1, whose height
    over Q(zeta_49) can be far above that of a[s][s]: one large pivot
    spreads its height into every later entry, and the pivots after it
    grow in turn.  If the remaining diagonal is zero, the block is the
    first remaining s with a nonzero entry and the j in adj[s] of least
    degree, the lowest index on ties, which span a hyperbolic plane
    P = [[0, conj(x)], [x, 0]], x = a[j][s] != 0.  det P = -|x|^2 < 0 at
    every embedding, so P has one positive and one negative eigenvalue
    there whatever x is: the step computes nothing for P itself.
    One update serves both blocks: each remaining a[i][l], l <= i, loses
    sum_t left_t(i) right_t(l) over the i and l joined to the block.  For
    s alone there is one term, left(i) = a[i][s] a[s][s]^-1 and right(l) =
    conj(a[l][s]).  For the plane, P^-1 = [[0, w], [conj(w), 0]] with
    w = x^-1, and with u_i = a[i][s] w and v_i = a[i][j] there are two,
    (u_i, conj(v_l)) and (v_i, conj(u_l)).  Each updated entry is one call
    of the cyclotomic kernel _sub_products, which subtracts all its terms
    at once: one reduction mod Phi_level and one gcd, whatever the block.
    An entry that no term reaches is left as it is.  C B^-1 C* is zero
    when a column of C is: a block with no neighbour, or a plane joined to
    the rest through s alone or through j alone, leaves the rest as it is,
    and its step takes no inverse.  Each entry read is conjugated at most
    once.
    adj[i] holds the remaining j != i with a[i][j] != 0; it is built from
    the nonzero entries of the matrix given, and kept exact wherever an
    update creates or cancels an entry.  live maps each remaining i with
    a[i][i] != 0 to _bits(a[i][i]), kept exact where an update writes a
    diagonal entry, so the choice scans only the candidates and measures
    none of them again.

    Returns the blocks in step order, (1, a[s][s]) for a 1 x 1 pivot,
    nonzero and fixed by conjugation, and (2, x) for a plane; raises
    InvariantViolation when the matrix is singular.
    """
    a = [list(row[:i + 1]) for i, row in enumerate(mat)]
    adj = [set() for _ in a]

    def link(i, j, x):
        """Record whether a[i][j], i > j, is the nonzero x."""
        if x:
            adj[i].add(j)
            adj[j].add(i)
        else:
            adj[i].discard(j)
            adj[j].discard(i)

    def entry(i, j):
        """a[i][j] and its conjugate, read from the stored triangle."""
        x = a[i][j] if i > j else a[j][i]
        y = x.conjugate()
        return (x, y) if i > j else (y, x)

    for i, row in enumerate(a):
        for j in range(i):
            if row[j]:
                adj[i].add(j)
                adj[j].add(i)
    live = {i: _bits(row[i]) for i, row in enumerate(a) if row[i]}
    rest = list(range(len(a)))
    blocks = []
    while rest:
        s = min(live, key=lambda i: (len(adj[i]), live[i], i), default=None)
        if s is not None:
            block, x = (s,), a[s][s]
            del live[s]
        else:
            s = next((i for i in rest if adj[i]), None)
            if s is None:
                raise InvariantViolation(
                    "form is singular at a character of order %d" % level)
            j = min(adj[s], key=lambda i: (len(adj[i]), i))
            x = a[j][s]
            block = (s, j)
        blocks.append((len(block), x))
        sides = [adj[b].difference(block) for b in block]
        below = sorted(set().union(*sides))
        for b in block:
            rest.remove(b)
        for i in below:
            adj[i].difference_update(block)
        if not all(sides):
            continue  # a column of C is zero, so C B^-1 C* = 0
        w = x.inverse()
        left, right = [], []  # the terms of each i in below, None where zero
        for i in below:
            if len(block) == 1:
                c, cb = entry(i, s)
                left.append((c * w,))
                right.append((cb,))
            else:
                # s is the first remaining index with an entry, so i > s
                u = a[i][s] * w if i in adj[s] else None
                v, vb = entry(i, j) if i in adj[j] else (None, None)
                left.append((u, v))
                right.append((vb, None if u is None else u.conjugate()))
        for n, i in enumerate(below):
            ai, fs = a[i], left[n]
            for l, ys in zip(below, right[:n + 1]):
                d = _sub_products(ai[l], fs, ys)
                if d is ai[l]:
                    continue  # no term joins i and l
                ai[l] = d
                if l < i:
                    link(i, l, ai[l])
                elif ai[i]:
                    live[i] = _bits(ai[i])
                else:
                    live.pop(i, None)
    return blocks


def multisignature(form: HermitianForm) -> VirtualRep:
    """Signatures of the form at every character, as a virtual character.

    The multiplicity of chi^r is the signature of the complex matrix
    Lambda(zeta^r) for hermitian forms, of i * Lambda(zeta^r) for skew
    ones.  Characters of the same order are Galois conjugates of a single
    exact evaluation, so the lower triangle of the form is evaluated and
    diagonalized once per divisor of the group order and only the pivot
    signs depend on r.  Only the 1 x 1 pivots are signed: a hyperbolic
    plane has one positive and one negative eigenvalue at every embedding
    (_diagonalize), so it adds 0 to every signature.  Each 1 x 1 pivot is
    checked once to be fixed by conjugation, so its images at zeta^t and
    zeta^(-t) agree, and it is signed once per conjugate pair of
    embeddings: at the t <= d/2 coprime to d, the sum written at t and at
    d - t.  Only the nonzero group-ring entries are evaluated: the zero
    ones share one zero per order, and _diagonalize reads the sparsity
    from the evaluated matrix, since a nonzero entry may still vanish at a
    character.  At order d > 1 a
    skew form is evaluated as (g - g^(-1)) Lambda, whose image u Lambda with
    u = zeta - zeta^(-1) is hermitian: at zeta^t, u Lambda =
    2 sin(2 pi t / d) * i Lambda, so the pivot signs flip exactly when
    t > d/2.  At the trivial character u = 0, and i Lambda(1) pairs its
    eigenvalues symmetrically, so the multiplicity is 0 and only the rank
    is checked: u is taken at level 3 instead, zeta_3 - zeta_3^(-1) =
    sqrt(-3), and the real skew S = Lambda(1) has the rank of the
    hermitian sqrt(-3) S, whose zero diagonal makes every step a plane.  A
    singular evaluation at any character means the form was not
    unimodular and raises; the trivial character is checked first.
    Neither the pivot order nor the planes matter: every step, one
    Schur-complement update on a 1 x 1 pivot or on a zero-diagonal pair
    spanning a hyperbolic plane, splits off its block by a congruence, and
    each embedding respects conjugation, so by Sylvester's law of inertia
    the signature there is the sum of the blocks' signatures: the pivot's
    sign for a 1 x 1 block, 0 for a plane.
    """
    p, k, q = form.p, form.k, form.rank
    L = form.order
    skew = form.parity == -1
    evaluate = _skew_evaluate if skew else GroupRingElement.evaluate
    mults = {}
    for j in range(k + 1):
        d = p ** j
        if skew and d == 1:
            # g -> 1 sends an entry to its coefficient sum s, and s to
            # s (zeta_3 - zeta_3^(-1)) = s + 2 s zeta_3; only the rank counts
            sums = [[sum(x.coeffs.values()) for x in row[:i + 1]]
                    for i, row in enumerate(form.matrix)]
            zero = CyclotomicNumber.rational(3, 0)
            try:
                _diagonalize([[CyclotomicNumber._make(3, [s, 2 * s], 1)
                               if s else zero for s in row] for row in sums], 3)
            except InvariantViolation:
                raise InvariantViolation(
                    "form is singular at the trivial character") from None
            mults[0] = 0  # i H_0 pairs eigenvalues symmetrically
            continue
        zero = CyclotomicNumber.rational(d, 0)
        blocks = _diagonalize([[evaluate(x, d) if x.coeffs else zero
                                for x in row[:i + 1]]
                               for i, row in enumerate(form.matrix)], d)
        pivots = [x for size, x in blocks if size == 1]
        if any(x.conjugate() != x for x in pivots):
            raise InvariantViolation(
                "element is not fixed by conjugation, so not real")
        # at d = 1 the one embedding t = 0 is its own conjugate
        for t in range(d // 2 + 1):
            if gcd(t, d) == 1:
                total = sum(CyclotomicReal._make(x, t).sign() for x in pivots)
                mults[(L // d) * t] = total
                mults[(L // d) * (-t % d)] = -total if skew else total
    return VirtualRep(p, k, mults)


def _skew_evaluate(x: GroupRingElement, d: int) -> CyclotomicNumber:
    """(zeta_d - zeta_d^(-1)) * x.evaluate(d), as the image of (g - g^(-1)) x:
    a coefficient c at g^r adds c at r + 1 and -c at r - 1."""
    raw = [0] * d
    for r, c in x.coeffs.items():
        raw[(r + 1) % d] += c
        raw[(r - 1) % d] -= c
    return CyclotomicNumber._make(d, raw, 1)


# ---------------------------------------------------------------------------
# transfer to the subgroup of index p


def _trace(x: GroupRingElement) -> list:
    """The traces Tr(x g^s) in Z[C_{p^(k-1)}] for every shift -p < s < p,
    as a list t of 2p - 1 elements with t[s] = Tr(x g^s), a negative s
    indexing from the end.  Tr(x g^s) keeps the terms of x g^s in the
    subgroup generated by h = g^p, a term c g^(pr) read as c h^r.  A term
    c g^r of x lands in the shift s = -r mod p in [0, p), with exponent
    e = (r + s) / p mod p^(k-1), and, when s != 0, also in s - p, with
    exponent e - 1."""
    p, k = x.p, x.k
    m = p ** (k - 1)
    terms = [{} for _ in range(2 * p - 1)]
    for r, c in x.coeffs.items():
        s = -r % p
        e = (r + s) // p
        terms[s][e % m] = c
        if s:
            terms[s - p][e - 1] = c
    return [GroupRingElement._make(p, k - 1, t) for t in terms]


def transfer(form: HermitianForm) -> HermitianForm:
    """Restriction of scalars to Z[C_{p^(k-1)}].

    The module keeps its lambda and mu but is viewed over the subgroup,
    with basis v_a, v_a g, ..., v_a g^(p-1); entries are traces
    Tr(lambda_ab g^(j-i)), and the refinement of v_a g^i is Tr(mu_a).
    Each nonzero lambda_ab is traced once at every shift (_trace), and its
    trace at shift s fills the diagonal j - i = s of the p x p block (a, b);
    the zero entries share one list of 2p - 1 zero traces.
    """
    if form.k < 2:
        raise DomainError("transfer needs level k >= 2")
    p, k, q = form.p, form.k, form.rank
    zeros = [GroupRingElement._make(p, k - 1, {})] * (2 * p - 1)
    rows = []
    for a in range(q):
        traced = [_trace(lam) if lam.coeffs else zeros
                  for lam in form.matrix[a]]
        for i in range(p):
            rows.append([t[j - i] for t in traced for j in range(p)])
    refinement = None
    if form.parity == -1:
        refinement = []
        for a in range(q):
            refinement.extend([_trace(form.refinement[a])[0]] * p)
    return HermitianForm._make(p, k - 1, form.parity, rows, refinement)


# ---------------------------------------------------------------------------
# integer forms: coefficient form, regular expansion, signature, Arf


class IntegerForm:
    """An integer (skew-)symmetric matrix, optionally with mod-2 refinement."""

    def __init__(self, parity: int, matrix, refinement=None):
        if parity not in (1, -1):
            raise DomainError("parity must be +1 or -1")
        rows = tuple(tuple(int(x) for x in row) for row in matrix)
        q = len(rows)
        if any(len(row) != q for row in rows):
            raise DomainError("matrix must be square")
        for a in range(q):
            for b in range(q):
                if rows[a][b] != parity * rows[b][a]:
                    raise InvariantViolation("matrix parity violated")
        self.parity = parity
        self.matrix = rows
        self.rank = q
        if refinement is None:
            self.refinement = None
        else:
            self.refinement = tuple(int(x) % 2 for x in refinement)
            if len(self.refinement) != q:
                raise DomainError("refinement needs one bit per basis vector")

    def __repr__(self):
        return "IntegerForm(parity=%+d, rank=%d)" % (self.parity, self.rank)


def coefficient_form(form: HermitianForm) -> IntegerForm:
    """The identity-coefficient matrix b(x, y) = coeff_1(lambda(x, y))."""
    rows = [[form.matrix[a][b].coefficient(0) for b in range(form.rank)]
            for a in range(form.rank)]
    return IntegerForm(form.parity, rows, form.arf_vector())


def integer_expansion(form: HermitianForm) -> IntegerForm:
    """The coefficient form of the underlying Z-module, rank q * p^k.

    Basis v_a g^i; the entry at ((a,i), (b,j)) is the coefficient of
    g^(i-j) in lambda_ab.  Its signature (for hermitian forms) equals the
    sum of all multisignature values.
    """
    L = form.order
    q = form.rank
    rows = []
    for a in range(q):
        for i in range(L):
            row = []
            for b in range(q):
                lam = form.matrix[a][b]
                for j in range(L):
                    row.append(lam.coefficient(i - j))
            rows.append(row)
    refinement = None
    if form.parity == -1:
        refinement = []
        for a in range(q):
            refinement.extend([form.refinement[a].coefficient(0) % 2] * L)
    return IntegerForm(form.parity, rows, refinement)


def random_form(p: int, k: int, parity: int, rank: int, seed: int) -> HermitianForm:
    """A seeded unimodular test form of the given rank.

    Starts from a hyperbolic form, or for parity +1 possibly a diagonal of
    units, then applies one to six elementary congruences I + alpha e_cd
    whose off-diagonal entry has group-ring support at most three and
    coefficients in [-2, 2].  Transvections are invertible over the group
    ring, so the result stays unimodular.
    """
    if rank < 1:
        raise DomainError("a form needs rank at least 1")
    rng = random.Random(seed)
    if parity == -1 and rank % 2:
        raise DomainError("skew forms have even rank")
    if parity == 1 and (rank % 2 or rng.random() < 0.5):
        diag = [rng.choice((1, -1)) for _ in range(rank)]
        rows = [[diag[a] if a == b else 0 for b in range(rank)]
                for a in range(rank)]
        form = HermitianForm(p, k, 1, rows)
    else:
        form = hyperbolic(p, k, parity, rank // 2)
    order = p ** k
    zero, one = GroupRingElement.zero(p, k), GroupRingElement.one(p, k)
    for _ in range(rng.randint(1, 6)):
        e = [[one if a == b else zero for b in range(rank)]
             for a in range(rank)]
        c = rng.randrange(rank)
        if rank == 1:
            # no transvections in rank one; rescale by a trivial unit
            e[0][0] = GroupRingElement(p, k,
                                       {rng.randrange(order): rng.choice((1, -1))})
        else:
            d = rng.randrange(rank - 1)
            if d >= c:
                d += 1
            alpha = GroupRingElement(p, k, {
                rng.randrange(order): rng.randint(-2, 2)
                for _ in range(rng.randint(1, 3))})
            e[c][d] = e[c][d] + alpha
        form = congruence(form, e)
    return form


def signature_int(b: IntegerForm) -> int:
    """Signature of a nondegenerate symmetric integer matrix, exactly.

    The matrix is the hermitian form at the trivial character, so its
    lower triangle goes through _diagonalize at level 1 and the 1 x 1
    pivots are signed as multisignature signs them there; by Sylvester's
    law of inertia their signs count the positive and negative eigenvalues
    but for the planes.  When no diagonal entry remains, a plane
    [[0, x], [x, 0]] is the step's block, with det -x^2 < 0: one positive
    and one negative eigenvalue, so it adds 0 and is not signed, as at
    every level.  A singular matrix raises InvariantViolation.
    """
    if b.parity != 1:
        raise DomainError("signature is for symmetric forms")
    blocks = _diagonalize([[CyclotomicNumber._make(1, [x], 1)
                            for x in row[:i + 1]]
                           for i, row in enumerate(b.matrix)], 1)
    return sum(CyclotomicReal._make(x, 0).sign()
               for size, x in blocks if size == 1)


def arf(b: IntegerForm) -> int:
    """Arf invariant of the mod-2 quadratic form attached to a skew form.

    The bilinear form mod 2 must be nondegenerate (it is symplectic, since
    integer skew matrices have even diagonal); the quadratic form on the
    lattice is determined by the refinement bits via
    q(x + y) = q(x) + q(y) + b(x, y).
    """
    if b.parity != -1:
        raise DomainError("the Arf invariant is for skew forms")
    if b.refinement is None:
        raise DomainError("Arf needs the mod-2 refinement vector")
    q = b.rank
    gram = [[x % 2 for x in row] for row in b.matrix]
    qvec = list(b.refinement)
    remaining = list(range(q))
    total = 0
    while remaining:
        i = remaining[0]
        j = None
        for cand in remaining[1:]:
            if gram[i][cand]:
                j = cand
                break
        if j is None:
            raise InvariantViolation("mod-2 form is degenerate")
        total += qvec[i] * qvec[j]
        rest = [l for l in remaining if l not in (i, j)]
        for l in rest:
            alpha = gram[l][j]
            beta = gram[l][i]
            if alpha or beta:
                qvec[l] = (qvec[l] + alpha * qvec[i] + beta * qvec[j]
                           + alpha * beta) % 2
                for m_ in range(q):
                    gram[l][m_] = (gram[l][m_] + alpha * gram[i][m_]
                                   + beta * gram[j][m_]) % 2
                for m_ in range(q):
                    gram[m_][l] = (gram[m_][l] + alpha * gram[m_][i]
                                   + beta * gram[m_][j]) % 2
        remaining = rest
    return total % 2
