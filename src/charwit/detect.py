"""The witness-certificate pipeline.

Given a nonzero homogeneous polynomial Xi in the Euler class e (weight n)
and Pontryagin classes p_i (weight 2i), the pipeline certifies, one odd
prime at a time, that Xi survives evaluation against data constructed from
representations of C_p:

  1. read Xi in L-class coordinates x_i: at given numbers x_i, evaluate Xi
     at p_i = P_i(x_1..x_i), computed by LTable.p_values over Q in the
     search, and mod p for a certificate,
  2. search a deterministic rational grid of points z = (a, x_k..x_m) for
     one where that L-form is nonzero at e = a_1...a_n and x_i = ell_i(a)
     for i below the threshold k = ceil(n/2), x_k..x_m being free; each
     point is evaluated numerically (to_l_coordinates() and specialize()
     give the same polynomial symbolically; the pipeline never calls them),
  3. record the prime bound N from the point and the value,
  4. admit each odd prime p > N within the work limit at which every
     coefficient of Xi and every P_i value is p-integral (_admission), as
     certify_primes yields them, so that Xi is read mod p by one sum,
  5. derive every certificate field from (z, p) (_derive): the residues,
     the targets, the virtual representation xi realizing the free
     coordinates (Chern-character targets solved, then symmetrized), the
     Euler and L pullbacks and the evaluation, then check its claims once
     (_claims): the targets are hit and the evaluation is Xi(z) mod p, not 0.

Verification runs the same admission, derivation and claims, compares
every stored field with the derivation and checks Xi(z) over Q; N is
derived by WitnessPoint only.  It bounds what it reads before it works
on it, in the order it runs: (1) parsing, each integer and each part of
a rational of at most DIGIT_LIMIT digits (scalars), and, as the reader's
last rule, after its rules of (2) to (5), the canonical text: exactly
what certificate_to_json writes for the certificate read; (2) the
problem's bookkeeping, m at most M_LIMIT before any L-table is built;
(3) the grid rule (_grid), before anything in z is factored, reduced or
evaluated; (4) N, the one factoring step (WitnessPoint): z's entries are
at most grid_bound by then, so only the value's numerator and
denominator reach largest_prime_factor; (5) the rules on p (_admission),
p * (m - k + 1) within WORK_LIMIT among them; (6) the derivation
(_derive), each exponent taken by pow(., ., p); (7) Xi(z) over Q, its
terms held to EVAL_BITS in all before any is evaluated, in search and
verify alike.  The certificate document is written and read here too,
and the reader accepts exactly the text the writer writes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod

from .cyclic_coh import (euler_class, l_class_linear, pullback_l_nonlinear,
                         LinearRepData)
from .errors import (CharwitError, DomainError, InternalConsistencyError,
                     InvariantViolation, ParseError)
from .repring import VirtualRep, solve_chern_targets, symmetrize
from .scalars import (DIGIT_LIMIT, _decimal, _field, _fraction_text, _is_int,
                      _json_document, _read_digits, _within_limit,
                      from_rational, is_odd_prime, largest_prime_factor,
                      odd_primes_above, rational_from_string,
                      rational_to_string)
from .symfun import (ell_polynomial, GradedPolynomial, l_leading_coefficient,
                     l_table, parse_polynomial)


class DetectionProblem:
    """A homogeneous polynomial in e and the p_i, with its degree bookkeeping.

    n is the complex rank of the linear representation to be used, so e has
    weight n.  k = ceil(n/2) is the first L-class index that can be
    prescribed freely; m = max(k, the largest p index of Xi) is the largest
    index that matters, at most M_LIMIT.  The homogeneous weight r means Xi
    detects degree degree_2r = 2r, and the witness search ends by the shell
    grid_bound = floor(r/2) + 1.  These are derived here and nowhere else.
    """

    def __init__(self, polynomial: GradedPolynomial, n: int):
        if n < 2:
            raise DomainError("need n >= 2")
        if polynomial.is_zero():
            raise DomainError("the zero polynomial detects nothing")
        if not polynomial.is_homogeneous():
            raise DomainError("polynomial must be homogeneous")
        top = 0
        for name in polynomial.variables():
            if name == "e":
                if polynomial.var_weight("e") != n:
                    raise DomainError("e must carry weight n = %d" % n)
                continue
            i = (_read_digits(name, 1, "an index after p")[0]
                 if name[:1] == "p" and name[1:].isdigit() and name.isascii()
                 else 0)
            if i < 1:
                raise DomainError("unexpected variable %r; polynomials live in "
                                  "Q[e, p1, p2, ...]" % name)
            if polynomial.var_weight(name) != 2 * i:
                raise DomainError("%s must carry weight %d" % (name, 2 * i))
            top = max(top, i)
        r = polynomial.weight()
        if r == 0:
            raise DomainError("a constant polynomial detects nothing")
        self.polynomial = polynomial
        self.n = n
        self.k = (n + 1) // 2
        self.m = max(self.k, top)
        if self.m > M_LIMIT:
            raise DomainError("m exceeds the L-class index limit %d" % M_LIMIT)
        self.weight = r
        self.degree_2r = 2 * r
        self.grid_bound = r // 2 + 1
        self._top = top

    def coordinate_names(self) -> list:
        return (["a%d" % j for j in range(1, self.n + 1)]
                + ["x%d" % i for i in range(self.k, self.m + 1)])

    def __repr__(self):
        return ("DetectionProblem(%s, n=%d, k=%d, m=%d, weight=%d)"
                % (self.polynomial, self.n, self.k, self.m, self.weight))


def to_l_coordinates(polynomial: GradedPolynomial) -> GradedPolynomial:
    """Rewrite p_i -> P_i(x_1..x_i), leaving e alone."""
    indices = [int(name[1:]) for name in polynomial.variables()
               if name.startswith("p")]
    if not indices:
        return polynomial
    table = l_table(max(indices))
    assignment = {"p%d" % i: table.p(i) for i in indices}
    return polynomial.substitute(assignment)


def specialize(l_polynomial: GradedPolynomial, n: int) -> GradedPolynomial:
    """Substitute e -> a_1...a_n and x_i -> ell_i(a) for i < ceil(n/2).

    The variables x_i with i >= ceil(n/2) stay free.  The result is nonzero
    for nonzero input because ell_1, ..., ell_(k-1) and the monomial
    a_1...a_n are algebraically independent; a zero result therefore raises.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    k = (n + 1) // 2
    assignment = {}
    for name in l_polynomial.variables():
        if name == "e":
            assignment["e"] = prod(GradedPolynomial.variable("a%d" % j, 1)
                                   for j in range(1, n + 1))
        elif name.startswith("x") and int(name[1:]) < k:
            assignment[name] = ell_polynomial(int(name[1:]), n)
    out = l_polynomial.substitute(assignment)
    if out.is_zero():
        raise InternalConsistencyError(
            "specialization of a nonzero polynomial vanished")
    return out


class WitnessPoint:
    """A rational grid point z with nonzero specialized value, and the prime
    bound N below which no certificate is attempted: N = max(2m + 1, every
    prime factor of z and of the value), derived here and nowhere else."""

    def __init__(self, coordinates, value, m: int):
        self.coordinates = tuple(Fraction(c) for c in coordinates)
        self.value = Fraction(value)
        if self.value == 0:
            raise InvariantViolation("witness value must be nonzero")
        self.N = max(2 * m + 1,
                     _prime_support(self.coordinates + (self.value,)))

    def __repr__(self):
        return "WitnessPoint(z=(%s), value=%s, N=%s)" % (
            ", ".join(map(_fraction_text, self.coordinates)),
            _fraction_text(self.value), _decimal(self.N))


def _l_values(problem, e, x, p=None):
    """The value of each variable of Xi at e and p_i = P_i(x_1..x_i), over
    Q or, given p, mod p, at x = [x_1, x_2, ...] read up to Xi's top index."""
    top = problem._top
    pv = l_table(top).p_values(x[:top], p) if top else ()
    return {name: e if name == "e" else pv[int(name[1:]) - 1]
            for name in problem.polynomial.variables()}


def _l_form_at(problem, e, x):
    """The L-form of Xi at e and x = [x_1, x_2, ...], over Q.  If the sizes
    of its terms, each the sum of k * (bits of numerator + bits of
    denominator) over its factors v^k, add up past EVAL_BITS, it is
    refused before any term is evaluated."""
    values = _l_values(problem, e, x)
    sizes = {name: v.numerator.bit_length() + v.denominator.bit_length()
             for name, v in values.items()}
    if sum(k * sizes[name] for mono in problem.polynomial.terms
           for name, k in mono) > EVAL_BITS:
        raise CharwitError("Xi at z has terms of more than %d bits in all, "
                           "the evaluation budget" % EVAL_BITS)
    return problem.polynomial.evaluate(values)


def _l_form_mod(problem, e, x, p):
    """from_rational(p, _l_form_at(problem, e, x)) without a value over Q:
    at an admitted prime Xi and the P_i are p-integral (_integrality), so
    the P_i series runs mod p and each power is pow(v, k, p), which costs
    the bit length of k, not the digits of a value over Q."""
    return from_rational(p, problem.polynomial.evaluate(
        _l_values(problem, e, x, p), lambda v, k: pow(v, k, p)))


def _witness_value(problem, z):
    """Xi at z = (a, x_k..x_m): the L-form at e = a_1...a_n, x_i = ell_i(a)
    for i < k, from one series up to the last index Xi asks for, and the
    free x_i read off z."""
    n, a, below = problem.n, z[:problem.n], min(problem.k - 1, problem._top)
    ells = l_table(below).ell(a) if below else []
    return _l_form_at(problem, prod(a), ells + list(z[n:]))


def _prime_support(values):
    """The largest prime factor of any numerator or denominator.  A part of
    more than DIGIT_LIMIT digits is refused before anything is factored:
    no certificate can hold it."""
    parts = [part for c in values for part in (c.numerator, c.denominator)]
    if not all(map(_within_limit, parts)):
        raise CharwitError("the witness has a number of more than %d "
                           "digits, which verify cannot read" % DIGIT_LIMIT)
    return max(largest_prime_factor(part) for part in parts)


def find_rational_witness(problem: DetectionProblem) -> WitnessPoint:
    """First grid point z = (a, x_k..x_m) where Xi is nonzero on Chern roots.

    The value at z is _witness_value, i.e. specialize(to_l_coordinates(Xi),
    n) at z, computed without expanding either polynomial.  Points are
    ranked by max-norm and then lexicographically, coordinates drawn from
    1, -1, 2, -2, ...; the search is deterministic and finite because the
    P_i are invertible, so the L-form of a nonzero Xi is nonzero, and
    ell_1, ..., ell_(k-1) and a_1...a_n are algebraically independent, so
    it specializes to a nonzero polynomial.  That polynomial is homogeneous
    of weight r with every coordinate of weight at least 1, so its degree
    in each coordinate is at most r, and it cannot vanish on the grid of
    shell s, a product of 2s >= r + 1 values per coordinate (Alon,
    "Combinatorial Nullstellensatz", Combin. Probab. Comput. 8, 1999,
    Lemma 2.1): the search ends by shell grid_bound = floor(r/2) + 1.
    WitnessPoint derives N from the point.
    """
    names = problem.coordinate_names()
    for shell in range(1, problem.grid_bound + 1):
        values = [v for b in range(1, shell + 1) for v in (b, -b)]
        for candidate in product(values, repeat=len(names)):
            if shell > 1 and all(abs(c) < shell for c in candidate):
                continue  # seen in an earlier shell
            value = _witness_value(problem, candidate)
            if value:
                return WitnessPoint(candidate, value, problem.m)
    raise InternalConsistencyError("no witness within the search grid")


class WitnessCertificate:
    """Everything needed to audit one prime's worth of detection.

    residues: the weights of the linear representation, i.e. z's a-part
    mod p.  targets: the free coordinates x-bar_k..x-bar_m mod p.  xi: the
    correcting virtual representation.  The pullback block records the
    Euler class coefficient and every L-class coefficient; evaluation is
    the coefficient of c^weight in Xi of the pullbacks.
    """

    def __init__(self, problem, witness, prime, residues, targets, xi,
                 euler, l_pullbacks, evaluation):
        self.problem = problem
        self.witness = witness
        self.prime = int(prime)
        self.residues = tuple(int(a) for a in residues)
        self.targets = tuple(int(t) for t in targets)
        self.xi = xi
        self.euler = int(euler)
        self.l_pullbacks = {int(i): int(v) for i, v in l_pullbacks.items()}
        self.evaluation = int(evaluation)

    def summary(self) -> str:
        return "p=%d eval=%d OK" % (self.prime, self.evaluation)

    def __repr__(self):
        return "WitnessCertificate(p=%d, eval=%d)" % (self.prime, self.evaluation)


# ---------------------------------------------------------------------------
# the certificate document: JSON with a fixed key order and integer entries
# only (mod-p values as residues in [0, p), rationals as "num/den" strings),
# so that equal certificates are equal bytes, and verify accepts only those


CERTIFICATE_VERSION = 1

# The layout of json.dumps(doc, indent=2) + "\n" for the certificate
# document, written directly: json.dumps with an indent runs the pure-Python
# encoder, and certify need not import json at all.
_CERTIFICATE = """{
  "version": %d,
  "problem": {
    "xi": "%s",
    "n": %s,
    "m": %s,
    "k": %s,
    "degree_2r": %s
  },
  "witness": {
    "z": %s,
    "value": "%s",
    "N": %s
  },
  "prime": %s,
  "residues": %s,
  "targets": %s,
  "xi_rep": %s,
  "pullbacks": {
    "euler": %s,
    "L": %s
  },
  "evaluation": %s
}
"""


def _json_list(items, depth):
    """JSON values already written, as a list at nesting depth `depth`
    laid out as json.dumps(..., indent=2) lays it out."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _json_pairs(pairs, depth):
    """Two-int lists, as a list at nesting depth `depth`."""
    inner = "\n" + "  " * (depth + 2)
    pair = "[" + inner + "%s," + inner + "%s\n" + "  " * (depth + 1) + "]"
    return _json_list([pair % (_decimal(a), _decimal(b)) for a, b in pairs],
                      depth)


def certificate_to_json(cert: WitnessCertificate) -> str:
    """The canonical certificate text: ints, lists of ints and ASCII strings
    with nothing to escape, every number written by _decimal.  A number of
    more than DIGIT_LIMIT digits, which verify cannot read, raises
    DomainError."""
    problem, witness = cert.problem, cert.witness
    try:
        return _CERTIFICATE % (
            CERTIFICATE_VERSION,
            problem.polynomial, _decimal(problem.n), _decimal(problem.m),
            _decimal(problem.k), _decimal(problem.degree_2r),
            _json_list(['"%s"' % rational_to_string(c)
                        for c in witness.coordinates], 2),
            rational_to_string(witness.value), _decimal(witness.N),
            _decimal(cert.prime),
            _json_list([_decimal(r) for r in cert.residues], 1),
            _json_list([_decimal(t) for t in cert.targets], 1),
            _json_pairs(cert.xi.serialize(), 1),
            _decimal(cert.euler),
            _json_pairs(sorted(cert.l_pullbacks.items()), 2),
            _decimal(cert.evaluation))
    except DomainError as err:  # from _decimal
        raise DomainError("the certificate has a number of more than %d "
                          "digits, which verify cannot read"
                          % DIGIT_LIMIT) from err


def _items(mapping, key, kind, where):
    """The list mapping[key]; kind int asks for JSON integers, str for
    strings."""
    items = _field(mapping, key, list, where)
    for x in items:
        if not (_is_int(x) if kind is int else isinstance(x, kind)):
            raise ParseError("%s in %s must hold only %s" % (
                key, where, "integers" if kind is int else "strings"))
    return items


def _int_pairs(mapping, key, where, shape):
    """The list mapping[key] of two-integer lists, as tuples."""
    pairs = _field(mapping, key, list, where)
    for pair in pairs:  # type() is int refuses bools, unlike isinstance
        if not (type(pair) is list and len(pair) == 2
                and type(pair[0]) is int and type(pair[1]) is int):
            raise ParseError("%s in %s must hold [%s] integer pairs"
                             % (key, where, shape))
    return [tuple(pair) for pair in pairs]


def certificate_from_json(text: str) -> WitnessCertificate:
    """Rebuild a certificate from the exact text certificate_to_json
    writes, and from no other text.

    Structural problems (bad JSON, missing keys, wrong types: every number
    must be a JSON integer and every z entry a string) raise ParseError.
    The stored k, degree_2r and m must be the ones DetectionProblem derives
    from Xi and n, z must keep the grid rule (_grid), which runs before
    WitnessPoint factors anything, the stored N must be the one
    WitnessPoint derives from z, the value and m, the prime an odd prime,
    and last the text must be the canonical text certificate_to_json writes
    for the certificate read, or the first of these that fails raises
    InvariantViolation; all other mathematical content is left for
    verify_certificate to report.  Pass a file's exact text: `charwit
    verify` reads with newline="", where Path.read_text() turns CRLF into
    LF.
    """
    doc = _json_document(text)
    if _field(doc, "version", int, "certificate") != CERTIFICATE_VERSION:
        raise ParseError("unsupported certificate version")
    prob = _field(doc, "problem", dict, "certificate")
    n = _field(prob, "n", int, "problem")
    problem = DetectionProblem(
        parse_polynomial(_field(prob, "xi", str, "problem"), n), n)
    for key, report in (("k", "stored k disagrees with n"),
                        ("degree_2r", "degree bookkeeping is inconsistent"),
                        ("m", "stored m disagrees with Xi and n")):
        if _field(prob, key, int, "problem") != getattr(problem, key):
            raise InvariantViolation(report)
    wit = _field(doc, "witness", dict, "certificate")
    coords = [rational_from_string(s) for s in _items(wit, "z", str, "witness")]
    value = rational_from_string(_field(wit, "value", str, "witness"))
    stored_N = _field(wit, "N", int, "witness")
    report = _grid(problem, coords)
    if report:
        raise InvariantViolation(report)
    witness = WitnessPoint(coords, value, problem.m)
    if stored_N != witness.N:
        raise InvariantViolation("stored N disagrees with z and value")
    prime = _field(doc, "prime", int, "certificate")
    residues = _items(doc, "residues", int, "certificate")
    targets = _items(doc, "targets", int, "certificate")
    xi_rep = dict(_int_pairs(doc, "xi_rep", "certificate", "r, multiplicity"))
    pulls = _field(doc, "pullbacks", dict, "certificate")
    euler = _field(pulls, "euler", int, "pullbacks")
    l_pullbacks = dict(_int_pairs(pulls, "L", "pullbacks", "i, value"))
    evaluation = _field(doc, "evaluation", int, "certificate")
    if not is_odd_prime(prime):
        raise InvariantViolation("modulus is not an odd prime")
    cert = WitnessCertificate(problem, witness, prime, residues, targets,
                              VirtualRep(prime, 1, xi_rep), euler,
                              l_pullbacks, evaluation)
    try:
        canonical = certificate_to_json(cert) == text
    except DomainError:  # a number of more digits than the format holds
        canonical = False
    if not canonical:
        raise InvariantViolation("not the canonical certificate text")
    return cert


# The most work a certificate may ask.  The Chern-target solve fills p
# targets and makes about p/2 modular powers per free coordinate x_k..x_m,
# so certify and verify cost about p * (m - k + 1).  A certificate's ell_i
# and P_i are series mod p; only the search's run over Q, with numbers
# growing with m, so DetectionProblem bounds m apart.  With every series
# over Q, a `charwit verify` within both limits took 0.4-0.55 s at p =
# 99991 and odd n (4.3 MB xi_rep) on a shared 2-core x86-64 box, at most
# 0.16 s otherwise (m = 40: Xi = p40 at n = 2, e at n = 80), one at m = 60
# 0.5 s, and certify --xi e --n 400 (m = 200) 2.8 s.
WORK_LIMIT = 10 ** 5
M_LIMIT = 40

# The largest total size of the terms of Xi at z, as _l_form_at measures
# it, that is evaluated over Q: the witness search and verify evaluate
# there.  p1^1398101 at z = (1, 1, 1), one power at the budget, took 0.1 s
# on a shared 2-core x86-64 box, so p1^1000000 (3 * 10^6) is still
# evaluated and then refused by its digits.  The sum is bounded, not each
# term, since Fraction addition takes gcds of the terms' denominators:
# p3^182361 - p2^182361*p1^182361, each term within the budget, took 4.8 s.
EVAL_BITS = 1 << 22


def _integrality(problem, p):
    """The first rule that keeps Xi or the P_i at integers from being
    p-integral, as its report, or None.  The P_i divide only by indices
    below p and by k c_k = +-l_leading_coefficient(k) for k up to Xi's
    largest p index (Milnor-Stasheff, Characteristic Classes, section 19)."""
    if any(c.denominator % p == 0 for c in problem.polynomial.terms.values()):
        return "modulus divides a denominator of a coefficient of Xi"
    if any(l_leading_coefficient(k).numerator % p == 0
           for k in range(1, problem._top + 1)):
        return "modulus divides an L-series coefficient"


def _grid(problem, z):
    """The grid rule on z, as its report, or None: one coordinate per a_j
    and per x_k..x_m, each an integer with 1 <= |z_i| <= grid_bound, as
    the witness search writes them; one comparison per entry."""
    if len(z) != problem.n + problem.m - problem.k + 1:
        return "witness has the wrong number of coordinates"
    if any(c.denominator != 1 or not 1 <= abs(c) <= problem.grid_bound
           for c in z):
        return "witness has a coordinate outside the search grid"


def _admission(problem, witness, p):
    """The first fact that keeps p from certifying the problem at the
    witness, as its report, or None: p is an odd prime, p > N, p is within
    the work limit, z keeps the grid rule (_grid, which a document meets
    when read), and Xi and the P_i are p-integral (_integrality)."""
    if not is_odd_prime(p):
        return "modulus is not an odd prime"
    if p <= witness.N:
        return "modulus does not exceed the witness bound N"
    if p * (problem.m - problem.k + 1) > WORK_LIMIT:
        return "p * (m - k + 1) exceeds the work limit %d" % WORK_LIMIT
    return _grid(problem, witness.coordinates) or _integrality(problem, p)


def certify_primes(problem: DetectionProblem, witness: WitnessPoint):
    """The odd primes above N that pass _integrality, in increasing order;
    p * (m - k + 1) grows with p, so the work limit is left to _admission."""
    return (p for p in odd_primes_above(witness.N)
            if not _integrality(problem, p))


def build_certificate(problem: DetectionProblem, witness: WitnessPoint,
                      p: int) -> WitnessCertificate:
    """The certificate for one admitted prime p, as _derive makes it, once;
    a failed claim (_claims) raises InternalConsistencyError naming it."""
    report = _admission(problem, witness, p)
    if report:
        raise DomainError(report)
    cert = _derive(problem, witness, p)
    report = _claims(cert)
    if report:
        raise InternalConsistencyError("p=%d FAILED: %s" % (p, report))
    return cert


def _derive(problem, witness, p):
    """Every certificate field from (z, p): z's integers (_grid) reduced
    mod p once, to the linear representation of its a-block and the
    x-bars; the symmetrized virtual representation xi whose L-pullbacks
    hit the x-bars, ell_i(a) - 2^(2+j) e ch_j(xi) = x-bar_i with
    j = 2i - n; then the pullbacks and the evaluation."""
    n, z = problem.n, witness.coordinates
    rho = LinearRepData(p, [c.numerator for c in z[:n]])
    xbars = tuple(c.numerator % p for c in z[n:])
    euler, ells = euler_class(rho), l_class_linear(rho, problem.m)
    chern = [0] * p
    for i, xbar in enumerate(xbars, problem.k):
        j = 2 * i - n
        assert 0 <= j <= p - 3, "Chern index out of range"
        chern[j] = ((ells[i - 1] - xbar)
                    * pow(euler * pow(2, 2 + j, p), -1, p) % p)
    xi = symmetrize(solve_chern_targets(p, chern), n)
    pulled = pullback_l_nonlinear(rho, xi, problem.m)
    return WitnessCertificate(problem, witness, p, rho.residues, xbars, xi,
                              euler, dict(enumerate(pulled, 1)),
                              _l_form_mod(problem, euler, pulled, p))


def _claims(cert):
    """The first failing claim of a derived certificate, or None: the targets
    are hit at i = k..m, and the evaluation is nonzero and Xi(z) mod p."""
    for i, target in enumerate(cert.targets, cert.problem.k):
        if cert.l_pullbacks[i] != target:
            return "target mismatch at i = %d" % i
    if not cert.evaluation:
        return "evaluation vanished mod p"
    if cert.evaluation != from_rational(cert.prime, cert.witness.value):
        return "evaluation differs from Xi(z) mod p"


def verify_certificate(cert: WitnessCertificate):
    """Admit p and derive the certificate as build_certificate does, compare
    every stored field with the derivation, check its claims (_claims) and
    last the witness value over Q.
    Returns (ok, report), the report naming the first failing check; domain
    and arithmetic errors become failures, never raised.  With
    certificate_from_json before it, this is `charwit verify`'s verdict: a
    ParseError is its exit 2, any other CharwitError or (False, report)
    its exit 1 with that report, (True, "ok") its exit 0."""
    try:
        return _verify(cert)
    except (CharwitError, ArithmeticError) as exc:
        return False, "invalid certificate data: %s" % exc


def _verify(cert: WitnessCertificate):
    problem, witness, p = cert.problem, cert.witness, cert.prime
    report = _admission(problem, witness, p)
    if report:
        return False, report
    derived = _derive(problem, witness, p)
    if cert.residues != derived.residues:
        return False, "residues do not reduce the witness coordinates"
    if cert.targets != derived.targets:
        return False, "targets do not reduce the witness coordinates"
    if cert.xi != derived.xi:
        return False, "xi differs from the symmetrized Chern-target solution"
    if cert.euler != derived.euler:
        return False, "euler pullback mismatch"
    if sorted(cert.l_pullbacks) != list(range(1, problem.m + 1)):
        return False, "L-pullback indices are not 1..m"
    for i in range(1, problem.m + 1):
        if cert.l_pullbacks[i] != derived.l_pullbacks[i]:
            return False, "L-pullback mismatch at i = %d" % i
    if cert.evaluation != derived.evaluation:
        return False, "evaluation differs from the stored value"
    report = _claims(derived)
    if report:
        return False, report
    if witness.value != _witness_value(problem, witness.coordinates):
        return False, "witness value differs from Xi(z)"
    return True, "ok"


def run_pipeline(polynomial: GradedPolynomial, n: int,
                 prime_count: int) -> list:
    """Certificates for the first prime_count primes of certify_primes, each
    built, and its claims checked, once by build_certificate."""
    if prime_count < 1:
        raise DomainError("need at least one prime")
    problem = DetectionProblem(polynomial, n)
    witness = find_rational_witness(problem)
    primes = certify_primes(problem, witness)
    return [build_certificate(problem, witness, next(primes))
            for _ in range(prime_count)]
