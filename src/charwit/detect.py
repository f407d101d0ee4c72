"""The witness-certificate pipeline.

Given a nonzero homogeneous polynomial Xi in the Euler class e (weight n)
and Pontryagin classes p_i (weight 2i), the pipeline certifies, one odd
prime at a time, that Xi survives evaluation against data constructed from
representations of C_p:

  1. read Xi in L-class coordinates x_i: at given numbers x_i, evaluate Xi
     at p_i = P_i(x_1..x_i), computed numerically by LTable.p_values,
  2. search a deterministic rational grid of points z = (a, x_k..x_m) for
     one where that L-form is nonzero at e = a_1...a_n and x_i = ell_i(a)
     for i below the threshold k = ceil(n/2), x_k..x_m being free; each
     point is evaluated numerically (to_l_coordinates() and specialize()
     give the same polynomial symbolically; the pipeline never calls them),
  3. record the prime bound N from the point and the value,
  4. for each odd prime p > N, realize the free coordinates by a virtual
     representation xi: solve for Chern-character targets and symmetrize,
  5. derive every certificate field from (z, p, xi): the residues, the
     targets, the Euler and L pullbacks and the evaluation, which
     reproduces Xi(z) mod p.

Verification derives every field again from the certificate's own
(z, p, xi), and Xi(z), N and xi themselves, and compares exactly.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import product
from math import ceil, prod

from .cyclic_coh import (euler_class, l_class_linear, pullback_l_nonlinear,
                         LinearRepData)
from .errors import (CharwitError, DomainError, InternalConsistencyError,
                     InvariantViolation)
from .repring import solve_chern_targets, symmetrize
from .scalars import (from_rational, is_odd_prime, largest_prime_factor,
                      odd_primes_above)
from .symfun import ell_polynomial, GradedPolynomial, l_table


class DetectionProblem:
    """A homogeneous polynomial in e and the p_i, with its degree bookkeeping.

    n is the complex rank of the linear representation to be used, so e has
    weight n.  k = ceil(n/2) is the first L-class index that can be
    prescribed freely; m is the largest index that matters, never below k.
    The homogeneous weight r means Xi detects degree 2r.
    """

    def __init__(self, polynomial: GradedPolynomial, n: int, m=None):
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
            elif name.startswith("p") and name[1:].isdigit() and int(name[1:]) >= 1:
                i = int(name[1:])
                if polynomial.var_weight(name) != 2 * i:
                    raise DomainError("%s must carry weight %d" % (name, 2 * i))
                top = max(top, i)
            else:
                raise DomainError("unexpected variable %r; polynomials live in "
                                  "Q[e, p1, p2, ...]" % name)
        r = polynomial.weight()
        if r == 0:
            raise DomainError("a constant polynomial detects nothing")
        self.polynomial = polynomial
        self.n = n
        self.k = ceil(n / 2)
        self.m = max(self.k, top)
        if m is not None:
            if m < self.m:
                raise DomainError("m = %d is below the least admissible "
                                  "index %d" % (m, self.m))
            self.m = m
        self.weight = r
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
    k = ceil(n / 2)
    assignment = {}
    for name in l_polynomial.variables():
        if name == "e":
            names = ["a%d" % j for j in range(1, n + 1)]
            assignment["e"] = GradedPolynomial(
                dict.fromkeys(names, 1),
                {tuple((a, 1) for a in names): Fraction(1)})
        elif name.startswith("x") and int(name[1:]) < k:
            assignment[name] = ell_polynomial(int(name[1:]), n)
    out = l_polynomial.substitute(assignment)
    if out.is_zero():
        raise InternalConsistencyError(
            "specialization of a nonzero polynomial vanished")
    return out


class WitnessPoint:
    """A rational grid point z with nonzero specialized value, plus the
    prime bound N below which no certificate is attempted."""

    def __init__(self, coordinates, value, N: int):
        self.coordinates = tuple(Fraction(c) for c in coordinates)
        self.value = Fraction(value)
        self.N = int(N)
        if self.value == 0:
            raise InvariantViolation("witness value must be nonzero")
        q = _prime_support(self.coordinates + (self.value,))
        if q > self.N:
            raise InvariantViolation(
                "prime factor %d exceeds the bound N = %d" % (q, self.N))

    def __repr__(self):
        return "WitnessPoint(z=%s, value=%s, N=%d)" % (
            "(" + ", ".join(str(c) for c in self.coordinates) + ")",
            self.value, self.N)


def _grid_values(shell: int) -> list:
    """1, -1, 2, -2, ..., shell, -shell."""
    out = []
    for b in range(1, shell + 1):
        out.extend((b, -b))
    return out


def _l_values(problem, e, x):
    """The value of each variable of Xi at e and p_i = P_i(x_1..x_i), over
    Q, where x(i) gives x_i, for i up to Xi's largest p index."""
    top = problem._top
    p = l_table(top).p_values([x(i) for i in range(1, top + 1)]) if top else ()
    return {name: e if name == "e" else p[int(name[1:]) - 1]
            for name in problem.polynomial.variables()}


def _l_form_at(problem, e, x):
    """The L-form of Xi at e and x_i = x(i), over Q."""
    return problem.polynomial.evaluate(_l_values(problem, e, x))


def _p_part(p, q):
    """(t, a, b) with q = p^t * a/b and p dividing neither a nor b, or
    None for q = 0."""
    q = Fraction(q)
    if not q:
        return None
    a, b, t = q.numerator, q.denominator, 0
    while a % p == 0:
        a, t = a // p, t + 1
    while b % p == 0:
        b, t = b // p, t - 1
    return t, a, b


def _l_form_mod(problem, e, x, p):
    """from_rational(p, _l_form_at(problem, e, x)), without the value over
    Q.  A term c * prod v^k of Xi is p^t times a unit u; with D the largest
    -t (0 if none is negative), p^D times the L-form is p-integral and is
    summed mod p^(D+1), each power by pow(u, k, p^(D+1)), so a power costs
    the bit length of its exponent, not the digits of its value over Q.
    Terms with t > 0 vanish mod p.  If p divides the denominator of the
    sum, the evaluation over Q raises from_rational's error."""
    values = {name: _p_part(p, v)
              for name, v in _l_values(problem, e, x).items()}
    terms = []
    for mono, c in problem.polynomial.terms.items():
        factors = [(_p_part(p, c), 1)]
        factors += [(values[name], k) for name, k in mono]
        if all(part for part, _ in factors):
            terms.append((sum(part[0] * k for part, k in factors), factors))
    depth = max([-t for t, _ in terms] + [0])
    modulus = p ** (depth + 1)
    total = 0
    for t, factors in terms:
        if t <= 0:
            term = p ** (t + depth)
            for (_, a, b), k in factors:
                unit = a * pow(b, -1, modulus)
                term = term * pow(unit, k, modulus) % modulus
            total += term
    total %= modulus
    if total % p ** depth:
        return from_rational(p, _l_form_at(problem, e, x))
    return total // p ** depth


def _witness_value(problem, z):
    """Xi at z = (a, x_k..x_m): the L-form at e = a_1...a_n, x_i = ell_i(a)
    for i < k and the free x_i read off z."""
    n, k = problem.n, problem.k
    a = z[:n]
    return _l_form_at(problem, prod(a), lambda i: z[n + i - k] if i >= k
                      else l_table(i).ell(i, a))


def _prime_support(values):
    """The largest prime factor of any numerator or denominator.  A part of
    more digits than sys.get_int_max_str_digits() is refused before it is
    factored: verify could not read it back."""
    digits = sys.get_int_max_str_digits()
    parts = [part for c in values for part in (c.numerator, c.denominator)]
    limit = 10 ** digits if digits else None
    if limit and any(abs(part) >= limit for part in parts):
        raise CharwitError("the witness has a number of more than %d "
                           "digits, which verify cannot read" % digits)
    return max(largest_prime_factor(part) for part in parts)


def _witness_bound(problem, z, value):
    """N = max(2m + 1, every prime factor of z and of the value)."""
    return max(2 * problem.m + 1, _prime_support((*z, value)))


def find_rational_witness(problem: DetectionProblem) -> WitnessPoint:
    """First grid point z = (a, x_k..x_m) where Xi is nonzero on Chern roots.

    The value at z is _witness_value, i.e. specialize(to_l_coordinates(Xi),
    n) at z, computed without expanding either polynomial.  Points are
    ranked by max-norm and then lexicographically, coordinates drawn from
    1, -1, 2, -2, ...; the search is deterministic and finite because the
    P_i are invertible, so the L-form of a nonzero Xi is nonzero, and
    ell_1, ..., ell_(k-1) and a_1...a_n are algebraically independent, so
    it specializes to a nonzero polynomial, which cannot vanish on
    arbitrarily large grids.
    """
    names = problem.coordinate_names()
    value, point = None, None
    shell = 0
    while value is None:
        shell += 1
        values = _grid_values(shell)
        for candidate in product(values, repeat=len(names)):
            if shell > 1 and all(abs(c) < shell for c in candidate):
                continue  # seen in an earlier shell
            v = _witness_value(problem, candidate)
            if v:
                value, point = v, candidate
                break
    return WitnessPoint(point, value, _witness_bound(problem, point, value))


class WitnessCertificate:
    """Everything needed to audit one prime's worth of detection.

    residues: the weights of the linear representation, i.e. z's a-part
    mod p.  targets: the free coordinates x-bar_k..x-bar_m mod p.  xi: the
    correcting virtual representation.  The pullback block records the
    Euler class coefficient and every L-class coefficient; evaluation is
    the coefficient of c^weight in Xi of the pullbacks.
    """

    def __init__(self, problem, witness, prime, residues, targets, xi,
                 euler, l_pullbacks, evaluation, degree_2r=None):
        self.problem = problem
        self.witness = witness
        self.prime = int(prime)
        self.residues = tuple(int(a) for a in residues)
        self.targets = tuple(int(t) for t in targets)
        self.xi = xi
        self.euler = int(euler)
        self.l_pullbacks = {int(i): int(v) for i, v in l_pullbacks.items()}
        self.evaluation = int(evaluation)
        self.degree_2r = (2 * problem.weight if degree_2r is None
                          else int(degree_2r))

    def summary(self) -> str:
        return "p=%d eval=%d OK" % (self.prime, self.evaluation)

    def __repr__(self):
        return "WitnessCertificate(p=%d, eval=%d)" % (self.prime, self.evaluation)


def build_certificate(problem: DetectionProblem, witness: WitnessPoint,
                      p: int) -> WitnessCertificate:
    """The certificate for one prime p > N: solve for xi, then derive."""
    if not is_odd_prime(p):
        raise DomainError("p = %d is not an odd prime" % p)
    if p <= witness.N:
        raise DomainError("p = %d does not exceed the bound N = %d"
                          % (p, witness.N))
    return _derive(problem, witness, p, _correction(problem, witness, p))


def _reduce(problem, witness, p):
    """z mod p: the linear representation of the a-block, and the x-bars."""
    z = witness.coordinates
    return (LinearRepData(p, [from_rational(p, c) for c in z[:problem.n]]),
            tuple(from_rational(p, c) for c in z[problem.n:]))


def _correction(problem, witness, p):
    """The symmetrized virtual representation xi whose L-pullbacks hit the
    x-bars: ell_i(a) - 2^(2+j) e ch_j(xi) = x-bar_i with j = 2i - n."""
    n = problem.n
    rho, xbars = _reduce(problem, witness, p)
    e = euler_class(rho)
    targets = [0] * p
    for i, xbar in enumerate(xbars, problem.k):
        j = 2 * i - n
        assert 0 <= j <= p - 3, "Chern index out of range"
        ell = l_class_linear(rho, i)
        targets[j] = (ell - xbar) * pow(e * pow(2, 2 + j, p), -1, p) % p
    return symmetrize(solve_chern_targets(p, targets), n)


def _derive(problem, witness, p, xi):
    """Every certificate field from (z, p, xi)."""
    rho, xbars = _reduce(problem, witness, p)
    euler = euler_class(rho)
    l_pullbacks = {i: pullback_l_nonlinear(rho, xi, problem.n, i)
                   for i in range(1, problem.m + 1)}
    evaluation = _l_form_mod(problem, euler, l_pullbacks.__getitem__, p)
    return WitnessCertificate(problem, witness, p, rho.residues, xbars, xi,
                              euler, l_pullbacks, evaluation)


def verify_certificate(cert: WitnessCertificate):
    """Derive every field again from (z, p, xi) and compare exactly.

    Returns (ok, report); the report names the first failing check.  All
    domain errors are converted into verification failures, never raised.
    """
    try:
        return _verify(cert)
    except (CharwitError, ZeroDivisionError, ArithmeticError) as exc:
        return False, "invalid certificate data: %s" % exc


def _verify(cert: WitnessCertificate):
    problem, witness, p = cert.problem, cert.witness, cert.prime
    n, k, m = problem.n, problem.k, problem.m
    if not is_odd_prime(p):
        return False, "modulus is not an odd prime"
    if p <= witness.N:
        return False, "modulus does not exceed the witness bound N"
    z = witness.coordinates
    if len(z) != n + (m - k + 1):
        return False, "witness has the wrong number of coordinates"
    # ahead of _derive, whose evaluation of Xi grows with its degree
    if cert.degree_2r != 2 * problem.weight:
        return False, "degree bookkeeping is inconsistent"
    derived = _derive(problem, witness, p, cert.xi)
    if cert.residues != derived.residues:
        return False, "residues do not reduce the witness coordinates"
    if cert.targets != derived.targets:
        return False, "targets do not reduce the witness coordinates"

    sign = -1 if n % 2 else 1
    if cert.xi.conjugate() != sign * cert.xi:
        return False, "xi breaks the conjugation symmetry"

    if cert.euler != derived.euler:
        return False, "euler pullback mismatch"
    if sorted(cert.l_pullbacks) != list(range(1, m + 1)):
        return False, "L-pullback indices are not 1..m"
    for i in range(1, m + 1):
        if cert.l_pullbacks[i] != derived.l_pullbacks[i]:
            return False, "L-pullback mismatch at i = %d" % i
    for i in range(k, m + 1):
        if derived.l_pullbacks[i] != derived.targets[i - k]:
            return False, "target mismatch at i = %d" % i

    if not derived.evaluation:
        return False, "evaluation vanished mod p"
    if cert.evaluation != derived.evaluation:
        return False, "evaluation differs from the stored value"
    if derived.evaluation != from_rational(p, witness.value):
        return False, "evaluation differs from Xi(z) mod p"
    if witness.value != _witness_value(problem, z):
        return False, "witness value differs from Xi(z)"
    if witness.N != _witness_bound(problem, z, witness.value):
        return False, "witness bound N differs from its derivation"
    if cert.xi != _correction(problem, witness, p):
        return False, "xi differs from the symmetrized Chern-target solution"
    return True, "ok"


def run_pipeline(polynomial: GradedPolynomial, n: int,
                 prime_count: int) -> list:
    """Certificates for the first prime_count odd primes above the bound N."""
    if prime_count < 1:
        raise DomainError("need at least one prime")
    problem = DetectionProblem(polynomial, n)
    witness = find_rational_witness(problem)
    certificates = []
    primes = odd_primes_above(witness.N)
    for _ in range(prime_count):
        cert = build_certificate(problem, witness, next(primes))
        ok, report = verify_certificate(cert)
        if not ok:
            raise InternalConsistencyError(
                "freshly built certificate failed verification: %s" % report)
        certificates.append(cert)
    return certificates
