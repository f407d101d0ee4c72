"""The witness-certificate pipeline.

Given a nonzero homogeneous polynomial Xi in the Euler class e (weight n)
and Pontryagin classes p_i (weight 2i), the pipeline certifies, one odd
prime at a time, that Xi survives evaluation against data constructed from
representations of C_p:

  1. rewrite Xi in L-class coordinates x_i via the inverse polynomials P_i,
  2. search a deterministic rational grid of points z = (a, x_k..x_m) for
     one where the L-form is nonzero at e = a_1...a_n and x_i = ell_i(a)
     for i below the threshold k = ceil(n/2), x_k..x_m being free; each
     point is evaluated numerically (specialize() gives the same
     polynomial symbolically, for reference),
  3. record the prime bound N from the point and the value,
  4. for each odd prime p > N, realize the free coordinates by a virtual
     representation: solve for Chern-character targets, symmetrize, and
     assemble pullback values whose Xi-evaluation reproduces Xi(z) mod p,
  5. and independently re-derive everything when verifying a certificate.

Each certificate is self-contained: verification recomputes the pullbacks
from the residues and the representation alone and compares against what
the certificate claims.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import ceil, prod

from .cyclic_coh import (euler_class, l_class_linear, pullback_l_nonlinear,
                         LinearRepData)
from .errors import (CharwitError, DomainError, InternalConsistencyError,
                     InvariantViolation)
from .repring import solve_chern_targets, symmetrize, VirtualRep
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
        self._l_form = None
        self._specialized = None

    def coordinate_names(self) -> list:
        return (["a%d" % j for j in range(1, self.n + 1)]
                + ["x%d" % i for i in range(self.k, self.m + 1)])

    def l_form(self) -> GradedPolynomial:
        if self._l_form is None:
            self._l_form = to_l_coordinates(self.polynomial)
        return self._l_form

    def specialized(self) -> GradedPolynomial:
        if self._specialized is None:
            self._specialized = specialize(self.l_form(), self.n)
        return self._specialized

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
    return polynomial.substitute(assignment, check_weights=True)


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
            mono = GradedPolynomial.constant(1)
            for j in range(1, n + 1):
                mono = mono * GradedPolynomial.variable("a%d" % j, 1)
            assignment["e"] = mono
        elif name.startswith("x") and int(name[1:]) < k:
            assignment[name] = ell_polynomial(int(name[1:]), n)
    out = l_polynomial.substitute(assignment, check_weights=True)
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
        for q in self._prime_factors():
            if q > self.N:
                raise InvariantViolation(
                    "prime factor %d exceeds the bound N = %d" % (q, self.N))

    def _prime_factors(self):
        out = set()
        for c in self.coordinates + (self.value,):
            out.add(largest_prime_factor(c.numerator))
            out.add(largest_prime_factor(c.denominator))
        return out

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


def find_rational_witness(problem: DetectionProblem) -> WitnessPoint:
    """First grid point z = (a, x_k..x_m) where Xi is nonzero on Chern roots.

    The value at z is the L-form of Xi at e = a_1...a_n, x_i = ell_i(a)
    for i < k and the free x_i read off z, i.e. problem.specialized() at
    z, computed without expanding that polynomial.  Points are ranked by
    max-norm and then lexicographically, coordinates drawn from 1, -1, 2,
    -2, ...; the search is deterministic and finite because ell_1, ...,
    ell_(k-1) and a_1...a_n are algebraically independent, so a nonzero
    L-form specializes to a nonzero polynomial, which cannot vanish on
    arbitrarily large grids.
    """
    xi_l = problem.l_form()
    if xi_l.is_zero():
        raise InternalConsistencyError("L-form of a nonzero polynomial vanished")
    n = problem.n
    names = problem.coordinate_names()

    def value_at(candidate):
        a = candidate[:n]
        free = dict(zip(names[n:], candidate[n:]))
        point = {}
        for name in xi_l.variables():
            if name == "e":
                point[name] = prod(a)
            elif name in free:
                point[name] = free[name]
            else:
                i = int(name[1:])
                point[name] = l_table(i).ell(i, a)
        return xi_l.evaluate(point)

    value, point = None, None
    shell = 0
    while value is None:
        shell += 1
        values = _grid_values(shell)
        for candidate in product(values, repeat=len(names)):
            if shell > 1 and all(abs(c) < shell for c in candidate):
                continue  # seen in an earlier shell
            v = value_at(candidate)
            if v:
                value, point = v, candidate
                break
    bound = 2 * problem.m + 1
    for c in point:
        bound = max(bound, largest_prime_factor(c))
    bound = max(bound, largest_prime_factor(value.numerator),
                largest_prime_factor(value.denominator))
    return WitnessPoint(point, value, bound)


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
    """Assemble and internally check the certificate for one prime p > N."""
    if not is_odd_prime(p):
        raise DomainError("p = %d is not an odd prime" % p)
    if p <= witness.N:
        raise DomainError("p = %d does not exceed the bound N = %d"
                          % (p, witness.N))
    n, k, m = problem.n, problem.k, problem.m
    z = witness.coordinates
    residues = [from_rational(p, c).val for c in z[:n]]
    xbars = {k + t: from_rational(p, z[n + t]).val
             for t in range(m - k + 1)}
    rho = LinearRepData(p, residues)
    e_coeff = euler_class(rho).coefficient

    targets = [0] * p
    for i in range(k, m + 1):
        j = 2 * i - n
        assert 0 <= j <= p - 3, "Chern index out of range"
        ell = l_class_linear(rho, i).coefficient
        scale = e_coeff * pow(2, 2 + j, p)
        targets[j] = ((ell - xbars[i]) / scale).val

    xi = symmetrize(solve_chern_targets(p, targets), n)

    l_pullbacks = {}
    for i in range(1, m + 1):
        l_pullbacks[i] = pullback_l_nonlinear(rho, xi, n, i).coefficient.val
        if i >= k and l_pullbacks[i] != xbars[i]:
            raise InternalConsistencyError(
                "pullback at i = %d missed its target" % i)

    evaluation = _evaluate_l_form(problem, p, e_coeff.val, l_pullbacks)
    expected = from_rational(p, witness.value)
    if evaluation != expected:
        raise InternalConsistencyError(
            "evaluation disagrees with the witness value mod %d" % p)
    if not evaluation:
        raise InternalConsistencyError("evaluation vanished mod %d" % p)

    return WitnessCertificate(problem, witness, p, residues,
                              [xbars[i] for i in range(k, m + 1)], xi,
                              e_coeff.val, l_pullbacks, evaluation.val)


def _evaluate_l_form(problem, p, euler_value, l_values):
    """Xi in L-coordinates, evaluated at pullback coefficients mod p."""
    xi_l = problem.l_form()
    point = {}
    for name in xi_l.variables():
        if name == "e":
            point[name] = Fraction(euler_value)
        else:
            point[name] = Fraction(l_values[int(name[1:])])
    return from_rational(p, xi_l.evaluate(point))


def verify_certificate(cert: WitnessCertificate):
    """Recompute the certificate's claims from (residues, xi) alone.

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
    if len(cert.residues) != n:
        return False, "residue count differs from n"
    for a, c in zip(cert.residues, z[:n]):
        if from_rational(p, c).val != a % p:
            return False, "residues do not reduce the witness coordinates"
    if len(cert.targets) != m - k + 1:
        return False, "target count differs from m - k + 1"
    for t, c in zip(cert.targets, z[n:]):
        if from_rational(p, c).val != t % p:
            return False, "targets do not reduce the witness coordinates"

    sign = -1 if n % 2 else 1
    if cert.xi.conjugate() != sign * cert.xi:
        return False, "xi breaks the conjugation symmetry"

    rho = LinearRepData(p, cert.residues)
    if euler_class(rho).coefficient.val != cert.euler % p:
        return False, "euler pullback mismatch"
    if sorted(cert.l_pullbacks) != list(range(1, m + 1)):
        return False, "L-pullback indices are not 1..m"
    recomputed = {}
    for i in range(1, m + 1):
        value = pullback_l_nonlinear(rho, cert.xi, n, i).coefficient.val
        recomputed[i] = value
        if value != cert.l_pullbacks[i] % p:
            return False, "L-pullback mismatch at i = %d" % i
    for i in range(k, m + 1):
        if recomputed[i] != cert.targets[i - k] % p:
            return False, "target mismatch at i = %d" % i

    evaluation = _evaluate_l_form(problem, p, cert.euler, recomputed)
    if not evaluation:
        return False, "evaluation vanished mod p"
    if cert.degree_2r != 2 * problem.weight:
        return False, "degree bookkeeping is inconsistent"
    if evaluation.val != cert.evaluation % p:
        return False, "evaluation differs from the stored value"
    if evaluation != from_rational(p, witness.value):
        return False, "evaluation differs from Xi(z) mod p"
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
