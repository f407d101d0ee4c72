import itertools
import random
import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from charwit.cli import parse_polynomial
from charwit.detect import (DetectionProblem, WitnessCertificate,
                            WitnessPoint, build_certificate,
                            find_rational_witness, run_pipeline, specialize,
                            to_l_coordinates, verify_certificate)
from charwit.detect import _l_form_at, _l_form_mod, _prime_support
from charwit.errors import CharwitError, DomainError, InvariantViolation
from charwit.repring import VirtualRep
from charwit.scalars import from_rational
from charwit.symfun import GradedPolynomial, ell_polynomial, l_table


def evar(n):
    return GradedPolynomial.variable("e", n)


def pvar(i):
    return GradedPolynomial.variable("p%d" % i, 2 * i)


def xvar(i):
    return GradedPolynomial.variable("x%d" % i, 2 * i)


FLAGSHIP = evar(2) ** 2 - pvar(2)


def test_to_l_coordinates_frozen():
    assert to_l_coordinates(pvar(1)) == 3 * xvar(1)
    assert to_l_coordinates(evar(2)) == evar(2)
    assert str(to_l_coordinates(FLAGSHIP)) == "e^2 - 45/7*x2 - 9/7*x1^2"


def test_specialize_examples():
    a = [GradedPolynomial.variable("a%d" % j, 1) for j in range(0, 5)]
    assert specialize(evar(2), 2) == a[1] * a[2]
    assert specialize(xvar(1), 4) == ell_polynomial(1, 4)
    assert specialize(xvar(2), 2) == xvar(2)


def test_problem_bookkeeping():
    prob = DetectionProblem(FLAGSHIP, 2)
    assert (prob.n, prob.k, prob.m, prob.weight) == (2, 1, 2, 4)
    assert prob.coordinate_names() == ["a1", "a2", "x1", "x2"]
    prob = DetectionProblem(pvar(3) - evar(3) ** 2, 3)
    assert (prob.n, prob.k, prob.m, prob.weight) == (3, 2, 3, 6)
    assert prob.coordinate_names() == ["a1", "a2", "a3", "x2", "x3"]


def test_problem_validation():
    with pytest.raises(DomainError):
        DetectionProblem(FLAGSHIP, 1)
    with pytest.raises(DomainError):
        DetectionProblem(GradedPolynomial.zero(), 2)
    with pytest.raises(DomainError):
        DetectionProblem(GradedPolynomial.constant(Fraction(1)), 2)
    with pytest.raises(DomainError):
        DetectionProblem(evar(2) + pvar(2), 2)  # weight 2 vs 4
    with pytest.raises(DomainError):
        DetectionProblem(evar(3) ** 2 - pvar(2), 2)  # e carries weight 3
    with pytest.raises(DomainError):
        DetectionProblem(GradedPolynomial.variable("q1", 2), 2)
    with pytest.raises(DomainError):
        DetectionProblem(FLAGSHIP, 2, m=1)  # below the top index of Xi


def test_witness_flagship():
    prob = DetectionProblem(FLAGSHIP, 2)
    w = find_rational_witness(prob)
    assert w.coordinates == (1, 1, 1, 1)
    assert w.value == Fraction(-47, 7)
    assert w.N == 47


def test_witness_shell_two():
    """9e^2 - p1^2 vanishes at every shell-one point, so the search must
    continue to (1, 1, 2)."""
    prob = DetectionProblem(9 * evar(2) ** 2 - pvar(1) ** 2, 2)
    w = find_rational_witness(prob)
    assert w.coordinates == (1, 1, 2)
    assert w.value == -27
    assert w.N == 3


def test_witness_first_point():
    prob = DetectionProblem(evar(2), 2)
    w = find_rational_witness(prob)
    assert w.coordinates == (1, 1, 1)
    assert w.value == 1
    assert w.N == 3


def test_witness_m_override_widens_z():
    prob = DetectionProblem(9 * evar(2) ** 2 - pvar(1) ** 2, 2, m=3)
    assert prob.coordinate_names() == ["a1", "a2", "x1", "x2", "x3"]
    w = find_rational_witness(prob)
    assert w.coordinates == (1, 1, 2, 1, 1)
    assert w.N == 7  # 2m + 1


def test_witness_point_validation():
    with pytest.raises(InvariantViolation):
        WitnessPoint((1, 1), 0, 5)
    with pytest.raises(InvariantViolation):
        WitnessPoint((1, 7), 1, 5)  # factor 7 above N = 5


def test_flagship_certificate():
    prob = DetectionProblem(FLAGSHIP, 2)
    w = find_rational_witness(prob)
    cert = build_certificate(prob, w, 53)
    assert cert.summary() == "p=53 eval=16 OK"
    assert cert.evaluation == 16  # -47/7 mod 53
    assert cert.residues == (1, 1)
    assert cert.targets == (1, 1)
    assert verify_certificate(cert) == (True, "ok")


def test_certificate_requires_admissible_prime():
    prob = DetectionProblem(FLAGSHIP, 2)
    w = find_rational_witness(prob)
    with pytest.raises(DomainError):
        build_certificate(prob, w, 47)  # not > N
    with pytest.raises(DomainError):
        build_certificate(prob, w, 62)


def test_euler_power_has_square_evaluation():
    """Xi = e^2 needs no L-class data, so the evaluation is just E^2."""
    prob = DetectionProblem(evar(2) ** 2, 2)
    w = find_rational_witness(prob)
    cert = build_certificate(prob, w, 5)
    e = 1
    for a in cert.residues:
        e = e * a % 5
    assert cert.evaluation == e * e % 5
    assert verify_certificate(cert) == (True, "ok")


def test_top_pontryagin_vs_euler_square():
    """p_n - e^2 in rank n = 3: certificates witness that the relation
    fails away from the linear range."""
    certs = run_pipeline(pvar(3) - evar(3) ** 2, 3, 2)
    assert [c.prime for c in certs] == [727, 733]
    for c in certs:
        assert c.evaluation != 0
        assert verify_certificate(c) == (True, "ok")


def test_large_bound_pipeline():
    """e^2 - p1^7 in rank 7 has N = 4733, so each certificate prescribes
    thousands of Chern characters."""
    certs = run_pipeline(evar(7) ** 2 - pvar(1) ** 7, 7, 2)
    assert [c.witness.N for c in certs] == [4733, 4733]
    assert [(c.prime, c.evaluation) for c in certs] \
        == [(4751, 3132), (4759, 4524)]
    for c in certs:
        assert verify_certificate(c) == (True, "ok")


def test_run_pipeline_flagship():
    certs = run_pipeline(FLAGSHIP, 2, 3)
    assert [c.prime for c in certs] == [53, 59, 61]
    for c in certs:
        assert verify_certificate(c) == (True, "ok")


def clone(cert, **overrides):
    fields = dict(problem=cert.problem, witness=cert.witness,
                  prime=cert.prime, residues=cert.residues,
                  targets=cert.targets, xi=cert.xi, euler=cert.euler,
                  l_pullbacks=cert.l_pullbacks, evaluation=cert.evaluation,
                  degree_2r=cert.degree_2r)
    fields.update(overrides)
    return WitnessCertificate(**fields)


@pytest.fixture(scope="module")
def flagship_cert():
    prob = DetectionProblem(FLAGSHIP, 2)
    return build_certificate(prob, find_rational_witness(prob), 53)


def test_verify_names_euler_mismatch(flagship_cert):
    ok, report = verify_certificate(clone(flagship_cert,
                                          euler=flagship_cert.euler + 1))
    assert not ok and report == "euler pullback mismatch"


def test_verify_names_l_mismatch(flagship_cert):
    pulls = dict(flagship_cert.l_pullbacks)
    pulls[2] += 1
    ok, report = verify_certificate(clone(flagship_cert, l_pullbacks=pulls))
    assert not ok and report == "L-pullback mismatch at i = 2"


def test_verify_names_missing_l_index(flagship_cert):
    pulls = dict(flagship_cert.l_pullbacks)
    del pulls[1]
    ok, report = verify_certificate(clone(flagship_cert, l_pullbacks=pulls))
    assert not ok and report == "L-pullback indices are not 1..m"


def test_verify_names_broken_symmetry(flagship_cert):
    xi = flagship_cert.xi + VirtualRep.character(53, 1, 2)
    ok, report = verify_certificate(clone(flagship_cert, xi=xi))
    assert not ok and report == "xi breaks the conjugation symmetry"


def test_verify_names_wrong_xi(flagship_cert):
    bump = VirtualRep(53, 1, {2: 1, 51: 1})  # symmetric but wrong
    ok, report = verify_certificate(clone(flagship_cert,
                                          xi=flagship_cert.xi + bump))
    assert not ok and report == "L-pullback mismatch at i = 1"


def test_verify_names_residue_tamper(flagship_cert):
    ok, report = verify_certificate(clone(flagship_cert, residues=(2, 1)))
    assert not ok and report == "residues do not reduce the witness coordinates"


def test_verify_names_target_tamper(flagship_cert):
    ok, report = verify_certificate(clone(flagship_cert, targets=(2, 1)))
    assert not ok and report == "targets do not reduce the witness coordinates"


def test_verify_names_bad_modulus(flagship_cert):
    ok, report = verify_certificate(clone(flagship_cert, prime=52))
    assert not ok and report == "modulus is not an odd prime"
    ok, report = verify_certificate(clone(flagship_cert, prime=43))
    assert not ok and report == "modulus does not exceed the witness bound N"


def test_verify_catches_cross_prime_data(flagship_cert):
    """Stale xi living mod a different prime must come back as a report,
    not an exception."""
    ok, report = verify_certificate(clone(flagship_cert, prime=59))
    assert not ok and report.startswith("invalid certificate data")


def test_verify_names_evaluation_tamper(flagship_cert):
    ok, report = verify_certificate(clone(flagship_cert,
                                          evaluation=flagship_cert.evaluation + 1))
    assert not ok and report == "evaluation differs from the stored value"


def test_verify_names_witness_mismatch(flagship_cert):
    other = WitnessPoint((1, 1, 1, 1), Fraction(-48, 7), 47)
    ok, report = verify_certificate(clone(flagship_cert, witness=other))
    assert not ok and report == "evaluation differs from Xi(z) mod p"


def test_verify_names_degree_tamper(flagship_cert):
    ok, report = verify_certificate(clone(flagship_cert, degree_2r=10))
    assert not ok and report == "degree bookkeeping is inconsistent"


def test_verify_names_witness_value_forgery(flagship_cert):
    """324/7 agrees with the true value -47/7 mod 53, but not over Q."""
    forged = WitnessPoint((1, 1, 1, 1), Fraction(324, 7), 47)
    ok, report = verify_certificate(clone(flagship_cert, witness=forged))
    assert not ok and report == "witness value differs from Xi(z)"


def test_verify_names_witness_bound_tamper(flagship_cert):
    loose = WitnessPoint((1, 1, 1, 1), Fraction(-47, 7), 48)
    ok, report = verify_certificate(clone(flagship_cert, witness=loose))
    assert not ok and report == "witness bound N differs from its derivation"


def test_verify_names_non_canonical_xi(flagship_cert):
    """53 more copies of the trivial character keep the symmetry and every
    Chern character mod 53, so only the re-derivation of xi sees them."""
    xi = flagship_cert.xi + 53 * VirtualRep.character(53, 1, 0)
    ok, report = verify_certificate(clone(flagship_cert, xi=xi))
    assert not ok and report == ("xi differs from the symmetrized "
                                 "Chern-target solution")


# ---------------------------------------------------------------------------
# the numeric witness search against a symbolic brute-force oracle


@lru_cache(maxsize=None)
def trial_largest_prime_factor(n):
    n, best, d = abs(n), 1, 2
    while d * d <= n:
        while n % d == 0:
            best, n = d, n // d
        d += 1
    return max(best, n) if n > 1 else best


def oracle_witness(problem):
    """First nonzero point of the specialized L-form over the grid: shells
    of growing max-norm, each in lexicographic order of the ranks
    1 < -1 < 2 < -2 < ..."""
    poly = specialize(to_l_coordinates(problem.polynomial), problem.n)
    names = problem.coordinate_names()
    rank = lambda c: 2 * abs(c) - (c > 0)
    for shell in itertools.count(1):
        coords = [c for b in range(1, shell + 1) for c in (b, -b)]
        points = [z for z in itertools.product(coords, repeat=len(names))
                  if max(map(abs, z)) == shell]
        for z in sorted(points, key=lambda z: tuple(map(rank, z))):
            point = {name: Fraction(c) for name, c in zip(names, z)
                     if name in poly.variables()}
            value = poly.evaluate(point)
            if value:
                factors = z + (value.numerator, value.denominator)
                N = max([2 * problem.m + 1]
                        + [trial_largest_prime_factor(c) for c in factors])
                return z, value, N


BENCHMARK_PROBLEMS = [
    ("e^2 - p2", 2), ("p3 - e^2", 3), ("e*p1^2 - p5", 6), ("e^2 - p1^8", 8),
    ("e^2 - p1^5", 5), ("e^2 - p1^6", 6), ("e^2 - p2^2", 4), ("e^4 - p6", 3),
    ("e^6 - p6", 2), ("e^2 - p5", 5), ("e^2 - p4", 4), ("e^2 - p1*p4", 5),
    ("e^2 - p1^7", 7)]


@pytest.mark.parametrize("xi,n", BENCHMARK_PROBLEMS)
def test_witness_matches_symbolic_oracle(xi, n):
    problem = DetectionProblem(parse_polynomial(xi, n), n)
    w = find_rational_witness(problem)
    assert (w.coordinates, w.value, w.N) == oracle_witness(problem)


@st.composite
def small_problems(draw):
    n = draw(st.integers(2, 4))
    weight = draw(st.integers(1, 6))
    monomials = [(a, b1, b2, b3)
                 for a in range(weight // n + 1) for b1 in range(weight // 2 + 1)
                 for b2 in range(weight // 4 + 1) for b3 in range(2)
                 if a * n + 2 * b1 + 4 * b2 + 6 * b3 == weight]
    assume(monomials)
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1,
                           max_size=3, unique=True))
    coeffs = draw(st.lists(st.integers(-4, 4).filter(bool),
                           min_size=len(chosen), max_size=len(chosen)))
    names = ("e", "p1", "p2", "p3")
    weights = (n, 2, 4, 6)
    poly = GradedPolynomial.zero()
    for c, mono in zip(coeffs, chosen):
        term = GradedPolynomial.constant(c)
        for name, w, e in zip(names, weights, mono):
            term = term * GradedPolynomial.variable(name, w) ** e
        poly = poly + term
    return poly, n


@settings(derandomize=True, max_examples=40, deadline=None)
@given(small_problems())
def test_witness_matches_symbolic_oracle_random(case):
    poly, n = case
    problem = DetectionProblem(poly, n)
    w = find_rational_witness(problem)
    assert (w.coordinates, w.value, w.N) == oracle_witness(problem)


def test_prime_support_refuses_exactly_the_unreadable_parts():
    """The refusal boundary is 10^digits for digits =
    sys.get_int_max_str_digits(), here lowered to 640: the power of 2 just
    below it is factored, and 10^640 is refused, as a numerator or as a
    denominator."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        below = 2 ** ((10 ** 640).bit_length() - 1)
        assert _prime_support([Fraction(below), Fraction(3, below)]) == 3
        for part in (Fraction(10 ** 640), Fraction(1, 10 ** 640)):
            with pytest.raises(CharwitError, match="^the witness has a number "
                               "of more than 640 digits, which verify cannot "
                               "read$"):
                _prime_support([Fraction(5), part])
    finally:
        sys.set_int_max_str_digits(saved)


def _outcome(f):
    try:
        return f()
    except DomainError as exc:
        return str(exc)


# 45 L_2 and 945 L_3 have integer coefficients in the p_i, while the P_i
# values divide by 7 (P_2) and by 31 (P_3): Xi built from them cancels
# those denominators at p = 7 and p = 31
L_NUMERATORS = (l_table(3).l(2) * 45, l_table(3).l(3) * 945)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(small_problems(), st.booleans(), st.integers(1, 6),
       st.sampled_from((1, 2, 3, 5, 7, 31)), st.data())
def test_l_form_mod_matches_the_rational_form(case, in_l, power, den, data):
    """The certificate's evaluation, Xi mod p at e and the L-pullbacks,
    summed term by term with pow(u, k, p^(D+1)), is the L-form over Q
    reduced mod p, or the same DomainError: at small primes above 2m + 1,
    7 and 31 among them, at coefficients with denominators p can divide,
    and at Xi written in p2 and p3 or in 45 L_2 and 945 L_3."""
    poly, n = case
    if in_l:
        poly = poly.substitute({name: img for name, img
                                in zip(("p2", "p3"), L_NUMERATORS)
                                if name in poly.variables()})
    problem = DetectionProblem(poly ** power / den, n)
    p = data.draw(st.sampled_from([q for q in (3, 5, 7, 11, 13, 29, 31, 37)
                                   if q > 2 * problem.m + 1]))
    residues = st.integers(0, p - 1)
    e = data.draw(residues)
    x = [None] + [data.draw(residues) for _ in range(problem.m)]
    assert _outcome(lambda: _l_form_mod(problem, e, x.__getitem__, p)) == (
        _outcome(lambda: from_rational(
            p, _l_form_at(problem, e, x.__getitem__))))


L2_NUM, L3_NUM = L_NUMERATORS


@pytest.mark.parametrize("xi, n, p, grid", [
    (46 * evar(2) ** 2 - 7 * pvar(2) + pvar(1) ** 2, 2, 7, None),
    ((evar(2) ** 2 + L2_NUM) / 7, 2, 7, None),
    ((evar(2) ** 2 + L2_NUM) ** 2 / 49, 2, 7, None),
    ((evar(2) ** 3 + L3_NUM) / 31, 2, 31, (1, 5)),
], ids=["cancelled-7", "depth-1", "depth-2", "depth-1-at-31"])
def test_l_form_mod_where_the_terms_have_p_in_their_denominators(xi, n, p,
                                                                 grid):
    """Every e and x_1..x_m in [0, p), x_1..x_(m-1) from grid if given: the
    terms of these Xi have p in their denominators, so p^D times the
    L-form is read mod p^(D+1), and the sweep meets points where the sum
    is p-integral and nonzero mod p."""
    problem = DetectionProblem(xi, n)
    axes = [grid] * (problem.m - 1) if grid else [range(p)] * (problem.m - 1)
    outcomes = set()
    for point in itertools.product(range(p), *axes, range(p)):
        e, x = point[0], (None,) + point[1:]
        got = _outcome(lambda: _l_form_mod(problem, e, x.__getitem__, p))
        assert got == _outcome(lambda: from_rational(
            p, _l_form_at(problem, e, x.__getitem__)))
        outcomes.add(got)
    assert any(isinstance(got, int) and got for got in outcomes)
