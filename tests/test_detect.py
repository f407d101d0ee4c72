import itertools
import random
import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from charwit.detect import (M_LIMIT, DetectionProblem, WitnessCertificate,
                            WitnessPoint, build_certificate,
                            find_rational_witness, run_pipeline, specialize,
                            to_l_coordinates, verify_certificate)
import charwit.detect as detect
import charwit.symfun as symfun
from charwit.detect import (_admission, _integrality, _l_form_at, _l_form_mod,
                            _prime_support)
from charwit.errors import CharwitError, DomainError, InvariantViolation
from charwit.repring import VirtualRep
from charwit.scalars import DIGIT_LIMIT, from_rational, largest_prime_factor
from charwit.symfun import (GradedPolynomial, ell_polynomial, l_table,
                            parse_polynomial)
from test_symfun import CERTIFY_SUITE, WITNESS_SUITE


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


def test_problem_bookkeeping(monkeypatch):
    prob = DetectionProblem(FLAGSHIP, 2)
    assert (prob.n, prob.k, prob.m, prob.weight) == (2, 1, 2, 4)
    assert prob.coordinate_names() == ["a1", "a2", "x1", "x2"]
    prob = DetectionProblem(pvar(3) - evar(3) ** 2, 3)
    assert (prob.n, prob.k, prob.m, prob.weight) == (3, 2, 3, 6)
    assert prob.coordinate_names() == ["a1", "a2", "a3", "x2", "x3"]
    # k = ceil(n/2) in integers, where float division gave 2^52; the m
    # limit, which refuses such an n, is lifted here
    monkeypatch.setattr(detect, "M_LIMIT", 2 ** 53)
    n = 2 ** 53 + 1
    assert DetectionProblem(evar(n), n).k == 2 ** 52 + 1


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
    assert DetectionProblem(pvar(40), 2).m == detect.M_LIMIT == 40
    for xi, n in ((pvar(41), 2), (evar(81), 81)):  # m = 41
        with pytest.raises(DomainError, match="^m exceeds the L-class index "
                           "limit 40$"):
            DetectionProblem(xi, n)


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


def test_witness_point_validation():
    with pytest.raises(InvariantViolation):
        WitnessPoint((1, 1), 0, 2)


def test_witness_point_derives_N():
    """N = max(2m + 1, every prime factor of z and of the value)."""
    assert WitnessPoint((1, 1), 1, 2).N == 5
    assert WitnessPoint((1, 7), 1, 2).N == 7
    assert WitnessPoint((1, Fraction(1, 11)), Fraction(-3, 2), 1).N == 11
    assert WitnessPoint((1, 1), 1, 6).N == 13


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
                  l_pullbacks=cert.l_pullbacks, evaluation=cert.evaluation)
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


XI_DIFFERS = "xi differs from the symmetrized Chern-target solution"


def test_verify_names_broken_symmetry(flagship_cert):
    """An xi without the conjugation symmetry is not the one certify
    derives, which always has it."""
    xi = flagship_cert.xi + VirtualRep.character(53, 1, 2)
    ok, report = verify_certificate(clone(flagship_cert, xi=xi))
    assert not ok and report == XI_DIFFERS


def test_verify_names_wrong_xi(flagship_cert):
    bump = VirtualRep(53, 1, {2: 1, 51: 1})  # symmetric but wrong
    ok, report = verify_certificate(clone(flagship_cert,
                                          xi=flagship_cert.xi + bump))
    assert not ok and report == XI_DIFFERS


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
    not an exception: z = (1, 1, 1, 1) has the same residues and targets
    mod 59, so xi is the first field that differs from the derivation."""
    ok, report = verify_certificate(clone(flagship_cert, prime=59))
    assert not ok and report == XI_DIFFERS


def test_verify_derives_once(flagship_cert, monkeypatch):
    """verify_certificate runs build_certificate's derivation once, xi
    solved from z and p, and derives nothing from the stored xi."""
    calls, solves = [], []
    derive, solve = detect._derive, detect.solve_chern_targets
    monkeypatch.setattr(detect, "_derive",
                        lambda *args: calls.append(args) or derive(*args))
    monkeypatch.setattr(detect, "solve_chern_targets",
                        lambda *args: solves.append(args) or solve(*args))
    assert verify_certificate(flagship_cert) == (True, "ok")
    assert calls == [(flagship_cert.problem, flagship_cert.witness, 53)]
    assert len(solves) == 1


OFF_GRID = "witness has a coordinate outside the search grid"


@pytest.mark.parametrize("p, z, report", [
    (54, (1, 1, 1, 1), "modulus is not an odd prime"),
    (43, (1, 1, 1, 1), "modulus does not exceed the witness bound N"),
    (53, (1, 1, 1), "witness has the wrong number of coordinates"),
    (53, (1, 1, 1, 1, 1), "witness has the wrong number of coordinates"),
    (53, (1, 1, 4, 1), OFF_GRID),
    (53, (1, -4, 1, 1), OFF_GRID),
    (53, (0, 1, 1, 1), OFF_GRID),
    (53, (1, 1, 1, Fraction(1, 2)), OFF_GRID),
    (53, (2 ** 14000, 1, 1, 1), OFF_GRID),
])
def test_build_certificate_names_what_verify_names(flagship_cert, p, z,
                                                   report):
    """build_certificate and verify_certificate admit a prime by one rule
    and name its failures with the same texts; a z without one coordinate
    per a_j and per x_k..x_m, or with one that is not an integer of the
    search grid (1 <= |z_i| <= grid_bound = 3 at weight 4), is refused
    before it is reduced."""
    problem = flagship_cert.problem
    witness = WitnessPoint(z, flagship_cert.witness.value, problem.m)
    with pytest.raises(DomainError) as err:
        build_certificate(problem, witness, p)
    assert str(err.value) == report
    assert verify_certificate(clone(flagship_cert, prime=p,
                                    witness=witness)) == (False, report)


def test_verify_names_evaluation_tamper(flagship_cert):
    ok, report = verify_certificate(clone(flagship_cert,
                                          evaluation=flagship_cert.evaluation + 1))
    assert not ok and report == "evaluation differs from the stored value"


def test_verify_names_witness_mismatch(flagship_cert):
    other = WitnessPoint((1, 1, 1, 1), Fraction(-48, 7), 2)
    ok, report = verify_certificate(clone(flagship_cert, witness=other))
    assert not ok and report == "evaluation differs from Xi(z) mod p"


@pytest.fixture
def factor_calls(monkeypatch):
    """The numbers passed to largest_prime_factor from detect."""
    calls = []

    def counted(n):
        calls.append(n)
        return largest_prime_factor(n)

    monkeypatch.setattr(detect, "largest_prime_factor", counted)
    return calls


def test_verify_does_not_factor_the_witness_again(flagship_cert,
                                                 factor_calls):
    """WitnessPoint factors z and its value when it is built; verify does
    not factor them a second time."""
    assert verify_certificate(flagship_cert) == (True, "ok")
    assert factor_calls == []
    witness = flagship_cert.witness
    assert WitnessPoint(witness.coordinates, witness.value, 2).N == 47
    assert len(factor_calls) == 10  # num and den of 4 z entries and value


@pytest.mark.parametrize("xi, n, calls", [
    ("e^2 - p2", 2, 10),  # 4 z entries and the value
    ("e^4 - p6", 3, 18),  # 8 z entries and the value
])
def test_witness_search_factors_each_number_once(factor_calls, xi, n, calls):
    """find_rational_witness factors the numerator and the denominator of
    each z entry and of the value once, when WitnessPoint derives N."""
    find_rational_witness(DetectionProblem(parse_polynomial(xi, n), n))
    assert len(factor_calls) == calls


@pytest.fixture
def series_calls(monkeypatch):
    """One entry per expansion of the L-series (symfun._l_series)."""
    calls = []
    expand = symfun._l_series
    monkeypatch.setattr(symfun, "_l_series",
                        lambda *args: calls.append(1) or expand(*args))
    return calls


@pytest.mark.parametrize("xi, n", [("e", n) for n in range(2, 2 * M_LIMIT + 1)]
                         + CERTIFY_SUITE)
def test_derive_expands_the_l_series_at_most_twice(series_calls, xi, n):
    """One series for the Chern targets and one for the pullbacks, for every
    m up to M_LIMIT (Xi = e at n = 2..80), however many indices m has."""
    problem = DetectionProblem(parse_polynomial(xi, n), n)
    witness = find_rational_witness(problem)
    p = next(detect.certify_primes(problem, witness))
    series_calls.clear()
    detect._derive(problem, witness, p)
    assert len(series_calls) <= 2


@pytest.mark.parametrize("xi, n", dict.fromkeys(
    [("e", 2 * M_LIMIT)] + CERTIFY_SUITE + WITNESS_SUITE))
def test_witness_search_expands_the_l_series_once_per_point(
        monkeypatch, series_calls, xi, n):
    """Each grid point the search evaluates reads its ell_i off at most one
    series, however many of them Xi asks for."""
    points = []
    value = detect._witness_value
    monkeypatch.setattr(detect, "_witness_value",
                        lambda *args: points.append(1) or value(*args))
    find_rational_witness(DetectionProblem(parse_polynomial(xi, n), n))
    assert len(series_calls) <= len(points)


def test_verify_names_witness_value_forgery(flagship_cert):
    """324/7 agrees with the true value -47/7 mod 53, but not over Q."""
    forged = WitnessPoint((1, 1, 1, 1), Fraction(324, 7), 2)
    ok, report = verify_certificate(clone(flagship_cert, witness=forged))
    assert not ok and report == "witness value differs from Xi(z)"


def test_work_limit_bounds_p_times_the_free_coordinates():
    """e - p1 at n = 2 has one free coordinate, so p * (m - k + 1) = p:
    99991 is the last prime within the limit, 100003 the first past it.
    certify refuses 100003 and verify names it, with the same text."""
    assert detect.WORK_LIMIT == 10 ** 5
    problem = DetectionProblem(parse_polynomial("e - p1", 2), 2)
    witness = find_rational_witness(problem)
    assert verify_certificate(build_certificate(problem, witness, 99991)) == (
        True, "ok")
    report = "p * (m - k + 1) exceeds the work limit 100000"
    with pytest.raises(DomainError, match=r"^p \* \(m - k \+ 1\) exceeds"):
        build_certificate(problem, witness, 100003)
    past = detect._derive(problem, witness, 100003)
    assert verify_certificate(past) == (False, report)


def test_verify_names_non_canonical_xi(flagship_cert):
    """53 more copies of the trivial character keep the symmetry and every
    Chern character mod 53, so only the re-derivation of xi sees them."""
    xi = flagship_cert.xi + 53 * VirtualRep.character(53, 1, 0)
    ok, report = verify_certificate(clone(flagship_cert, xi=xi))
    assert not ok and report == XI_DIFFERS


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


def test_prime_support_refuses_exactly_the_unreadable_parts(monkeypatch):
    """The refusal boundary is 10^DIGIT_LIMIT, whatever int-string limit
    the interpreter is set to (here 640 and 0): the power of 2 just below
    it is factored, and 10^DIGIT_LIMIT is refused before anything is
    factored, as a numerator or as a denominator."""
    below = 2 ** ((10 ** DIGIT_LIMIT).bit_length() - 1)
    report = ("^the witness has a number of more than %d digits, which "
              "verify cannot read$" % DIGIT_LIMIT)
    factored = []
    monkeypatch.setattr(detect, "largest_prime_factor",
                        lambda n: factored.append(n) or largest_prime_factor(n))
    saved = sys.get_int_max_str_digits()
    try:
        for setting in (640, 0):
            sys.set_int_max_str_digits(setting)
            assert _prime_support([Fraction(below), Fraction(3, below)]) == 3
            assert len(factored) == 4
            for part in (Fraction(10 ** DIGIT_LIMIT),
                         Fraction(1, 10 ** DIGIT_LIMIT)):
                with pytest.raises(CharwitError, match=report):
                    _prime_support([Fraction(5), part])
            assert len(factored) == 4
            factored.clear()
    finally:
        sys.set_int_max_str_digits(saved)




# 45 L_2 and 945 L_3 have integer coefficients in the p_i, while the P_i
# values divide by 7 (P_2) and by 31 (P_3): Xi built from them cancels
# those denominators at p = 7 and p = 31
L_NUMERATORS = (l_table(3).l(2) * 45, l_table(3).l(3) * 945)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(small_problems(), st.booleans(), st.integers(1, 6),
       st.sampled_from((1, 2, 3, 5, 7, 31)), st.data())
def test_l_form_mod_matches_the_rational_form(case, in_l, power, den, data):
    """The certificate's evaluation, Xi mod p at e and the L-pullbacks,
    summed term by term with pow(v, k, p), is the L-form over Q reduced mod
    p, at every prime above 2m + 1 where Xi and the P_i are p-integral:
    7 and 31 are drawn whenever no coefficient of Xi has them in its
    denominator and P_2, P_3 do not divide by them, for Xi written in p2
    and p3 or in 45 L_2 and 945 L_3."""
    poly, n = case
    if in_l:
        poly = poly.substitute({name: img for name, img
                                in zip(("p2", "p3"), L_NUMERATORS)
                                if name in poly.variables()})
    problem = DetectionProblem(poly ** power / den, n)
    p = data.draw(st.sampled_from([q for q in (3, 5, 7, 11, 13, 29, 31, 37)
                                   if q > 2 * problem.m + 1
                                   and not _integrality(problem, q)]))
    residues = st.integers(0, p - 1)
    e = data.draw(residues)
    x = [data.draw(residues) for _ in range(problem.m)]
    got = _l_form_mod(problem, e, x, p)
    assert isinstance(got, int)
    assert got == from_rational(p, _l_form_at(problem, e, x))


L2_NUM, L3_NUM = L_NUMERATORS
DENOMINATOR = "modulus divides a denominator of a coefficient of Xi"
L_SERIES = "modulus divides an L-series coefficient"


@pytest.mark.parametrize("xi, n, p, report", [
    (46 * evar(2) ** 2 - 7 * pvar(2) + pvar(1) ** 2, 2, 7, L_SERIES),
    ((evar(2) ** 2 + L2_NUM) / 7, 2, 7, DENOMINATOR),
    ((evar(2) ** 2 + L2_NUM) ** 2 / 49, 2, 7, DENOMINATOR),
    ((evar(2) ** 3 + L3_NUM) / 31, 2, 31, DENOMINATOR),
    (pvar(3), 2, 31, L_SERIES),
    (46 * evar(2) ** 2 - 7 * pvar(2) + pvar(1) ** 2, 2, 11, None),
], ids=["cancelled-7", "depth-1", "depth-2", "depth-1-at-31", "p3-at-31",
        "cancelled-at-11"])
def test_admission_names_the_integrality_rule(xi, n, p, report):
    """Xi cancels the 7 of P_2, or the 31 of P_3, only through coefficients
    with p in their denominators, or it keeps P_2 or P_3 and so divides by
    p: either way p is not admitted, after the five cheaper checks pass,
    and certify_primes skips it.  At 11 the same Xi is admitted."""
    problem = DetectionProblem(xi, n)
    witness = WitnessPoint([1] * (n + problem.m - problem.k + 1), 1,
                           problem.m)
    assert witness.N < p
    assert _admission(problem, witness, p) == report
    assert (p in itertools.takewhile(lambda q: q <= p, detect.certify_primes(
        problem, witness))) == (report is None)


def test_evaluation_budget_refuses_exactly_past_eval_bits():
    """Xi = p1^(j+1) - 3*p1^j*e + e^(j+1) is 1 at z = (1, 1, 1), where
    p1 = 3 and e = 1 take 2 + 1 and 1 + 1 bits, so its terms take
    3(j + 1) + (3j + 2) + 2(j + 1) = 8j + 7 bits in all.  At the largest j
    with 8j + 7 <= EVAL_BITS the witness is that z with N = 3; one power
    more puts the sum past the budget, though each term stays within it,
    so Xi is refused before anything is evaluated over Q, though its terms
    cancel at z."""
    def problem(j):
        return DetectionProblem(parse_polynomial(
            "p1^%d - 3*p1^%d*e + e^%d" % (j + 1, j, j + 1), 2), 2)

    top = (detect.EVAL_BITS - 7) // 8
    witness = find_rational_witness(problem(top))
    assert (witness.coordinates, witness.value, witness.N) == ((1, 1, 1), 1, 3)
    assert 3 * (top + 2) <= detect.EVAL_BITS < 8 * (top + 1) + 7
    with pytest.raises(CharwitError, match="^Xi at z has terms of more "
                       "than %d bits in all" % detect.EVAL_BITS):
        find_rational_witness(problem(top + 1))
