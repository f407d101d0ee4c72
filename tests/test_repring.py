import os
import random
import subprocess
import sys
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import charwit
from charwit.cyclic_coh import chern_character
from charwit.errors import DomainError
from charwit.lforms import GroupRingElement
from charwit.repring import (VirtualRep, restrict, solve_chern_targets,
                             symmetrize)


def test_virtual_rep_canonicalization():
    xi = VirtualRep(5, 1, {7: 2, 2: -2, -1: 3})
    assert xi.serialize() == [[4, 3]]
    assert xi.multiplicity(4) == 3
    assert xi.multiplicity(-1) == 3
    assert xi.multiplicity(0) == 0
    assert xi.dim() == 3
    assert xi.order == 5


def test_virtual_rep_arithmetic():
    a = VirtualRep.character(7, 1, 2)
    b = VirtualRep.character(7, 1, 5)
    assert (a + b).serialize() == [[2, 1], [5, 1]]
    assert (a - a).serialize() == []
    assert (3 * a).dim() == 3
    assert a.conjugate() == b
    assert (-a).multiplicity(2) == -1
    with pytest.raises(DomainError):
        a + VirtualRep.character(5, 1, 1)
    with pytest.raises(DomainError):
        VirtualRep(4, 1, {})
    with pytest.raises(DomainError):
        VirtualRep(3, 0, {})


@st.composite
def virtual_reps(draw):
    """Two representations over one C_{p^k}, k up to 3, built through the
    constructor from keys that are negative or past p^k and from values
    that cancel, and an integer factor that may be 0."""
    p, k = draw(st.sampled_from(((3, 1), (3, 2), (5, 1), (5, 2), (3, 3),
                                 (7, 1))))
    order = p ** k
    raw = st.dictionaries(st.integers(-2 * order, 2 * order),
                          st.integers(-3, 3), max_size=6)
    a = draw(raw)
    b = draw(st.one_of(raw, st.just({r: -m for r, m in a.items()})))
    return p, k, a, b, draw(st.integers(-3, 3))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(virtual_reps())
def test_arithmetic_results_are_canonical(case):
    """Sums, negatives, multiples and conjugates build their results
    without the constructor's checks: each equals the constructor's
    result from its own coefficients and from the raw operands, alike in
    VirtualRep and GroupRingElement, whose int multiples are products."""
    p, k, a, b, c = case
    shift = 5 * p ** k     # moves b's keys clear of a's, both in +-2 p^k
    for cls in (VirtualRep, GroupRingElement):
        x, y = cls(p, k, a), cls(p, k, b)
        for result, expected in (
                (x + y, {**a, **{r + shift: m for r, m in b.items()}}),
                (x - y, {**a, **{r + shift: -m for r, m in b.items()}}),
                (-x, {r: -m for r, m in a.items()}),
                (c * x, {r: c * m for r, m in a.items()}),
                (x * c, {r: c * m for r, m in a.items()}),
                (x.conjugate(), {-r: m for r, m in a.items()}),
                *(((symmetrize(x, c), None),) if cls is VirtualRep else ())):
            assert type(result) is cls and (result.p, result.k) == (p, k)
            assert result == cls(p, k, result.coeffs)
            if expected is not None:
                assert result == cls(p, k, expected)


def _symmetrize_by_conjugate(xi, n):
    """symmetrize as it was written before it took one pass: m * (xi +
    (-1)^n conj(xi)) through the arithmetic of VirtualRep."""
    m = (xi.p + 1) // 2
    sign = -1 if n % 2 else 1
    return m * (xi + sign * xi.conjugate())


def test_symmetrize_matches_the_conjugate_sum():
    """Seeded draws at k = 1 and 2, both parities of n, with key 0 drawn
    often and keys that are each other's negatives."""
    rng = random.Random(19)
    for p, k in ((3, 1), (5, 1), (7, 1), (11, 1), (3, 2), (5, 2)):
        order = p ** k
        for n in (2, 3):
            for _ in range(40):
                keys = [0] * rng.randint(0, 2) + [
                    rng.randrange(-order, 2 * order)
                    for _ in range(rng.randint(0, 6))]
                keys += [-r for r in keys[:rng.randint(0, 2)]]
                xi = VirtualRep(p, k, {r: rng.randint(-4, 4) for r in keys})
                assert symmetrize(xi, n).serialize() \
                    == _symmetrize_by_conjugate(xi, n).serialize()


def test_both_vector_types_are_hashable_and_distinct():
    """VirtualRep and GroupRingElement are dict keys and set members by
    value; a VirtualRep never equals a GroupRingElement, even with the
    same p, k and coefficients."""
    data = {1: 2, 4: -1}
    for cls in (VirtualRep, GroupRingElement):
        x, y = cls(5, 2, data), cls(5, 2, {26: 2, -21: -1})
        assert x == y and hash(x) == hash(y)
        assert len({x, y, -x}) == 2
        assert {x: "x"}[y] == "x"
    rep, elt = VirtualRep(5, 2, data), GroupRingElement(5, 2, data)
    assert rep != elt and elt != rep
    assert not rep == elt and not elt == rep
    assert len({rep, elt}) == 2


def test_restrict():
    xi = VirtualRep(3, 2, {3: 1, 4: 2})
    down = restrict(xi)
    assert down.k == 1
    assert down.multiplicity(0) == 1
    assert down.multiplicity(1) == 2
    with pytest.raises(DomainError):
        restrict(down)


def test_solver_roundtrip_frozen():
    xi = solve_chern_targets(5, [0, 1, 0, 0, 0])
    for j in range(5):
        assert chern_character(xi, j) == (1 if j == 1 else 0)


def test_solver_roundtrip_seeded():
    rng = random.Random(13)
    for p in (5, 7, 11, 13, 17):
        for _ in range(20):
            targets = [rng.randrange(p) for _ in range(p)]
            xi = solve_chern_targets(p, targets)
            for j in range(p):
                assert chern_character(xi, j) == targets[j]


def gauss_oracle(p, targets):
    """Multiplicities solving sum_r m_r r^j = j! t_j over F_p (0^0 = 1),
    by row reduction of the full Vandermonde system."""
    rows = [[pow(r, j, p) for r in range(p)] + [factorial(j) * targets[j] % p]
            for j in range(p)]
    for col in range(p):
        piv = next(i for i in range(col, p) if rows[i][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = pow(rows[col][col], -1, p)
        rows[col] = [x * inv % p for x in rows[col]]
        for i in range(p):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[col])]
    return {r: rows[r][p] for r in range(p) if rows[r][p]}


SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@st.composite
def chern_targets(draw):
    p = draw(st.sampled_from(SMALL_PRIMES))
    values = st.integers(-10 ** 6, 10 ** 6)
    if draw(st.booleans()):
        return p, draw(st.lists(values, min_size=p, max_size=p))
    sparse = draw(st.dictionaries(st.integers(0, p - 1), values, max_size=4))
    return p, [sparse.get(j, 0) for j in range(p)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(chern_targets())
def test_solver_matches_elimination_oracle(case):
    p, targets = case
    assert solve_chern_targets(p, targets).mults == gauss_oracle(p, targets)


def _per_s_solve(p, targets):
    """The solve as it was written before it paired s with p - s: one
    power per s and nonzero b_j, m_s = b_0 - sum_j b_j s^(p-1-j)."""
    b = {}
    fact = 1
    for j, t in enumerate(targets):
        if j:
            fact = fact * j % p
        if int(t) * fact % p:
            b[j] = int(t) * fact % p
    mults = {}
    for s in range(p):
        acc = b.get(0, 0)
        for j, bj in b.items():
            acc -= bj * pow(s, p - 1 - j, p)
        mults[s] = acc % p
    return VirtualRep(p, 1, mults)


PRIMES_TO_61 = SMALL_PRIMES + (37, 41, 43, 47, 53, 59, 61)


@st.composite
def chern_targets_to_61(draw):
    """Targets for a prime up to 61, dense or sparse, and in either case
    often nonzero at j = 0 and at j = p - 1."""
    p = draw(st.sampled_from(PRIMES_TO_61))
    values = st.integers(-10 ** 6, 10 ** 6)
    if draw(st.booleans()):
        targets = draw(st.lists(values, min_size=p, max_size=p))
    else:
        sparse = draw(st.dictionaries(st.integers(0, p - 1), values,
                                      max_size=4))
        targets = [sparse.get(j, 0) for j in range(p)]
    for j in draw(st.sets(st.sampled_from((0, p - 1)))):
        targets[j] = draw(values)
    return p, targets


@settings(derandomize=True, max_examples=300, deadline=None)
@given(chern_targets_to_61())
def test_solver_matches_the_per_s_formula(case):
    p, targets = case
    xi = solve_chern_targets(p, targets)
    assert xi == _per_s_solve(p, targets)
    assert xi == VirtualRep(p, 1, xi.mults)


def test_solver_corner_indices():
    """s = 0 and j = p-1 meet in the 0^0 = 1 term of the closed form."""
    for p in SMALL_PRIMES:
        unit = [0] * p
        unit[0] = 1
        assert solve_chern_targets(p, unit) == VirtualRep.character(p, 1, 0)
        top = [0] * p
        top[p - 1] = 1
        regular = VirtualRep(p, 1, {r: 1 for r in range(p)})
        assert solve_chern_targets(p, top) == regular
        for targets in (unit, top):
            assert solve_chern_targets(p, targets).mults \
                == gauss_oracle(p, targets)


def test_import_leaves_numpy_out():
    src = os.path.dirname(os.path.dirname(charwit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, charwit, charwit.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_solver_validation():
    with pytest.raises(DomainError):
        solve_chern_targets(4, [0, 0, 0, 0])
    with pytest.raises(DomainError):
        solve_chern_targets(5, [0, 0, 0])


def test_symmetrize_frozen():
    assert symmetrize(VirtualRep.character(5, 1, 1), 2).serialize() \
        == [[1, 3], [4, 3]]
    assert symmetrize(VirtualRep.character(7, 1, 1), 3).serialize() \
        == [[1, 4], [6, -4]]


def test_symmetrize_properties():
    rng = random.Random(17)
    for p in (5, 11):
        for n in (2, 3, 4, 5):
            sign = -1 if n % 2 else 1
            for _ in range(10):
                xi = VirtualRep(p, 1, {rng.randrange(p): rng.randint(-3, 3)
                                       for _ in range(3)})
                sym = symmetrize(xi, n)
                assert sym.conjugate() == sign * sym
                for j in range(n % 2, p, 2):
                    assert chern_character(sym, j) == chern_character(xi, j)


@pytest.mark.parametrize("p", [2, 9, 733 * 739])
def test_virtual_rep_rejects_non_odd_prime_orders(p):
    VirtualRep(733, 1, {1: 1})  # 733 is now a known odd prime
    with pytest.raises(DomainError,
                       match="group order must be a power of an odd prime"):
        VirtualRep(p, 1, {1: 1})
