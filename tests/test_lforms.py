import functools
import hashlib
import itertools
import json
import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from charwit import form_to_json, lforms
from charwit.errors import DomainError, InvariantViolation, ParseError
from charwit.lforms import (GroupRingElement, HermitianForm, IntegerForm, arf,
                            coefficient_form, congruence, direct_sum,
                            format_group_ring, hyperbolic, integer_expansion,
                            multisignature, parse_group_ring, random_form,
                            reduce_refinement, signature_int, transfer)
from charwit.lforms import _diagonalize, _skew_evaluate
from charwit.cyclotomic import CyclotomicNumber, CyclotomicReal
from charwit.repring import VirtualRep, restrict


def gre(text, p=3, k=1):
    return parse_group_ring(text, p, k)


def e8_form(p=3, k=1):
    m = [[0] * 8 for _ in range(8)]
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)):
        m[i][j] = m[j][i] = -1
    for i in range(8):
        m[i][i] = 2
    return HermitianForm(p, k, 1, m)


def leading_minors(matrix):
    """Sylvester oracle: determinants of leading principal blocks."""
    out = []
    for s in range(1, len(matrix) + 1):
        a = [[Fraction(matrix[i][j]) for j in range(s)] for i in range(s)]
        det = Fraction(1)
        for c in range(s):
            piv = next((i for i in range(c, s) if a[i][c]), None)
            if piv is None:
                det = Fraction(0)
                break
            if piv != c:
                a[c], a[piv] = a[piv], a[c]
                det = -det
            det *= a[c][c]
            for i in range(c + 1, s):
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
        out.append(det)
    return out


# ---------------------------------------------------------------------------
# group ring


def test_group_ring_arithmetic():
    x = gre("2 + g - 3*g^2")
    y = gre("g")
    assert x * y == gre("2*g + g^2 - 3")
    assert x + y == gre("2 + 2*g - 3*g^2")
    assert x - x == GroupRingElement.zero(3, 1)
    assert (x * GroupRingElement.one(3, 1)) == x
    assert 2 * y == gre("2*g")
    assert x.coefficient(1) == 1 and x.coefficient(-1) == -3


def test_group_ring_conjugation():
    x = gre("2 + g - 3*g^2")
    assert x.conjugate() == gre("2 + g^2 - 3*g")
    assert x.conjugate().conjugate() == x
    y = gre("1 + 2*g")
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


def test_group_ring_format_round_trip():
    for text in ("0", "1", "-1", "g", "-g", "2 + g - 3*g^2"):
        assert format_group_ring(gre(text)) == text
    for text in ("g^2 - g", "1*g + 0*g^2", "g + g + g"):
        assert gre(format_group_ring(gre(text))) == gre(text)
    assert format_group_ring(gre("1*g + 0*g^2")) == "g"
    assert format_group_ring(GroupRingElement(3, 1, {2: -1})) == "-g^2"


@st.composite
def group_ring_elements(draw):
    p, k = draw(st.sampled_from([(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]))
    coeffs = draw(st.dictionaries(st.integers(0, p ** k - 1),
                                  st.integers(-10 ** 6, 10 ** 6), max_size=8))
    return GroupRingElement(p, k, coeffs)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(group_ring_elements())
def test_group_ring_format_round_trip_random(x):
    """Negative coefficients and exponents above p^k/2 included."""
    text = format_group_ring(x)
    y = parse_group_ring(text, x.p, x.k)
    assert y == x and format_group_ring(y) == text


def test_group_ring_parse_errors():
    with pytest.raises(ParseError) as err:
        gre("2g")
    assert "offset 1" in str(err.value)
    with pytest.raises(ParseError):
        gre("g^")
    with pytest.raises(ParseError):
        gre("")
    with pytest.raises(ParseError):
        gre("g + + g")
    with pytest.raises(ParseError):
        gre("h")


@pytest.mark.parametrize("text, offset", [
    ("3*", 2), ("3* + g", 3), ("3 *  ", 5), ("g + 2*3", 6), ("2*g^2 - 4*", 10),
])
def test_group_ring_dangling_star(text, offset):
    """A '*' must be followed by g: "3*" is not 3, nor "3* + g" 3 + g."""
    with pytest.raises(ParseError, match="expected g after '\\*'") as err:
        gre(text)
    assert "offset %d" % offset in str(err.value)


@pytest.mark.parametrize("text, message, offset", [
    ("\u0663", "expected a coefficient or g", 0),
    ("g^\u00b2", "expected exponent digits", 2),
    ("g^-\u00b2", "expected exponent digits", 3),
    ("1 + \u0663*g", "expected a coefficient or g", 4),
    ("2\u0663", "expected '+' or '-'", 1),
])
def test_group_ring_digits_are_ascii(text, message, offset):
    """Only 0-9 are digits: an Arabic-Indic three or a superscript two is
    not read as a number."""
    with pytest.raises(ParseError) as err:
        gre(text)
    assert str(err.value) == "%s (at offset %d)" % (message, offset)


def test_group_ring_levels():
    x = GroupRingElement(3, 2, {10: 1})
    assert x.coefficient(1) == 1  # 10 mod 9
    with pytest.raises(DomainError):
        gre("g") + GroupRingElement(3, 2, {0: 1})
    with pytest.raises(DomainError):
        GroupRingElement(4, 1, {0: 1})
    with pytest.raises(DomainError):
        GroupRingElement(3, 1, {0: 1}).evaluate(2)


def test_group_ring_equality_across_groups():
    """Elements of different group rings compare unequal, as virtual
    representations over different groups do, so one set holds both."""
    x, y = GroupRingElement(3, 1, {1: 1}), GroupRingElement(5, 1, {1: 1})
    z = GroupRingElement(3, 2, {1: 1})
    assert x != y and not x == y and x != z
    assert GroupRingElement(3, 1, {}) != GroupRingElement(3, 2, {})
    assert {x, y, z, gre("g")} == {x, y, z}


def test_reduce_refinement():
    # g^2 = -g^(-2) = -g under the skew relation at order 3
    assert reduce_refinement(gre("g^2"), -1) == gre("-g")
    assert reduce_refinement(gre("g^2"), 1) == gre("g")
    assert reduce_refinement(gre("2"), -1) == GroupRingElement.zero(3, 1)
    assert reduce_refinement(gre("3"), -1) == gre("1")


# ---------------------------------------------------------------------------
# forms and their invariants


def test_form_validation():
    with pytest.raises(DomainError):
        HermitianForm(3, 1, 1, [[1, 0]])
    with pytest.raises(InvariantViolation):
        HermitianForm(3, 1, 1, [["g", "0"], ["0", "0"]])  # g not conj-fixed
    with pytest.raises(InvariantViolation):
        HermitianForm(3, 1, -1, [["0", "1"], ["1", "0"]])
    with pytest.raises(DomainError):
        HermitianForm(3, 1, 1, [[1]], refinement=["0"])
    with pytest.raises(InvariantViolation):
        HermitianForm(3, 1, -1, [["0", "1"], ["-1", "0"]],
                      refinement=["g", "0"])  # g + g^2 != 0


def test_multisignature_rank_one():
    sign = multisignature(HermitianForm(3, 1, 1, [[1]]))
    assert sign.serialize() == [[0, 1], [1, 1], [2, 1]]
    sign = multisignature(HermitianForm(3, 1, 1, [[-2]]))
    assert sign.serialize() == [[0, -1], [1, -1], [2, -1]]
    sign = multisignature(HermitianForm(3, 1, 1, [["2 + g + g^2"]]))
    assert sign.serialize() == [[0, 1], [1, 1], [2, 1]]


def test_multisignature_hyperbolic_vanishes():
    for p, k in ((3, 1), (5, 1), (3, 2)):
        for parity in (1, -1):
            assert multisignature(hyperbolic(p, k, parity, 2)).serialize() == []


def test_multisignature_e8():
    sign = multisignature(e8_form())
    assert sign.serialize() == [[0, 8], [1, 8], [2, 8]]
    sign = multisignature(e8_form(5, 1))
    assert all(m == 8 for _, m in sign.serialize())


def test_multisignature_skew_hand_value():
    """u = g - g^2 maps to 2i sin(2 pi r/3) at chi^r, so i*u*I_2 + the
    off-diagonal hyperbolic part gives signature -2 at r = 1 and +2 at
    r = 2, zero at the trivial character."""
    form = HermitianForm(3, 1, -1,
                         [["g - g^2", "1"], ["-1", "g - g^2"]],
                         refinement=["g", "g"])
    sign = multisignature(form)
    assert sign.serialize() == [[1, -2], [2, 2]]


SKEW_ORDERS = ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2))


def _skew_block(p, k, s):
    """[[a, 1], [-1, a]] with a = g^s - g^(-s), refined by (g^s, g^s)."""
    gs = GroupRingElement(p, k, {s: 1})
    a = gs - gs.conjugate()
    return HermitianForm(p, k, -1, [[a, 1], [-1, a]], refinement=[gs, gs])


def _skew_block_values(L, s):
    """The multisignature of _skew_block at chi^r for r = 0..L-1, in closed
    form.  With j = r s mod L, a maps to 2i sin(2 pi j / L), so i H_r has
    eigenvalues -2 sin(2 pi j / L) +- 1: both negative when L < 12 j < 5 L,
    both positive when 7 L < 12 j < 11 L, one of each otherwise; L is odd,
    so 12 j is never 1, 5, 7 or 11 times L."""
    values = []
    for r in range(L):
        j = r * s % L
        values.append(-2 if L < 12 * j < 5 * L
                      else 2 if 7 * L < 12 * j < 11 * L else 0)
    return values


@pytest.mark.parametrize("p, k", SKEW_ORDERS,
                         ids=[str(p ** k) for p, k in SKEW_ORDERS])
def test_skew_multisignature_matches_the_closed_form(p, k):
    """Every 2 x 2 block at orders 3 to 49, whose values are +-2 at some
    characters and 0 at others, where every random_form draw has skew
    multisignature 0.  Direct sums add, and congruences of a direct sum by
    random transvections, through the sparse products, keep the value."""
    L = p ** k
    for s in range(L):
        sign = multisignature(_skew_block(p, k, s))
        assert [sign.multiplicity(r) for r in range(L)] \
            == _skew_block_values(L, s)
    rng = random.Random(L)
    for _ in range(3):
        s1, s2 = rng.randrange(L), rng.randrange(L)
        form = direct_sum(_skew_block(p, k, s1), _skew_block(p, k, s2))
        expected = [x + y for x, y in zip(_skew_block_values(L, s1),
                                          _skew_block_values(L, s2))]
        sign = multisignature(form)
        assert [sign.multiplicity(r) for r in range(L)] == expected
        for _ in range(3):
            form = congruence(form, _random_transvection(
                p, k, 4, rng.randrange(10 ** 6)))
            assert multisignature(form) == sign


def test_multisignature_conjugation_symmetry():
    for parity in (1, -1):
        for seed in range(10):
            f = random_form(5, 1, parity, 4, 500 + seed)
            sign = multisignature(f)
            for r in range(5):
                assert sign.multiplicity(-r) == parity * sign.multiplicity(r)


def test_multisignature_additive():
    for parity in (1, -1):
        a = random_form(3, 1, parity, 2, 61)
        b = random_form(3, 1, parity, 4, 67)
        assert multisignature(direct_sum(a, b)) \
            == multisignature(a) + multisignature(b)


def test_multisignature_congruence_invariance():
    for p in (3, 5):
        for parity in (1, -1):
            for seed in range(5):
                f = random_form(p, 1, parity, 4, 700 + seed)
                g = random_form(p, 1, parity, 4, 700 + seed)
                # same seed, same form; roughed up further it keeps its sign
                assert multisignature(f) == multisignature(g)
                e = [[1 if a == b else 0 for b in range(4)] for a in range(4)]
                e[1][3] = GroupRingElement(p, 1, {1: 2, 0: -1})
                assert multisignature(congruence(f, e)) == multisignature(f)


def test_singular_forms_rejected():
    norm = "1 + g + g^2"
    with pytest.raises(InvariantViolation):
        multisignature(HermitianForm(3, 1, 1, [[norm]]))
    with pytest.raises(InvariantViolation):
        multisignature(HermitianForm(3, 1, 1, [[0]]))
    skew_zero = HermitianForm(3, 1, -1, [["0", "g - g^2"], ["g - g^2", "0"]])
    with pytest.raises(InvariantViolation,
                       match="form is singular at the trivial character"):
        multisignature(skew_zero)  # regular at order 3
    skew_norm = HermitianForm(3, 1, -1, [["0", norm], ["-1 - g - g^2", "0"]])
    with pytest.raises(InvariantViolation,
                       match="form is singular at a character of order 3"):
        multisignature(skew_norm)  # regular at the trivial character
    # singular at every character: the trivial one is checked first
    with pytest.raises(InvariantViolation,
                       match="form is singular at the trivial character"):
        multisignature(HermitianForm(3, 1, -1, [[0, 0], [0, 0]]))


def test_congruence_transport_frozen():
    h = hyperbolic(3, 1, -1, 1)
    moved = congruence(h, [["1", "g"], ["0", "1"]])
    assert moved.matrix[0][0] == gre("-g + g^2")
    assert moved.matrix[0][1] == gre("1")
    assert moved.refinement[0] == gre("-g")
    assert moved.refinement[1] == GroupRingElement.zero(3, 1)


def test_congruence_preserves_refinement_consistency():
    form = hyperbolic(3, 1, -1, 2)
    for seed in range(10):
        form = congruence(form, _random_transvection(3, 1, 4, seed))
        for a in range(form.rank):
            lhs = form.matrix[a][a]
            mu = form.refinement[a]
            assert lhs == mu - mu.conjugate()


def _dense_congruence(form, change):
    """E Lambda E* by dense triple loops over every entry of E, zero or
    not: the congruence as it was before its sums skipped the zero entries,
    kept as the oracle for them."""
    p, k, q = form.p, form.k, form.rank
    e = [[HermitianForm._entry(p, k, x) for x in row] for row in change]
    lam = form.matrix
    zero = GroupRingElement.zero(p, k)
    half = []
    for a in range(q):
        half.append([sum((e[a][c] * lam[c][d] for c in range(q)), zero)
                     for d in range(q)])
    new = []
    for a in range(q):
        new.append([sum((half[a][d] * e[b][d].conjugate() for d in range(q)),
                        zero) for b in range(q)])
    refinement = None
    if form.parity == -1:
        refinement = []
        for a in range(q):
            acc = zero
            for c in range(q):
                acc = acc + e[a][c] * e[a][c].conjugate() * form.refinement[c]
            for c in range(q):
                for d in range(c + 1, q):
                    acc = acc + e[a][c] * lam[c][d] * e[a][d].conjugate()
            refinement.append(acc)
    return HermitianForm(p, k, form.parity, new, refinement)


@st.composite
def congruence_cases(draw):
    """A random_form at order 3, 9, 5 or 25 and a change of basis E whose
    rows are each zero, dense, or zero at a random set of entries."""
    p, k = draw(st.sampled_from(((3, 1), (3, 2), (5, 1), (5, 2))))
    parity = draw(st.sampled_from((1, -1)))
    rank = draw(st.sampled_from((2, 4) if parity == -1 else (1, 2, 3, 4)))
    form = random_form(p, k, parity, rank, draw(st.integers(0, 10 ** 6)))
    entry = st.dictionaries(st.integers(0, p ** k - 1),
                            st.sampled_from((-2, -1, 1, 2)),
                            min_size=1, max_size=3)
    zero = GroupRingElement.zero(p, k)
    change = []
    for _ in range(rank):
        kind = draw(st.sampled_from(("zero", "dense", "mixed")))
        change.append([
            zero if kind == "zero" or (kind == "mixed" and draw(st.booleans()))
            else GroupRingElement(p, k, draw(entry)) for _ in range(rank)])
    return form, change


@settings(derandomize=True, max_examples=300, deadline=None)
@given(congruence_cases())
def test_congruence_matches_the_dense_products(case):
    form, change = case
    sparse, dense = congruence(form, change), _dense_congruence(form, change)
    assert sparse.matrix == dense.matrix
    assert sparse.refinement == dense.refinement
    assert form_to_json(sparse) == form_to_json(dense)


def _random_transvection(p, k, rank, seed):
    rng = random.Random(seed)
    e = [[1 if a == b else 0 for b in range(rank)] for a in range(rank)]
    c = rng.randrange(rank)
    d = (c + rng.randrange(1, rank)) % rank
    e[c][d] = GroupRingElement(p, k, {rng.randrange(p ** k): rng.randint(-2, 2)
                                      for _ in range(2)})
    return e


# ---------------------------------------------------------------------------
# transfer


def test_transfer_of_unit_form():
    f = HermitianForm(3, 2, 1, [["1"]])
    t = transfer(f)
    assert (t.p, t.k, t.rank) == (3, 1, 3)
    one = GroupRingElement.one(3, 1)
    zero = GroupRingElement.zero(3, 1)
    for a in range(3):
        for b in range(3):
            assert t.matrix[a][b] == (one if a == b else zero)


def test_transfer_requires_deeper_level():
    with pytest.raises(DomainError):
        transfer(HermitianForm(3, 1, 1, [["1"]]))


def test_transfer_intertwines_restriction():
    for p, k, parity, rank, seed in ((3, 2, 1, 2, 1), (3, 2, -1, 2, 2),
                                     (5, 2, 1, 1, 3), (3, 2, 1, 3, 4)):
        f = random_form(p, k, parity, rank, seed)
        assert restrict(multisignature(f)) == multisignature(transfer(f))


TRANSFER_CELLS = ((3, 2, 4), (5, 2, 4), (7, 2, 2), (3, 3, 4), (3, 4, 4))


def _transfer_by_entry(form):
    """The transfer as it was built entry by entry: Tr(lambda_ab g^(j-i))
    through the public constructor, one trace per entry."""
    p, k = form.p, form.k

    def trace(x, shift):
        return GroupRingElement(p, k - 1, {(r + shift) // p: c
                                           for r, c in x.coeffs.items()
                                           if (r + shift) % p == 0})

    rows = tuple(tuple(trace(lam, j - i) for lam in form.matrix[a]
                       for j in range(p))
                 for a in range(form.rank) for i in range(p))
    refinement = None
    if form.parity == -1:
        refinement = tuple(trace(mu, 0) for mu in form.refinement
                           for _ in range(p))
    return rows, refinement


@pytest.mark.parametrize("p, k, rank", TRANSFER_CELLS)
def test_transfer_matches_the_integer_expansion(p, k, rank):
    """Restriction of scalars leaves the underlying Z-module alone: the
    integer expansion of transfer(f) is that of f under v_a g^i h^j ->
    v_a g^(i + p j), h = g^p, in its matrix and its refinement bits.  The
    transfer also equals the entry-by-entry construction it replaced."""
    m = p ** (k - 1)
    for parity in (1, -1):
        for seed in (1, 2, 3, 4):
            f = random_form(p, k, parity, rank, seed)
            t = transfer(f)
            assert (t.matrix, t.refinement) == _transfer_by_entry(f)
            big, small = integer_expansion(f), integer_expansion(t)
            where = [a * p ** k + i + p * j for a in range(rank)
                     for i in range(p) for j in range(m)]
            assert small.matrix == tuple(
                tuple(big.matrix[x][y] for y in where) for x in where)
            assert small.refinement == (
                None if parity == 1
                else tuple(big.refinement[x] for x in where))


def test_transfer_carries_refinement():
    f = random_form(3, 2, -1, 2, 99)
    t = transfer(f)
    assert t.parity == -1 and len(t.refinement) == 6
    for a in range(2):
        traced = reduce_refinement(
            GroupRingElement(3, 1,
                             {r // 3: c for r, c in f.refinement[a].coeffs.items()
                              if r % 3 == 0}), -1)
        for i in range(3):
            assert t.refinement[3 * a + i] == traced


def _corrupt_trace(monkeypatch, hit, shift, by):
    """Patches lforms._trace so that the first call on an x with hit(x)
    adds `by` to its trace at `shift`."""
    trace, done = lforms._trace, []

    def corrupted(x):
        t = trace(x)
        if not done and hit(x):
            done.append(x)
            t[shift] = t[shift] + by
        return t
    monkeypatch.setattr(lforms, "_trace", corrupted)


@pytest.mark.parametrize("parity, name", [(1, "hermitian"), (-1, "skew")])
def test_transfer_keeps_the_symmetry_check(monkeypatch, parity, name):
    """transfer checks the form it builds: a trace of the first nonzero
    lambda_ab (a <= b, the form being eps-symmetric) raised by 1 at shift 1
    breaks the symmetry first at (a p, b p + 1), whose mirror holds the
    untouched trace of lambda_ba at shift -1."""
    p = 7
    f = random_form(p, 2, parity, 6, 1)
    a, b = next((a, b) for a in range(6) for b in range(6) if f.matrix[a][b])
    _corrupt_trace(monkeypatch, bool, 1, GroupRingElement.one(p, 1))
    with pytest.raises(InvariantViolation,
                       match=r"^matrix is not %s-symmetric at \(%d, %d\)$"
                       % (name, a * p, b * p + 1)):
        transfer(f)


def test_transfer_keeps_the_refinement_check(monkeypatch):
    """A trace of mu_0 raised by h at shift 0 changes mu(v_0) - conj(mu(v_0))
    by h - h^(-1) != 0, which the diagonal entry no longer matches."""
    p = 7
    f = random_form(p, 2, -1, 6, 1)
    target = f.refinement[0]
    _corrupt_trace(monkeypatch, lambda x: x is target, 0,
                   GroupRingElement(p, 1, {1: 1}))
    with pytest.raises(InvariantViolation,
                       match="^refinement incompatible with the form at "
                       "index 0$"):
        transfer(f)


def test_hyperbolic_checks_the_parity():
    with pytest.raises(DomainError, match=r"^parity must be \+1 or -1$"):
        hyperbolic(3, 1, 2, 1)


@pytest.mark.parametrize("via", ["init", "make"])
@pytest.mark.parametrize("p, k, parity, rows, error, message", [
    (3, 1, 1, [[1, 0], [0]], DomainError, "matrix must be square"),
    (3, 1, 1, [[1, 0], [0, 1], [0, 1]], DomainError, "matrix must be square"),
    (3, 1, 0, [[1]], DomainError, r"parity must be \+1 or -1"),
    (9, 1, 1, [[1]], DomainError,
     "group order must be a power of an odd prime"),
    (3, 1, 1, [[0, 1], [0, 0]], InvariantViolation,
     r"matrix is not hermitian-symmetric at \(0, 1\)"),
], ids=["ragged", "tall", "parity", "group", "asymmetric"])
def test_both_constructors_run_the_form_checks(via, p, k, parity, rows,
                                               error, message):
    """The public constructor and _make refuse alike; _make is given the
    rows as GroupRingElements, the public one as ints."""
    build = HermitianForm
    if via == "make":
        build = HermitianForm._make
        rows = [[GroupRingElement._make(p, k, {0: x}) for x in row]
                for row in rows]
    with pytest.raises(error, match="^%s$" % message):
        build(p, k, parity, rows)


def _hyperbolic_rows(parity, rank):
    return [[1 if b == a + 1 and a % 2 == 0
             else parity if b == a - 1 and a % 2 else 0
             for b in range(rank)] for a in range(rank)]


@pytest.mark.parametrize("p, k, rank", TRANSFER_CELLS + ((7, 2, 6),))
def test_internal_builders_match_the_public_constructor(p, k, rank):
    """transfer, congruence, direct_sum and hyperbolic build their forms
    with _make; each equals the form the public constructor builds from
    rows found independently, in its matrix, its refinement and its form
    file: _transfer_by_entry, the dense congruence, and the block and
    hyperbolic rows written here with int entries."""
    rng = random.Random(1000 * p + 100 * k + rank)
    for parity in (1, -1):
        for _ in range(2):
            f, g = (random_form(p, k, parity, rank, rng.randrange(10 ** 6))
                    for _ in range(2))
            change = _random_transvection(p, k, rank, rng.randrange(10 ** 6))
            rows, refinement = _transfer_by_entry(f)
            block = ([list(row) + [0] * rank for row in f.matrix]
                     + [[0] * rank + list(row) for row in g.matrix])
            skew = parity == -1
            pairs = [
                (transfer(f),
                 HermitianForm(p, k - 1, parity, rows, refinement)),
                (congruence(f, change), _dense_congruence(f, change)),
                (direct_sum(f, g),
                 HermitianForm(p, k, parity, block,
                               f.refinement + g.refinement if skew else None)),
                (hyperbolic(p, k, parity, rank // 2),
                 HermitianForm(p, k, parity, _hyperbolic_rows(parity, rank),
                               [0] * rank if skew else None)),
            ]
            for made, public in pairs:
                assert made.matrix == public.matrix
                assert made.refinement == public.refinement
                assert form_to_json(made) == form_to_json(public)


@pytest.mark.parametrize("parity, nonzero", [(1, 20), (-1, 12)])
def test_transfer_work_counts(monkeypatch, parity, nonzero):
    """The transfer of random_form(7, 2, parity, 6, 1) traces each nonzero
    lambda_ab once (20 and 12 of the 36) and each refinement value of a
    skew form once, and coerces no entry: its rows reach the form through
    _make, not through HermitianForm._entry.  Counts, not timings."""
    f = random_form(7, 2, parity, 6, 1)
    assert sum(1 for row in f.matrix for x in row if x) == nonzero
    counts = {}

    def count(name, function):
        def counted(*args):
            counts[name] = counts.get(name, 0) + 1
            return function(*args)
        return counted

    monkeypatch.setattr(lforms, "_trace", count("_trace", lforms._trace))
    monkeypatch.setattr(HermitianForm, "_entry",
                        staticmethod(count("_entry", HermitianForm._entry)))
    t = transfer(f)
    assert counts == {"_trace": nonzero + (6 if parity == -1 else 0)}
    assert t == HermitianForm(7, 1, parity, *_transfer_by_entry(f))


# ---------------------------------------------------------------------------
# integer forms


def test_coefficient_form_frozen():
    f = HermitianForm(3, 1, 1, [["2 + g + g^2"]])
    assert coefficient_form(f).matrix == ((2,),)
    skew = HermitianForm(3, 1, -1,
                         [["g - g^2", "1"], ["-1", "g - g^2"]],
                         refinement=["1 + g", "g"])
    b = coefficient_form(skew)
    assert b.matrix == ((0, 1), (-1, 0))
    assert b.refinement == (1, 0)


def test_integer_expansion_sums_multisignature():
    for seed in (3, 5, 8):
        f = random_form(3, 1, 1, 2, seed)
        sign = multisignature(f)
        total = sum(m for _, m in sign.serialize())
        assert signature_int(integer_expansion(f)) == total


def test_signature_e8_with_minor_oracle():
    matrix = [list(row) for row in e8_form().matrix]
    ints = [[x.coefficient(0) for x in row] for row in matrix]
    minors = leading_minors(ints)
    assert all(d > 0 for d in minors) and minors[-1] == 1
    assert signature_int(IntegerForm(1, ints)) == 8


def test_signature_basics():
    assert signature_int(IntegerForm(1, [[0, 1], [1, 0]])) == 0
    assert signature_int(IntegerForm(1, [[2, 0], [0, -3]])) == 0
    assert signature_int(IntegerForm(1, [[1]])) == 1
    with pytest.raises(InvariantViolation):
        signature_int(IntegerForm(1, [[1, 1], [1, 1]]))
    with pytest.raises(DomainError):
        signature_int(IntegerForm(-1, [[0, 1], [-1, 0]]))


def test_arf_fixtures():
    assert arf(IntegerForm(-1, [[0, 1], [-1, 0]], [0, 0])) == 0
    assert arf(IntegerForm(-1, [[0, 1], [-1, 0]], [1, 1])) == 1
    assert arf(IntegerForm(-1, [[0, 1], [-1, 0]], [1, 0])) == 0
    # block sum adds Arf invariants
    block = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    assert arf(IntegerForm(-1, block, [1, 1, 0, 0])) == 1
    assert arf(IntegerForm(-1, block, [1, 1, 1, 1])) == 0


def test_arf_degenerate_rejected():
    with pytest.raises(InvariantViolation):
        arf(IntegerForm(-1, [[0, 2], [-2, 0]], [0, 0]))
    with pytest.raises(DomainError):
        arf(IntegerForm(-1, [[0, 1], [-1, 0]]))
    with pytest.raises(DomainError):
        arf(IntegerForm(1, [[1, 0], [0, 1]], [0, 0]))


def test_random_form_is_deterministic():
    a = random_form(3, 1, -1, 4, 123)
    b = random_form(3, 1, -1, 4, 123)
    assert a == b
    assert a.rank == 4 and a.parity == -1
    with pytest.raises(DomainError):
        random_form(3, 1, -1, 3, 1)


@pytest.mark.parametrize("parity", [1, -1])
@pytest.mark.parametrize("rank", [0, -2])
def test_random_form_refuses_rank_below_one(parity, rank):
    """Refused up front, whatever the seed: the draws used to end in
    ValueError or DomainError depending on it."""
    for seed in range(6):
        with pytest.raises(DomainError, match="^a form needs rank at least 1$"):
            random_form(3, 2, parity, rank, seed)


@pytest.mark.parametrize("p", [2, 9, 733 * 739])
def test_group_ring_rejects_non_odd_prime_orders(p):
    GroupRingElement(733, 1, {1: 1})  # 733 is now a known odd prime
    with pytest.raises(DomainError,
                       match="group order must be a power of an odd prime"):
        GroupRingElement(p, 1, {1: 1})


@pytest.mark.parametrize("cells, expected", [
    (((3, 2, 4), (5, 2, 4), (3, 3, 4)),
     "e5ed612863cbdab8b83e1fea7d6e3ef6edd197da9b9820f2f85790eb935135f0"),
    (((7, 1, 6), (5, 2, 6)),
     "bb11409e8706a62eeb9912637efcfea6258c3d3ec739017fc3aee79f3387dc75"),
    (((7, 2, 6),),
     "67ed917f58df94db261d7bc0adae949eb6612fd4c8c2444b58a1aedf39c145ef"),
], ids=["rank4", "rank6", "level49"])
def test_multisignature_digest_frozen(cells, expected):
    """SHA-256 of the multisignatures of seeded forms and, at level k > 1,
    their transfers.  The first digest was frozen from an independent
    computation (skew pivots divided by zeta - zeta^-1, signs from mpmath
    interval arithmetic), the second from the row-and-column elimination
    that preceded the Schur-complement one, the third from the Fraction
    coefficients and Euclidean inverse that preceded the integer ones."""
    assert _multisignature_digest(cells, (1, 2)) == expected


WIDE_CELLS = ((3, 2, 4), (5, 2, 4), (3, 3, 4), (7, 2, 6), (3, 2, 6),
              (5, 2, 6), (3, 3, 6), (3, 4, 4), (7, 1, 8), (5, 1, 10))


def test_multisignature_wide_digest_frozen():
    """Ten cells, both parities, seeds 1-6: frozen from the elimination
    that pivoted on the first nonzero diagonal entry, so it pins the
    minimum-degree pivot order against first-nonzero pivots."""
    assert _multisignature_digest(WIDE_CELLS, range(1, 7)) == (
        "83097c1f3e43f590c85656def9230dd36c4f87e8d28b56673a5186ed8c603194")


def test_random_form_wide_digest_frozen():
    """SHA-256 of form_to_json of the random_form draws behind the wide
    digest, which the forms benchmark also reads directly.  Frozen from the
    congruence that multiplied over every entry of the change of basis,
    before its sums skipped the zero entries."""
    digest = hashlib.sha256()
    for p, k, rank in WIDE_CELLS:
        for parity in (1, -1):
            for seed in range(1, 7):
                digest.update(form_to_json(
                    random_form(p, k, parity, rank, seed)).encode())
    assert digest.hexdigest() == (
        "c6e02e8bf8945d87f6b202ffbc1ffde7dbb40a36acbd70328b82d505f4519ea8")


def _pair_pivots(blocks):
    """The pivot list _diagonalize returned before planes went unsigned:
    a 1 x 1 block's pivot, and for a plane's x the pivots 1 and
    -x conj(x) = det P at the level of x."""
    pivots = []
    for size, x in blocks:
        pivots += [x] if size == 1 else [CyclotomicNumber.rational(x.L, 1),
                                         -(x * x.conjugate())]
    return pivots


def _diagonalize_pivots(mat, level):
    return _pair_pivots(_diagonalize(mat, level))


def test_benchmark_pivots_frozen(monkeypatch):
    """SHA-256 of every pivot, as (level, num, den), in the pivot lists
    (_pair_pivots) of the blocks _diagonalize returns over the 32
    operations of the forms benchmark: the multisignature of
    random_form(p, k, parity, rank, seed) and of its transfer on the
    benchmark's cells and seeds.  30 of those 32 multisignatures are empty,
    so their digests pin little of the elimination; these 760 pivots from
    72 eliminations pin all of it.  Frozen from the elimination that
    subtracted each Schur term with the public product, sum and difference
    and returned the pivots 1 and -x conj(x) for each plane.  The first
    elimination of each skew multisignature, its rank check at the trivial
    character at level 3, only has to not raise: its 16 lists are pinned
    apart, by their number and their pivot total."""
    digest, calls, checks, skew = hashlib.sha256(), [], [], [False]

    def recorded(mat, level):
        blocks = _diagonalize(mat, level)
        pivots = _pair_pivots(blocks)
        if skew[0]:
            skew[0] = False
            assert level == 3
            checks.append(len(pivots))
            return blocks
        calls.append(len(pivots))
        for x in pivots:
            digest.update(("%d %s %d\n" % (
                x.L, ",".join(map(str, x.num)), x.den)).encode())
        return blocks

    monkeypatch.setattr(lforms, "_diagonalize", recorded)
    for g in _benchmark_forms():
        skew[0] = g.parity == -1
        multisignature(g)
    assert (len(checks), sum(checks)) == (16, 208)
    assert (len(calls), sum(calls)) == (72, 760)
    assert digest.hexdigest() == (
        "1dfaaac50e946e3ce82a1e84c1c2e9ca0b592782bcecf33827c70f6ec0e1b9b7")


def test_benchmark_makes_no_galois_image_of_a_rational(monkeypatch):
    """Every Galois image fixes Q, so conjugation returns a rational
    number as it is.  Over the 32 operations of the forms benchmark, 1019
    of the 1755 images were of rational numbers when conjugation mapped
    them too; now none is, and 840 images at most remain.  These are
    counts, not timings."""
    images = {True: 0, False: 0}
    galois = CyclotomicNumber._galois

    def counted(x, a):
        images[x.is_rational()] += 1
        return galois(x, a)

    monkeypatch.setattr(CyclotomicNumber, "_galois", counted)
    for g in _benchmark_forms():
        multisignature(g)
    assert images[True] == 0
    assert 0 < images[False] <= 840


def _benchmark_forms():
    """The 32 forms of the forms benchmark: random_form(p, k, parity,
    rank, seed) on its cells and seeds, each followed by its transfer."""
    for p, k, rank in ((3, 2, 4), (5, 2, 4), (3, 3, 4), (7, 2, 6)):
        for parity in (1, -1):
            for seed in (1, 2):
                f = random_form(p, k, parity, rank, seed)
                yield f
                yield transfer(f)


def _multisignature_digest(cells, seeds):
    digest = hashlib.sha256()
    for p, k, rank in cells:
        for parity in (1, -1):
            for seed in seeds:
                f = random_form(p, k, parity, rank, seed)
                for g in (f, transfer(f)) if k > 1 else (f,):
                    digest.update(json.dumps(
                        multisignature(g).serialize()).encode() + b"\n")
    return digest.hexdigest()


def test_multisignature_slowest_transfer_budget():
    """The slowest operation of the forms benchmark: a rank-42 form over
    Z[C_7], whose pivots are all at level 7."""
    g = transfer(random_form(7, 2, 1, 6, 1))
    start = time.perf_counter()
    multisignature(g)
    assert time.perf_counter() - start < 0.5


def _hermitian_draw(rng, L, rank, zero_diagonal):
    """A seeded hermitian matrix over Q(zeta_L) with small coefficients;
    about a third of its off-diagonal entries are purely imaginary."""
    def entry():
        x = CyclotomicNumber.from_exponents(
            L, [(rng.randrange(L), rng.randint(-2, 2))
                for _ in range(rng.randint(1, 3))])
        return x - x.conjugate() if rng.random() < 0.3 else x

    a = [[None] * rank for _ in range(rank)]
    for i in range(rank):
        x = entry()
        a[i][i] = (CyclotomicNumber.rational(L, 0) if zero_diagonal
                   else x + x.conjugate())
        for j in range(i):
            a[i][j] = entry()
            a[j][i] = a[i][j].conjugate()
    return a


def _cofactor_det(m):
    """Laplace expansion along the first row, each minor (the rows below
    row r on a set of columns) expanded once."""
    @functools.lru_cache(maxsize=None)
    def minor(r, cols):
        if r == len(m) - 1:
            return m[r][cols[0]]
        total = CyclotomicNumber.rational(m[0][0].L, 0)
        for n, c in enumerate(cols):
            if m[r][c]:
                term = m[r][c] * minor(r + 1, cols[:n] + cols[n + 1:])
                total = total - term if n % 2 else total + term
        return total

    return minor(0, tuple(range(len(m))))


def _pivot_oracle_draws():
    """A hand case, a hyperbolic pair whose off-diagonal entry
    u = zeta - zeta^-1 has u + conj(u) = 0 (the lambda step needed
    lam = zeta there), and 150 seeded draws, every other one with a zero
    diagonal."""
    rng = random.Random(2208)
    u = CyclotomicNumber.zeta(5) - CyclotomicNumber.zeta(5).conjugate()
    zero = CyclotomicNumber.rational(5, 0)
    draws = [(5, [[zero, u], [u.conjugate(), zero]])]
    for n in range(150):
        L = (1, 3, 5, 7, 9)[n % 5]
        draws.append((L, _hermitian_draw(rng, L, rng.randint(1, 4),
                                         zero_diagonal=n % 2 == 1)))
    return draws


def test_diagonalize_pivot_oracle():
    """Every pivot is nonzero and real, and, with 1 and det P for each
    plane P (_pair_pivots), their product is det(A): each congruence the
    elimination applies has determinant 1.  A singular A raises.  The hand
    case is one hyperbolic pair, whose off-diagonal entry u = zeta -
    zeta^-1 has u + conj(u) = 0."""
    draws = _pivot_oracle_draws()
    counts = {True: 0, False: 0}
    for L, a in draws:
        det = _cofactor_det(a)
        counts[det.is_zero()] += 1
        if det.is_zero():
            with pytest.raises(InvariantViolation):
                _diagonalize(a, L)
            continue
        pivots = _diagonalize_pivots(a, L)
        assert len(pivots) == len(a)
        assert all(x and x.conjugate() == x for x in pivots)
        product = CyclotomicNumber.rational(L, 1)
        for x in pivots:
            product = product * x
        assert product == det
    assert counts[False] >= 100 and counts[True] >= 10


def _garbled_upper(a):
    """The matrix with every entry above the diagonal replaced by a value
    that is not the conjugate of its mirror."""
    L = a[0][0].L
    junk = CyclotomicNumber.from_exponents(L, [(1 % L, 5), (0, -3)])
    return [[x if j <= i else junk for j, x in enumerate(row)]
            for i, row in enumerate(a)]


def test_diagonalize_reads_only_the_lower_triangle():
    """On the oracle's draws, zero-diagonal ones included, ragged rows
    a[i][:i + 1] and a full matrix with a garbled upper triangle give the
    pivots of the full matrix, and raise on the same singular draws."""
    singular = 0
    for L, a in _pivot_oracle_draws():
        lower = [row[:i + 1] for i, row in enumerate(a)]
        try:
            expected = _diagonalize(a, L)
        except InvariantViolation:
            singular += 1
            for m in (lower, _garbled_upper(a)):
                with pytest.raises(InvariantViolation):
                    _diagonalize(m, L)
            continue
        assert _diagonalize(lower, L) == expected
        assert _diagonalize(_garbled_upper(a), L) == expected
    assert singular >= 10


def _bits(x):
    """The bit lengths of the denominator and numerators of x, summed."""
    return x.den.bit_length() + sum(n.bit_length() for n in x.num)


def _diagonalize_by_scan(mat, level, by_size=True, pairs=None):
    """The elimination with every choice made by a full scan: each pivot
    scans the remaining indices for a nonzero diagonal entry and takes the
    least degree, then, by_size, the fewest bits, measured afresh at every
    scan, then the lowest index; the zero-diagonal step takes the first
    remaining s with a nonzero entry and its partner j in adj[s] of least
    degree, the lowest index on ties, and eliminates the block P on s and
    j by the dense Schur complement A - B P^-1 B*, P^-1 from the 2 x 2
    adjugate, with the pivots 1 and det P.  Each such (s, j) is appended
    to pairs when given.
    With by_size false it is the elimination as it was before sizes
    counted and before the pair step: the lowest index breaks degree ties,
    the partner is the least index in adj[s], and v_s <- v_s + v_j lam,
    lam = 1, or zeta when a[j][s] + conj(a[j][s]) = 0, makes a[s][s]
    nonzero for a 1 x 1 pivot."""
    a = [list(row[:i + 1]) for i, row in enumerate(mat)]
    adj = [set() for _ in a]

    def link(i, j, x):
        if x:
            adj[i].add(j)
            adj[j].add(i)
        else:
            adj[i].discard(j)
            adj[j].discard(i)

    def entry(i, j):
        return a[i][j] if j <= i else a[j][i].conjugate()

    for i, row in enumerate(a):
        for j in range(i):
            link(i, j, row[j])
    rest = list(range(len(a)))
    pivots = []
    while rest:
        s = min((i for i in rest if a[i][i]),
                key=lambda i: (len(adj[i]), _bits(a[i][i]) if by_size else 0,
                               i),
                default=None)
        if s is None:
            s = next((i for i in rest if adj[i]), None)
            if s is None:
                raise InvariantViolation("singular")
            j = min(adj[s], key=lambda i: (len(adj[i]) if by_size else 0, i))
            if by_size:
                if pairs is not None:
                    pairs.append((s, j))
                p00, p01, p10, p11 = (entry(s, s), entry(s, j), entry(j, s),
                                      entry(j, j))
                det = p00 * p11 - p01 * p10
                inv = det.inverse()
                q00, q01, q10, q11 = (p11 * inv, -p01 * inv, -p10 * inv,
                                      p00 * inv)
                rest.remove(s)
                rest.remove(j)
                pivots += [CyclotomicNumber.rational(level, 1), det]
                border = [(i, entry(i, s), entry(i, j)) for i in rest]
                for i, bs, bj in border:
                    fs, fj = bs * q00 + bj * q10, bs * q01 + bj * q11
                    for l, cs, cj in border:
                        if l <= i and (fs or fj) and (cs or cj):
                            a[i][l] = a[i][l] - (fs * cs.conjugate()
                                                 + fj * cj.conjugate())
                            if l < i:
                                link(i, l, a[i][l])
                for i in (s, j):
                    for l in list(adj[i]):
                        link(i, l, None)
                continue
            x = a[j][s]
            lam = CyclotomicNumber.rational(level, 1)
            if not x + x.conjugate():
                lam = CyclotomicNumber.zeta(level)
            for c in adj[j] - {s}:
                y = a[c][j] if c > j else a[j][c].conjugate()
                a[c][s] = a[c][s] + y * lam
                link(c, s, a[c][s])
            t = lam.conjugate() * x
            a[s][s] = t + t.conjugate()
        rest.remove(s)
        pivots.append(a[s][s])
        below, column, row = sorted(adj[s]), [], []
        for i in below:
            adj[i].discard(s)
            x = a[i][s] if i > s else a[s][i]
            y = x.conjugate()
            column.append(x if i > s else y)
            row.append(y if i > s else x)
        if below:
            inv = a[s][s].inverse()
            for n, i in enumerate(below):
                f = column[n] * inv
                ai = a[i]
                for j, y in zip(below[:n], row):
                    ai[j] = ai[j] - f * y
                    link(i, j, ai[j])
                ai[i] = ai[i] - f * row[n]
    return pivots


def _pivots_or_singular(diagonalize, mat, level):
    try:
        return diagonalize(mat, level)
    except InvariantViolation:
        return "singular"


def test_diagonalize_pivot_order_matches_the_scan():
    """The tracked live diagonal and its sizes pick the pivots, and the
    zero-diagonal step the pairs, that a full scan picks, ties included,
    and the sparse pair update gives the dense 2 x 2 Schur complement: the
    same pivot list (_pair_pivots) on the oracle's draws and on the rank-42
    transfers of the budget test at orders 1 and 7 (the lower triangle of
    the skew one at order 1 read as a symmetric matrix), and singular on
    the same draws."""
    cases = _pivot_oracle_draws()
    for parity in (1, -1):
        g = transfer(random_form(7, 2, parity, 6, 1))
        for d in (1, 7):
            evaluate = (_skew_evaluate if parity == -1 and d > 1
                        else GroupRingElement.evaluate)
            cases.append((d, [[evaluate(x, d) for x in row[:i + 1]]
                              for i, row in enumerate(g.matrix)]))
    singular, pairs = 0, []
    for L, a in cases:
        expected = _pivots_or_singular(
            lambda m, level: _diagonalize_by_scan(m, level, pairs=pairs), a, L)
        singular += expected == "singular"
        assert _pivots_or_singular(_diagonalize_pivots, a, L) == expected
    assert singular >= 10 and len(pairs) >= 100


def _permutation(rng, n):
    """A seeded permutation of range(n), other than the identity when n > 1."""
    perm = list(range(n))
    while n > 1 and perm == sorted(perm):
        rng.shuffle(perm)
    return perm


def test_pivots_and_multisignature_are_permutation_invariant():
    """A basis permutation changes which pivots minimum degree picks and
    when the zero-diagonal step runs, but not what they certify.  On the
    oracle's draws, P A P* has pivots (_pair_pivots) whose product is
    det(A) and whose signs count at every embedding as A's do, and it is
    singular with A.
    Congruence by a permutation leaves the multisignature of seeded forms,
    and of their transfers, unchanged."""
    rng = random.Random(1957)
    singular = 0
    for L, a in _pivot_oracle_draws():
        perm = _permutation(rng, len(a))
        b = [[a[i][j] for j in perm] for i in perm]
        det = _cofactor_det(a)
        if det.is_zero():
            singular += 1
            with pytest.raises(InvariantViolation):
                _diagonalize(b, L)
            continue
        pivots = _diagonalize_pivots(b, L)
        product = CyclotomicNumber.rational(L, 1)
        for x in pivots:
            product = product * x
        assert product == det
        expected = _diagonalize_pivots(a, L)
        for t in range(L):
            if gcd(t, L) == 1:
                assert (sum(CyclotomicReal._make(x, t).sign() for x in pivots)
                        == sum(CyclotomicReal._make(x, t).sign()
                               for x in expected))
    assert singular >= 10
    for p, k, parity, rank in ((3, 1, 1, 5), (7, 1, 1, 6), (5, 1, -1, 6),
                               (3, 2, 1, 4), (3, 2, -1, 4), (5, 2, -1, 2)):
        for seed in (1, 2, 3):
            f = random_form(p, k, parity, rank, seed)
            perm = _permutation(rng, rank)
            g = congruence(f, [[int(c == perm[a]) for c in range(rank)]
                               for a in range(rank)])
            assert g.matrix == tuple(tuple(f.matrix[a][b] for b in perm)
                                     for a in perm)
            for f1, g1 in ((f, g), (transfer(f), transfer(g))) if k > 1 \
                    else ((f, g),):
                assert multisignature(g1) == multisignature(f1)


def test_multisignature_rejects_non_real_pivot(monkeypatch):
    """Each 1 x 1 pivot is checked once to be fixed by conjugation before
    it is signed once per conjugate pair of embeddings: zeta_1 = 1 passes,
    zeta_7 does not.  A plane's x is neither checked nor signed: a plane
    on zeta_7 adds 0 at every character."""
    monkeypatch.setattr(lforms, "_diagonalize",
                        lambda mat, level: [(1, CyclotomicNumber.zeta(level))])
    with pytest.raises(InvariantViolation, match="not fixed by conjugation"):
        multisignature(random_form(7, 1, 1, 2, 1))
    monkeypatch.setattr(lforms, "_diagonalize",
                        lambda mat, level: [(2, CyclotomicNumber.zeta(level))])
    assert multisignature(random_form(7, 1, 1, 2, 1)).serialize() == []


@pytest.mark.parametrize(
    "p, seed, parity, levels, evaluations, inverses, updates, galois, signs,"
    " makes", [
        (7, 1, 1, 2, 602, 52, 1290, 118, 168, 2350),
        (7, 1, -1, 1, 56, 0, 0, 0, 0, 114),
        (5, 5, 1, 2, 210, 25, 1701, 169, 28, 2428),
        (7, 2, 1, 2, 56, 0, 0, 0, 0, 58),
    ], ids=["hermitian", "skew", "hermitian-tie-break", "hyperbolic"])
def test_multisignature_work_counts(monkeypatch, p, seed, parity, levels,
                                    evaluations, inverses, updates, galois,
                                    signs, makes):
    """The transfer of random_form(p, 2, parity, 6, seed), of rank 6p: one
    evaluation per nonzero entry of the lower triangle at each order
    evaluated (1 and p for hermitian forms, p for skew ones), `inverses`
    inverses, `galois` Galois images, no conjugate per updated entry or
    per embedding of a pivot, `updates` Schur updates, each one call of
    the cyclotomic kernel _sub_products that returns a new entry, no
    CyclotomicNumber subtraction, and `makes` cyclotomic numbers built.
    (On the third form 122 more kernel calls find no term joining i and l
    in a pair step and return the entry itself.)
    The first two are the rank-42 transfer of the budget test (301 of 903
    lower entries nonzero for the hermitian form, 56 for the skew one):
    minimum-degree pivots of least size do 1290 updates on the hermitian
    form and 52 inverses (1308 and 54 with degree ties broken by index),
    where first-nonzero pivots fill it in and do 3532.  The skew one
    reaches only zero-diagonal steps, 21 hyperbolic pairs with no other
    entry to update: each pair's s is joined to its j alone, so the Schur
    complement is the rest unchanged, and the step takes no inverse and
    does no update (21 inverses when every pair took one), where making
    a[s][s] nonzero and pivoting on s and then on j took 35 inverses, 210
    updates and 280 Galois images.  The third is the form the size
    tie-break slowed most (53 inverses, 2163 updates and 588 Galois images
    before the pair step).  The fourth is a hermitian form whose
    eliminations at orders 1 and 7 take 21 pair steps each and nothing
    else, again with no inverse (52 inverses, 92 updates and 280 Galois
    images before the pair step, and 42 inverses when every pair took one).
    A rational number is its own conjugate, so the fourth, whose
    conjugated entries are all rational, makes no Galois image (126 when
    conjugation mapped rational numbers too).
    Each 1 x 1 pivot is signed once per conjugate pair of embeddings: once
    at order 1 and phi(d)/2 times at order d > 1, where signing at every
    embedding took 294 and 252 signs on the first two.  A plane adds 0 to
    every signature, so it gets no pivot and no sign.  When each plane
    gave the pivots 1 and -x conj(x), both checked and signed, the skew
    form took 126 signs and 63 Galois images, the third 90 signs (its 9
    planes at order 1 and 11 at order 5 took 62 of them) and 175 images,
    and the fourth 168 signs and 184 cyclotomic numbers built; the first
    takes no plane step, so its counts did not move.  These are counts,
    not timings."""
    g = transfer(random_form(p, 2, parity, 6, seed))
    nonzero = sum(1 for i, row in enumerate(g.matrix)
                  for x in row[:i + 1] if x)
    orders = [d for d in (1, p) if parity == 1 or d > 1]
    assert len(orders) == levels
    counts, ones = {}, {}
    diagonalize = lforms._diagonalize

    def recorded(mat, level):
        blocks = diagonalize(mat, level)
        ones[level] = sum(size == 1 for size, _ in blocks)
        return blocks
    monkeypatch.setattr(lforms, "_diagonalize", recorded)

    def count(owner, name):
        method = getattr(owner, name)

        def counted(*args):
            counts[name] = counts.get(name, 0) + 1
            return method(*args)
        # a classmethod stays bound to its class when called on an instance
        monkeypatch.setattr(owner, name, staticmethod(counted) if isinstance(
            vars(owner)[name], classmethod) else counted)

    count(GroupRingElement, "evaluate")
    count(lforms, "_skew_evaluate")
    count(CyclotomicNumber, "inverse")
    count(CyclotomicNumber, "_galois")
    count(CyclotomicNumber, "__sub__")
    count(CyclotomicNumber, "_make")
    count(CyclotomicReal, "sign")
    kernel = lforms._sub_products

    def updated(a, xs, ys):
        d = kernel(a, xs, ys)
        if d is not a:
            counts["_sub_products"] = counts.get("_sub_products", 0) + 1
        return d
    monkeypatch.setattr(lforms, "_sub_products", updated)
    multisignature(g)
    assert counts.pop("evaluate" if parity == 1 else "_skew_evaluate") \
        == levels * nonzero == evaluations
    assert counts.pop("inverse", 0) == inverses
    assert counts.pop("_galois", 0) == galois
    assert counts.pop("_sub_products", 0) == updates
    assert counts.pop("__sub__", 0) == 0
    assert counts.pop("_make") == makes
    assert counts.pop("sign", 0) == signs == sum(
        ones[d] * (1 if d == 1 else (d - d // p) // 2) for d in orders)
    assert not counts


def test_pivot_sizes_stay_small(monkeypatch):
    """The largest pivot (_pair_pivots), in bits of its numerator and
    denominator, at each order the multisignature evaluates: the budget
    test's form at orders 1, 7 and 49, and its transfer at 1 and 7.
    Breaking degree ties by index gave 9, 83 and 5294 bits, and 21 and
    138: one large pivot's inverse spreads its height into every later
    entry.  These are counts, not timings."""
    largest = {}

    def recorded(mat, level):
        blocks = _diagonalize(mat, level)
        largest[level] = max(map(_bits, _pair_pivots(blocks)))
        return blocks

    monkeypatch.setattr(lforms, "_diagonalize", recorded)
    f = random_form(7, 2, 1, 6, 1)
    multisignature(f)
    assert largest == {1: 3, 7: 3, 49: 3}
    largest.clear()
    multisignature(transfer(f))
    assert largest == {1: 15, 7: 15}


@st.composite
def hermitian_matrices(draw):
    """A _hermitian_draw over Q(zeta_L) of rank 1 to 5, its diagonal zero
    in about half the draws."""
    L = draw(st.sampled_from((1, 3, 5, 7, 9, 25, 49)))
    return L, _hermitian_draw(draw(st.randoms(use_true_random=False)), L,
                              draw(st.integers(1, 5)), draw(st.booleans()))


def _inertia(pivots, L):
    """The number of positive and of negative pivots at each embedding."""
    signs = [[CyclotomicReal._make(x, t).sign() for x in pivots]
             for t in range(L) if gcd(t, L) == 1]
    return [(s.count(1), s.count(-1)) for s in signs]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(hermitian_matrices())
def test_pivot_inertia_matches_the_index_tie_break(case):
    """Sylvester's law of inertia for the choice of pivots: at every
    embedding, the pivots (_pair_pivots) count as many positive and
    negative values as those of the elimination that broke degree ties by
    index and took the least partner, and a matrix is singular for both or
    for neither."""
    L, a = case
    expected = _pivots_or_singular(
        lambda m, level: _diagonalize_by_scan(m, level, by_size=False), a, L)
    got = _pivots_or_singular(_diagonalize_pivots, a, L)
    if expected == "singular":
        assert got == "singular"
    else:
        assert got != "singular" and _inertia(got, L) == _inertia(expected, L)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(hermitian_matrices())
def test_planes_add_nothing_to_the_signature(case):
    """At every embedding, the signs of the 1 x 1 pivots sum to the
    positives minus the negatives of the full scan's pivot list, in which
    each plane P gives the pivots 1 and det P: a plane adds 0 to the
    signature.  A matrix is singular for both or for neither."""
    L, a = case
    expected = _pivots_or_singular(_diagonalize_by_scan, a, L)
    got = _pivots_or_singular(_diagonalize, a, L)
    if expected == "singular":
        assert got == "singular"
        return
    assert got != "singular"
    pivots = [x for size, x in got if size == 1]
    assert [sum(CyclotomicReal._make(x, t).sign() for x in pivots)
            for t in range(L) if gcd(t, L) == 1] == [
        plus - minus for plus, minus in _inertia(expected, L)]


def _lambda_step(mat, level):
    """The elimination with the zero-diagonal step of v_s <- v_s + v_j lam
    and two 1 x 1 pivots, which the pair step replaced, returning its
    pivots as _diagonalize returns blocks."""
    return [(1, x) for x in _diagonalize_by_scan(mat, level, by_size=False)]


@st.composite
def zero_diagonal_matrices(draw):
    """Hermitian matrices over Q(zeta_L) of rank 1 to 8 whose diagonal is
    zero but in about one place in five, and whose entries below it are
    zero in about a quarter of the places and otherwise purely imaginary
    (u + conj(u) = 0, the entries that needed lam = zeta) in about three
    quarters of the rest."""
    L = draw(st.sampled_from((1, 3, 5, 7, 9, 25, 49)))
    rank = draw(st.integers(1, 8))
    rng = draw(st.randoms(use_true_random=False))

    def entry():
        x = CyclotomicNumber.from_exponents(
            L, [(rng.randrange(L), rng.randint(-2, 2))
                for _ in range(rng.randint(1, 3))])
        return x - x.conjugate() if rng.random() < 0.75 else x

    zero = CyclotomicNumber.rational(L, 0)
    a = [[zero] * rank for _ in range(rank)]
    for i in range(rank):
        if rng.random() < 0.2:
            x = entry()
            a[i][i] = x + x.conjugate()
        for j in range(i):
            if rng.random() < 0.75:
                a[i][j] = entry()
                a[j][i] = a[i][j].conjugate()
    return L, a


@settings(derandomize=True, max_examples=200, deadline=None)
@given(zero_diagonal_matrices())
def test_pair_step_matches_the_lambda_step(case):
    """On zero-diagonal-heavy draws the pair step is singular with the
    lambda step, its pivots (_pair_pivots) count as many positive and
    negative values at every embedding, and their product is det A."""
    L, a = case
    expected = _pivots_or_singular(_lambda_step, a, L)
    got = _pivots_or_singular(_diagonalize_pivots, a, L)
    if expected == "singular":
        assert got == "singular"
        return
    assert got != "singular" and _inertia(got, L) == _inertia(
        _pair_pivots(expected), L)
    product = CyclotomicNumber.rational(L, 1)
    for x in got:
        product = product * x
    assert product == _cofactor_det(a)


def _mixed_hyperbolic(p, k, planes, seed):
    """diag(-1 + g + g^-1, 1) + planes hyperbolic planes, mixed by a seeded
    transvection.  The first entry, -1 + 2 cos(2 pi t / d) at zeta_d^t,
    changes sign with t, so the form's multisignature is not a multiple of
    the regular character."""
    unit = HermitianForm(p, k, 1, [["-1 + g + g^-1", 0], [0, 1]])
    f = direct_sum(unit, hyperbolic(p, k, 1, planes))
    return congruence(f, _random_transvection(p, k, f.rank, seed))


PAIR_FORMS = [(p, k, planes, seed) for p, k in ((3, 1), (7, 1), (3, 2), (5, 2))
              for planes in (1, 2) for seed in (2, 3)]


def test_pair_step_keeps_multisignatures(monkeypatch):
    """Seeded forms whose eliminations reach the pair step, and their
    transfers, have the multisignature bytes the lambda step gives, none
    of them zero; the digest was frozen from the elimination that took the
    lambda step."""
    forms = []
    for p, k, planes, seed in PAIR_FORMS:
        f = _mixed_hyperbolic(p, k, planes, seed)
        forms += [f, transfer(f)] if k > 1 else [f]
    pairs = []

    def recorded(mat, level):
        blocks = _diagonalize(mat, level)
        assert _diagonalize_by_scan(mat, level, pairs=pairs) == _pair_pivots(
            blocks)
        return blocks

    texts = []
    for f in forms:
        monkeypatch.setattr(lforms, "_diagonalize", recorded)
        before = len(pairs)
        got = json.dumps(multisignature(f).serialize())
        assert len(pairs) > before
        monkeypatch.setattr(lforms, "_diagonalize", _lambda_step)
        assert json.dumps(multisignature(f).serialize()) == got
        assert got != "[]"
        texts.append(got)
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
        "2ed6e6705bb8b07a2f67dc172c621565d021767e95f28d18a0e4b4b210d6dee0")


# ---------------------------------------------------------------------------
# fast paths: direct evaluation, the folded skew factor, the symmetry check

ORDERS = ((3, 1), (3, 2), (5, 2), (3, 3), (7, 2))   # 3, 9, 25, 27, 49


@st.composite
def group_ring_draws(draw):
    """A group-ring element of order 3 to 49 and a divisor d of its order."""
    p, k = draw(st.sampled_from(ORDERS))
    coeffs = draw(st.dictionaries(st.integers(0, p ** k - 1),
                                  st.integers(-10 ** 6, 10 ** 6), max_size=8))
    return GroupRingElement(p, k, coeffs), p ** draw(st.integers(0, k))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(group_ring_draws())
def test_evaluate_matches_public_constructor(case):
    x, d = case
    fast = x.evaluate(d)
    slow = CyclotomicNumber.from_exponents(d, list(x.coeffs.items()))
    assert fast == slow and hash(fast) == hash(slow)
    assert (fast.num, fast.den) == (slow.num, slow.den)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(group_ring_draws())
def test_skew_evaluation_is_the_product_by_u(case):
    x, d = case
    u = CyclotomicNumber.zeta(d) - CyclotomicNumber.zeta(d).conjugate()
    folded, product = _skew_evaluate(x, d), u * x.evaluate(d)
    assert folded == product and hash(folded) == hash(product)
    assert folded.den == 1


def _first_asymmetry(rows, parity):
    """The first (a, b) in row-major order with rows[b][a] !=
    parity * conj(rows[a][b]), in group-ring arithmetic."""
    q = len(rows)
    return next(((a, b) for a in range(q) for b in range(q)
                 if rows[b][a] != parity * rows[a][b].conjugate()), None)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.sampled_from(ORDERS[:4]), st.sampled_from((1, -1)),
       st.sampled_from((2, 4)), st.integers(0, 50), st.data())
def test_single_asymmetry_names_the_first_pair(order, parity, rank, seed, data):
    p, k = order
    form = random_form(p, k, parity, rank, seed)
    a = data.draw(st.integers(0, rank - 1))
    b = data.draw(st.integers(0, rank - 1))
    r = data.draw(st.integers(0, p ** k - 1))
    c = data.draw(st.sampled_from((-2, -1, 1, 2)))
    assume(a != b or r != 0 or parity == -1)  # else c stays hermitian
    rows = [list(row) for row in form.matrix]
    rows[a][b] = rows[a][b] + GroupRingElement(p, k, {r: c})
    expected = _first_asymmetry(rows, parity)
    assert expected == (min(a, b), max(a, b))
    with pytest.raises(InvariantViolation,
                       match=r"symmetric at \(%d, %d\)$" % expected):
        HermitianForm(p, k, parity, rows, form.refinement)


def _rank_by_fractions(m):
    a = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for col in range(len(a)):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][col] / a[rank][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def test_integer_rank_check_matches_fraction_elimination():
    """Integer skew matrices, some of them P^T B P with P singular: the
    multisignature of the constant skew form over Z[C_3] with that matrix
    fails at the trivial character exactly when elimination over Fractions
    finds the matrix singular."""
    rng = random.Random(4243)
    counts = {True: 0, False: 0}
    for n in range(300):
        q = rng.randint(1, 8)
        b = [[0] * q for _ in range(q)]
        for i in range(q):
            for j in range(i):
                b[i][j] = rng.randint(-3 * n, 3 * n)
                b[j][i] = -b[i][j]
        if n % 3 == 0:
            t = [[rng.randint(-2, 2) for _ in range(q)] for _ in range(q)]
            t[-1] = [2 * x for x in t[0]]
            b = [[sum(t[s][i] * b[s][u] * t[u][j]
                      for s in range(q) for u in range(q))
                  for j in range(q)] for i in range(q)]
        regular = _rank_by_fractions(b) == q
        counts[regular] += 1
        form = HermitianForm(3, 1, -1, b)
        if regular:
            multisignature(form)
        else:
            with pytest.raises(InvariantViolation,
                               match="form is singular at the trivial character"):
                multisignature(form)
    assert counts[True] >= 100 and counts[False] >= 100, counts


# ---------------------------------------------------------------------------
# integer forms and coefficient dicts, against independent oracles


def _congruent(a, p):
    """P^T A P for square integer matrices."""
    q = len(a)
    ap = [[sum(a[i][s] * p[s][j] for s in range(q)) for j in range(q)]
          for i in range(q)]
    return [[sum(p[s][i] * ap[s][j] for s in range(q)) for j in range(q)]
            for i in range(q)]


@st.composite
def unimodular_matrices(draw, q):
    """A product of row swaps, sign flips and elementary transvections."""
    p = [[int(i == j) for j in range(q)] for i in range(q)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1))
        move = draw(st.sampled_from(("swap", "flip", "add")))
        if move == "swap":
            p[i], p[j] = p[j], p[i]
        elif move == "flip":
            p[i] = [-x for x in p[i]]
        elif i != j:
            c = draw(st.integers(-3, 3))
            p[i] = [x + c * y for x, y in zip(p[i], p[j])]
    return p


@st.composite
def symmetric_matrices(draw):
    q = draw(st.integers(1, 6))
    a = [[0] * q for _ in range(q)]
    for i in range(q):
        for j in range(i + 1):
            a[i][j] = a[j][i] = draw(st.integers(-4, 4))
    return a


def jacobi_signature(a):
    """Jacobi's rule: with every leading minor D_s nonzero, the negative
    eigenvalues are the sign changes in 1, D_1, ..., D_q.  None when a
    minor vanishes."""
    minors = leading_minors(a)
    if not all(minors):
        return None
    signs = [1] + [1 if d > 0 else -1 for d in minors]
    return len(a) - 2 * sum(x != y for x, y in zip(signs, signs[1:]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(symmetric_matrices())
def test_signature_int_matches_jacobi_rule(a):
    expected = jacobi_signature(a)
    assume(expected is not None)
    assert signature_int(IntegerForm(1, a)) == expected


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(2, 6), st.data())
def test_signature_int_zero_diagonal_matches_jacobi_after_mixing(q, data):
    """A symmetric A with zero diagonal starts on the pair step, with rows
    coupled and odd cycles allowed.  B = P^T A P for P = L U, L and U unit
    lower and upper triangular, mostly has nonzero leading minors, and
    Jacobi's rule on B gives the signature of A."""
    entry = st.integers(-3, 3)
    a = [[0] * q for _ in range(q)]
    low = [[int(i == j) for j in range(q)] for i in range(q)]
    up = [[int(i == j) for j in range(q)] for i in range(q)]
    for i in range(q):
        for j in range(i):
            a[i][j] = a[j][i] = data.draw(entry)
            low[i][j], up[j][i] = data.draw(entry), data.draw(entry)
    p = [[sum(low[i][s] * up[s][j] for s in range(q)) for j in range(q)]
         for i in range(q)]
    expected = jacobi_signature(_congruent(a, p))
    assume(expected is not None)  # this also drops every singular A
    assert signature_int(IntegerForm(1, a)) == expected


@st.composite
def hyperbolic_sums(draw):
    """[[0, M], [M^T, 0]] + diag(units) for a unimodular M, in a permuted
    basis, and its signature sum(units).  The first block is congruent to
    hyperbolic planes by diag(I, M) and keeps a zero diagonal, so the
    elimination reaches the pair step with rows still coupled."""
    planes = draw(st.integers(1, 3))
    m = draw(unimodular_matrices(planes))
    units = draw(st.lists(st.sampled_from((1, -1)), max_size=3))
    q = 2 * planes + len(units)
    a = [[0] * q for _ in range(q)]
    for i in range(planes):
        for j in range(planes):
            a[i][planes + j] = a[planes + j][i] = m[i][j]
    for n, u in enumerate(units):
        a[2 * planes + n][2 * planes + n] = u
    order = draw(st.permutations(range(q)))
    return [[a[i][j] for j in order] for i in order], sum(units)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(hyperbolic_sums(), st.data())
def test_signature_int_congruence_invariance(case, data):
    a, expected = case
    p = data.draw(unimodular_matrices(len(a)))
    assert signature_int(IntegerForm(1, a)) == expected
    assert signature_int(IntegerForm(1, _congruent(a, p))) == expected


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(2, 6), st.data())
def test_signature_int_rejects_singular_matrices(q, data):
    """B^T D B with B of r < q rows has rank at most r."""
    r = data.draw(st.integers(0, q - 1))
    b = [[data.draw(st.integers(-3, 3)) for _ in range(q)] for _ in range(r)]
    d = [data.draw(st.sampled_from((1, -1))) for _ in range(r)]
    a = [[sum(b[s][i] * d[s] * b[s][j] for s in range(r)) for j in range(q)]
         for i in range(q)]
    with pytest.raises(InvariantViolation):
        signature_int(IntegerForm(1, a))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 4), st.data())
def test_arf_is_the_majority_value(planes, data):
    """Arf(q) = 1 exactly when q = 1 on more than half of F_2^rank, with
    q(x) = sum_i x_i mu_i + sum_{i<j} x_i x_j b_ij mod 2."""
    q = 2 * planes
    j = [[0] * q for _ in range(q)]
    for h in range(planes):
        j[2 * h][2 * h + 1], j[2 * h + 1][2 * h] = 1, -1
    b = _congruent(j, data.draw(unimodular_matrices(q)))
    mu = [data.draw(st.integers(0, 1)) for _ in range(q)]
    ones = 0
    for x in itertools.product((0, 1), repeat=q):
        value = sum(x[i] * mu[i] for i in range(q))
        value += sum(x[i] * x[k] * b[i][k]
                     for i in range(q) for k in range(i + 1, q))
        ones += value % 2
    assert arf(IntegerForm(-1, b, mu)) == int(2 * ones > 2 ** q)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(ORDERS), st.data())
def test_group_ring_and_virtual_rep_share_one_canonical_dict(order, data):
    """Negative and out-of-range keys reduce mod p^k, values on one class
    sum, and classes that cancel are dropped, alike in both types."""
    p, k = order
    n = p ** k
    raw = data.draw(st.dictionaries(st.integers(-3 * n, 3 * n),
                                    st.integers(-5, 5), max_size=10))
    for r, c in list(raw.items())[:3]:
        raw.setdefault(r + n, -c)  # cancels r's class unless already set
    expected = {}
    for r, c in raw.items():
        expected[r % n] = expected.get(r % n, 0) + c
    expected = {r: c for r, c in expected.items() if c}
    assert GroupRingElement(p, k, raw).coeffs == expected
    assert VirtualRep(p, k, raw).mults == expected


@pytest.mark.parametrize("p, k, message", [
    (3, 0, "level exponent k must be >= 1"),
    (9, 1, "group order must be a power of an odd prime"),
])
def test_group_ring_and_virtual_rep_reject_alike(p, k, message):
    for build in (GroupRingElement, VirtualRep):
        with pytest.raises(DomainError, match="^%s$" % message):
            build(p, k, {0: 1})


@settings(derandomize=True, max_examples=200, deadline=None)
@given(group_ring_draws(), st.data())
def test_trace_with_shift_is_the_trace_of_the_product(case, data):
    x, _ = case
    assume(x.k >= 2)
    shift = data.draw(st.integers(1 - x.p, x.p - 1))
    g = GroupRingElement(x.p, x.k, {shift: 1})
    assert lforms._trace(x)[shift] == lforms._trace(x * g)[0]
