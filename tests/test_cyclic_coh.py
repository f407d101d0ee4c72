import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from charwit.cyclic_coh import (LinearRepData, chern_character, euler_class,
                                l_class_linear, pullback_l_nonlinear)
from charwit.detect import M_LIMIT
from charwit.errors import DomainError
from charwit.repring import VirtualRep
from charwit.scalars import from_rational, is_odd_prime
from test_symfun import l_series_oracle


def test_linear_rep_data_canonicalizes():
    rho = LinearRepData(5, (7, -2))
    assert rho.residues == (2, 3)
    assert rho.n == 2
    with pytest.raises(DomainError):
        LinearRepData(5, (5,))
    with pytest.raises(DomainError):
        LinearRepData(4, (1,))


def test_euler_class_frozen():
    e = euler_class(LinearRepData(5, (2, 3)))
    assert e == 1
    e = euler_class(LinearRepData(7, (1, 2, 3)))
    assert e == 6


def test_l_class_linear_frozen():
    v = l_class_linear(LinearRepData(7, (1, 1)), 1)[0]
    assert v == 3
    v = l_class_linear(LinearRepData(11, (2,)), 2)[1]
    assert v == 6


def test_l_class_linear_prime_bound():
    """L_i has denominator primes up to 2i + 1, so p must exceed that."""
    with pytest.raises(DomainError):
        l_class_linear(LinearRepData(5, (1, 2)), 2)
    # l_2(1, 2) = 1/15 = 1 mod 7
    assert l_class_linear(LinearRepData(7, (1, 2)), 2)[1] == 1


def test_l_class_linear_refuses_exactly_the_small_primes():
    """The series mod p states the bound p > 2m + 1 itself: an odd prime
    p <= 2m + 1 divides the denominator of k c_k at k = (p - 1)/2 <= m
    (von Staudt-Clausen), and a larger one divides no denominator."""
    for m in range(1, M_LIMIT + 1):
        for p in filter(is_odd_prime, range(3, 2 * m + 60)):
            rho = LinearRepData(p, (1, 2))
            if p <= 2 * m + 1:
                with pytest.raises(DomainError):
                    l_class_linear(rho, m)
            else:
                assert len(l_class_linear(rho, m)) == m


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([p for p in range(7, 102) if is_odd_prime(p)]).flatmap(
    lambda p: st.tuples(
        st.just(p), st.integers(1, min((p - 3) // 2, M_LIMIT)),
        st.lists(st.integers(-3 * p, 3 * p).filter(lambda a: a % p),
                 min_size=1, max_size=6))))
@example((83, M_LIMIT, [1, -2, 82, 5, 40, -41]))
@example((97, M_LIMIT, [3, 96, 195, -7]))
def test_l_class_linear_matches_the_product_oracle(case):
    """Entry i - 1 of l_class_linear(rho, m) is the u^i coefficient of
    prod_j f(a_j^2 u), f(u) = t/tanh(t) with u = t^2, over Q at the
    integer weights a_j, reduced mod p: an oracle without log or exp for
    the series l_class_linear runs mod p, up to m = M_LIMIT."""
    p, m, weights = case
    squares = [Fraction(a * a) for a in weights]
    assert l_class_linear(LinearRepData(p, weights), m) == [
        from_rational(p, v) for v in l_series_oracle(squares, m)[1:]]


def test_chern_character_frozen():
    v = chern_character(VirtualRep.character(5, 1, 2), 2)
    assert v == 2
    v = chern_character(VirtualRep(5, 1, {0: 3}), 0)
    assert v == 3  # ch_0 is the dimension, 0^0 = 1


def test_chern_character_bounds():
    xi = VirtualRep.character(5, 1, 1)
    assert chern_character(xi, 4) == 4  # 1/4! = 1/4 mod 5
    with pytest.raises(DomainError):
        chern_character(xi, 5)
    with pytest.raises(DomainError):
        chern_character(VirtualRep.character(3, 2, 1), 1)


def test_pullback_nonlinear_hand_value():
    """p = 11, n = 2, weights (1, 2), i = 2, xi = chi^1 - chi^0.

    l_2(1, 2) = (7*e2 - e1^2)/45 at e1 = 5, e2 = 4 is 1/15 = 3 mod 11;
    the correction 2^4 * E * ch_2(xi) = 16 * 2 * (1/2) = 16 = 5 mod 11;
    3 - 5 = 9 mod 11.
    """
    rho = LinearRepData(11, (1, 2))
    xi = VirtualRep(11, 1, {1: 1, 0: -1})
    v = pullback_l_nonlinear(rho, xi, 2)[1]
    assert v == 9


def test_pullback_linear_branch():
    rho = LinearRepData(11, (1, 2, 3))
    xi = VirtualRep(11, 1, {})
    assert pullback_l_nonlinear(rho, xi, 1) == l_class_linear(rho, 1)


def test_pullback_validates_rank():
    rho = LinearRepData(11, (1, 2))
    with pytest.raises(DomainError):
        pullback_l_nonlinear(rho, VirtualRep(7, 1, {}), 2)


def mod_p_grid():
    """Every class on seeded data: p in {7, 11, 13, 53}, n = 2..6, random
    nonzero residues and a random virtual representation per (p, n), every
    i with p > 2i + 1 up to 8 and every j < p."""
    rng = random.Random(2208)
    for p in (7, 11, 13, 53):
        for n in range(2, 7):
            rho = LinearRepData(p, [rng.randrange(1, p) for _ in range(n)])
            xi = VirtualRep(p, 1, {rng.randrange(p): rng.randint(-9, 9)
                                   for _ in range(4)})
            yield "e", p, rho.residues, n, euler_class(rho)
            m = min((p - 1) // 2, 9) - 1
            linear = l_class_linear(rho, m)
            pulled = pullback_l_nonlinear(rho, xi, m)
            for i in range(1, m + 1):
                yield "l", p, rho.residues, i, linear[i - 1]
                yield ("L", p, rho.residues + tuple(xi.serialize()), i,
                       pulled[i - 1])
            for j in range(p):
                yield ("ch", p, tuple(xi.serialize()), j,
                       chern_character(xi, j))


def test_mod_p_grid_digest_frozen():
    """The 630 coefficients of mod_p_grid, hashed; the digest was computed
    when these functions still returned wrapped classes, so it pins the
    values across the change to plain ints."""
    rows = list(mod_p_grid())
    assert len(rows) == 630
    for row in rows:
        assert type(row[-1]) is int and 0 <= row[-1] < row[1]
    text = "".join("%s %d %r %d %d\n" % row for row in rows)
    assert hashlib.sha256(text.encode()).hexdigest() \
        == "1ccaf749d1e46ddb7ac306e00162102b040d9ddd854a1dab062146aa3e301d39"
