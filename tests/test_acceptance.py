"""End-to-end acceptance suite.

Each test exercises one advertised guarantee, prints a single PASS or
FAIL line with its runtime, and enforces a wall-clock budget.
"""

import contextlib
import io
import itertools
import json
import random
import time
from fractions import Fraction
from math import factorial

import pytest

from charwit.cli import certificate_from_json, main
from charwit.cyclic_coh import chern_character
from charwit.detect import (DetectionProblem, find_rational_witness,
                            run_pipeline, specialize, to_l_coordinates,
                            verify_certificate)
from charwit.errors import InvariantViolation
from charwit.lforms import (GroupRingElement, HermitianForm, IntegerForm, arf,
                            congruence, direct_sum, hyperbolic,
                            multisignature, random_form, signature_int,
                            transfer)
from charwit.repring import restrict, solve_chern_targets, symmetrize
from charwit.symfun import GradedPolynomial, l_table, parse_polynomial


@contextlib.contextmanager
def criterion(number, label, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print("criterion %d  %-46s  FAIL  (%.2fs)"
              % (number, label, time.perf_counter() - start))
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget else "FAIL"
    print("criterion %d  %-46s  %s  (%.2fs, budget %gs)"
          % (number, label, verdict, elapsed, budget))
    assert elapsed < budget, "runtime budget exceeded"


def triangle_bernoulli(n):
    a = []
    for m in range(n + 1):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0]


def genus_coefficients(order):
    return [Fraction(4 ** s) * triangle_bernoulli(2 * s) / factorial(2 * s)
            for s in range(order + 1)]


def l_value_oracle(roots, i):
    fs = genus_coefficients(i)
    series = [Fraction(1)] + [Fraction(0)] * i
    for b in roots:
        factor = [fs[s] * b ** s for s in range(i + 1)]
        series = [sum((series[a] * factor[c - a] for a in range(c + 1)),
                      Fraction(0)) for c in range(i + 1)]
    return series[i]


def elementary(roots, j):
    return sum((_prod(comb) for comb in itertools.combinations(roots, j)),
               Fraction(0))


def _prod(xs):
    out = Fraction(1)
    for x in xs:
        out *= x
    return out


def evar(n):
    return GradedPolynomial.variable("e", n)


def pvar(i):
    return GradedPolynomial.variable("p%d" % i, 2 * i)


def reduce_mod(value, p):
    return value.numerator * pow(value.denominator, -1, p) % p


def test_criterion_1_l_table():
    with criterion(1, "L-table: closed form, series, round trip", 5):
        table = l_table(6)
        for i in range(1, 7):
            lead = (Fraction(2 ** (2 * i) * (2 ** (2 * i - 1) - 1))
                    * abs(triangle_bernoulli(2 * i)) / factorial(2 * i))
            assert table.l(i).coefficient({"p%d" % i: 1}) == lead
        rng = random.Random(11)
        for _ in range(10):
            roots = [Fraction(rng.randint(1, 9), rng.randint(1, 5))
                     for _ in range(4)]
            for i in (1, 2, 3):
                point = {"p%d" % j: elementary(roots, j)
                         for j in range(1, i + 1)}
                assert table.l(i).evaluate(point) == l_value_oracle(roots, i)
        for i in range(1, 7):
            ls = {"x%d" % j: table.l(j) for j in range(1, i + 1)}
            assert table.p(i).substitute(ls) == pvar(i)


def test_criterion_2_chern_solver():
    with criterion(2, "Chern solver round trip and symmetrize", 2):
        for p in (5, 7, 11, 13, 17):
            rng = random.Random(100 + p)
            for _ in range(100):
                targets = [rng.randrange(p) for _ in range(p)]
                rep = solve_chern_targets(p, targets)
                for j, t in enumerate(targets):
                    assert chern_character(rep, j) == t
                n = rng.choice((2, 3, 4, 5))
                sym = symmetrize(rep, n)
                conj = sym.conjugate()
                for r in range(p):
                    assert conj.multiplicity(r) \
                        == (-1) ** n * sym.multiplicity(r)
                for j in range(n % 2, p, 2):
                    assert chern_character(sym, j) \
                        == chern_character(rep, j)


def test_criterion_3_flagship(tmp_path):
    with criterion(3, "flagship e^2 - p2 certificate chain", 10):
        prefix = str(tmp_path / "flagship")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["certify", "--xi", "e^2 - p2", "--n", "2",
                         "--primes", "10", "--out", prefix])
        assert code == 0
        files = sorted(tmp_path.glob("flagship_p*.json"),
                       key=lambda f: int(f.stem.split("_p")[1]))
        assert len(files) == 10
        assert int(files[0].stem.split("_p")[1]) == 53
        for path in files:
            cert = certificate_from_json(path.read_text())
            ok, report = verify_certificate(cert)
            assert ok and report == "ok"
            assert 0 < cert.evaluation < cert.prime
            assert cert.evaluation == reduce_mod(cert.witness.value,
                                                 cert.prime)


def partitions(total, top):
    if total == 0:
        yield ()
        return
    for i in range(min(total, top), 0, -1):
        for rest in partitions(total - i, i):
            yield (i,) + rest


def weight_monomials(n, w):
    """Every monomial e^a p_i1 ... p_is of weight w with indices <= 4."""
    out = []
    for a in range(w // n + 1):
        rem = w - a * n
        if rem % 2:
            continue
        for part in partitions(rem // 2, 4):
            if a or part:
                out.append((a, part))
    return out


def random_cases(count, seed):
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        n = (2, 3, 4, 5)[len(cases) % 4]
        w = rng.choice((4, 5, 6, 7, 8, 9, 10))
        monos = weight_monomials(n, w)
        if len(monos) < 2:
            continue
        chosen = rng.sample(monos, min(len(monos), rng.randint(1, 5)))
        poly = None
        for a, part in chosen:
            term = Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) * evar(n) ** a
            for i in part:
                term = term * pvar(i)
            poly = term if poly is None else poly + term
        # the witness value's prime factors set the modulus floor N, and
        # certify's work grows with the first prime above N: the Chern
        # targets fill p entries, and the closed-form solve makes one
        # modular power per pair +-s and per nonzero target; skip draws
        # whose first admissible prime would make that work large
        if find_rational_witness(DetectionProblem(poly, n)).N > 400:
            continue
        cases.append((poly, n))
    return cases


def test_criterion_4_random_polynomials():
    with criterion(4, "random polynomials through the pipeline", 60):
        for poly, n in random_cases(25, 20260816):
            certs = run_pipeline(poly, n, 3)
            assert len(certs) == 3
            for cert in certs:
                ok, report = verify_certificate(cert)
                assert ok, report
                assert cert.evaluation == reduce_mod(cert.witness.value,
                                                     cert.prime)
                assert cert.problem.degree_2r == 2 * poly.weight()


def random_change(rng, p, k, rank):
    e = [[1 if a == b else 0 for b in range(rank)] for a in range(rank)]
    if rank == 1:
        e[0][0] = GroupRingElement(p, k,
                                   {rng.randrange(p ** k): rng.choice((1, -1))})
        return e
    c = rng.randrange(rank)
    d = (c + rng.randrange(1, rank)) % rank
    e[c][d] = GroupRingElement(p, k, {rng.randrange(p ** k): rng.randint(-2, 2)
                                      for _ in range(2)})
    return e


def test_criterion_5_multisignature_properties():
    with criterion(5, "multisignature property suite", 30):
        for p, k in ((3, 1), (5, 1), (3, 2)):
            for parity in (1, -1):
                sign = multisignature(hyperbolic(p, k, parity, 2))
                assert sign.serialize() == []
        rng = random.Random(55)
        checked = 0
        for p in (3, 5):
            for parity in (1, -1):
                for s in range(50):
                    rank = rng.choice((2, 4)) if parity == -1 \
                        else rng.randint(1, 4)
                    form = random_form(p, 1, parity, rank,
                                       1000 * p + 500 * (parity < 0) + s)
                    sign = multisignature(form)
                    moved = congruence(form, random_change(rng, p, 1, rank))
                    assert multisignature(moved) == sign
                    conj = sign.conjugate()
                    for r in range(p):
                        assert conj.multiplicity(r) \
                            == parity * sign.multiplicity(r)
                    checked += 1
        assert checked == 200
        for s in range(5):
            a = random_form(3, 1, 1, 2, 9000 + s)
            b = random_form(3, 1, 1, 3, 9100 + s)
            assert multisignature(direct_sum(a, b)) \
                == multisignature(a) + multisignature(b)
            c = random_form(3, 1, -1, 2, 9200 + s)
            d = random_form(3, 1, -1, 2, 9300 + s)
            assert multisignature(direct_sum(c, d)) \
                == multisignature(c) + multisignature(d)
        with pytest.raises(InvariantViolation):
            multisignature(HermitianForm(3, 1, 1, [["1 + g + g^2"]]))


def test_criterion_6_transfer_intertwining():
    with criterion(6, "transfer intertwines restriction", 60):
        for p, total in ((3, 50), (5, 20)):
            for s in range(total):
                parity = 1 if s % 2 == 0 else -1
                rank = (s % 3) + 1 if parity == 1 else 2
                form = random_form(p, 2, parity, rank, 4000 + 100 * p + s)
                assert restrict(multisignature(form)) \
                    == multisignature(transfer(form))


def test_criterion_7_signature_fixtures():
    with criterion(7, "signature and Arf fixtures", 1):
        assert signature_int(IntegerForm(1, [[0, 1], [1, 0]])) == 0
        e8 = [[0] * 8 for _ in range(8)]
        for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)):
            e8[i][j] = e8[j][i] = -1
        for i in range(8):
            e8[i][i] = 2
        assert signature_int(IntegerForm(1, e8)) == 8
        assert arf(IntegerForm(-1, [[0, 1], [-1, 0]], [0, 0])) == 0
        assert arf(IntegerForm(-1, [[0, 1], [-1, 0]], [1, 1])) == 1


def leaf_paths(node, prefix=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaf_paths(value, prefix + (i,))
    else:
        yield prefix, node


def mutate(doc, rng):
    paths = list(leaf_paths(doc))
    path, value = paths[rng.randrange(len(paths))]
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    if rng.random() < 0.12 and isinstance(parent, dict):
        del parent[last]
        return
    if isinstance(value, int):
        parent[last] = value + rng.choice((1, -1, 7, 101))
    else:
        num, slash, den = str(value).partition("/")
        if slash and num.lstrip("-").isdigit():
            parent[last] = "%d/%s" % (int(num) + rng.choice((1, -1, 5)), den)
        elif num.lstrip("-").isdigit():
            parent[last] = str(int(num) + rng.choice((1, -1, 5)))
        else:
            pos = rng.randrange(len(value) + 1)
            parent[last] = value[:pos] + rng.choice("xq9^") + value[pos:]


def forward_value(doc):
    """Re-evaluate the specialized polynomial at the stored witness, mod p,
    from the file's own Xi, n, z and p (m derived from Xi and n); raises
    when the file is too broken."""
    head = doc["problem"]
    poly = parse_polynomial(head["xi"], head["n"])
    problem = DetectionProblem(poly, head["n"])
    z = [Fraction(s) for s in doc["witness"]["z"]]
    names = problem.coordinate_names()
    if len(names) != len(z):
        raise ValueError("coordinate count mismatch")
    value = specialize(to_l_coordinates(problem.polynomial),
                       problem.n).evaluate(dict(zip(names, z)))
    return reduce_mod(value, doc["prime"])


def test_criterion_8_certificate_integrity(tmp_path):
    with criterion(8, "certificate integrity under mutation", 5):
        prefix = str(tmp_path / "base")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["certify", "--xi", "e^2 - p2", "--n", "2",
                         "--primes", "1", "--out", prefix])
        assert code == 0
        base = (tmp_path / "base_p53.json").read_text()
        target = tmp_path / "mutated.json"
        rng = random.Random(88)
        for _ in range(100):
            doc = json.loads(base)
            mutate(doc, rng)
            target.write_text(json.dumps(doc, indent=2) + "\n")
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = main(["verify", str(target)])
            assert code in (0, 1, 2)
            try:
                forward = forward_value(json.loads(target.read_text()))
            except Exception:
                continue
            if forward != doc["evaluation"]:
                assert code != 0
