import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from importlib import import_module

import pytest
from hypothesis import given, settings, strategies as st

import charwit
import charwit.detect as detect
from charwit.cli import main
from charwit.detect import (DetectionProblem, M_LIMIT, WORK_LIMIT,
                            build_certificate,
                            certificate_from_json, certificate_to_json,
                            find_rational_witness, run_pipeline)
from charwit.detect import WitnessCertificate, WitnessPoint, _derive
from charwit.errors import (DomainError, InternalConsistencyError,
                            InvariantViolation, ParseError)
from charwit.repring import VirtualRep, restrict
from charwit.scalars import DIGIT_LIMIT, odd_primes_above, rational_to_string
from charwit.lforms import (FORM_ORDER_LIMIT, HermitianForm, form_from_json,
                            form_to_json, format_group_ring, hyperbolic,
                            multisignature, multisignature_to_json,
                            parse_group_ring, random_form, transfer)
from charwit.symfun import GradedPolynomial, parse_polynomial
from test_acceptance import random_cases
from test_fuzz import library_verdict
from test_symfun import CERTIFY_SUITE


def evar(n):
    return GradedPolynomial.variable("e", n)


def pvar(i):
    return GradedPolynomial.variable("p%d" % i, 2 * i)


def test_parse_polynomial_frozen():
    xi = parse_polynomial("e^2 - p2", 2)
    assert xi == evar(2) ** 2 - pvar(2)
    assert str(xi) == "e^2 - p2"
    l2 = parse_polynomial("7/45*p2 - 1/45*p1^2", 2)
    assert str(l2) == "7/45*p2 - 1/45*p1^2"
    assert parse_polynomial("-e", 3) == -evar(3)
    assert parse_polynomial("2", 1).weight() == 0


def test_parse_polynomial_lives_in_symfun():
    """The reader sits beside the printer in symfun; the package and cli
    (where certify, witness and verify call it) bind that one function."""
    assert charwit.parse_polynomial is charwit.cli.parse_polynomial
    assert charwit.cli.parse_polynomial is parse_polynomial
    assert parse_polynomial.__module__ == "charwit.symfun"


@pytest.mark.parametrize("name, module", [
    ("certificate_from_json", "detect"), ("certificate_to_json", "detect"),
    ("form_from_json", "lforms"), ("form_to_json", "lforms"),
])
def test_documents_live_beside_their_types(name, module):
    """Each document is read and written in the module of its type, and the
    package binds that one function."""
    function = getattr(charwit, name)
    assert function.__module__ == "charwit." + module
    assert function is getattr(import_module("charwit." + module), name)


@pytest.mark.parametrize("name", [
    "parse_polynomial", "certificate_from_json", "certificate_to_json",
    "find_rational_witness", "build_certificate", "verify_certificate"])
def test_cli_binds_what_its_handlers_call(name):
    """The handlers call these through cli's own module-level names, which
    are the package's functions."""
    assert getattr(charwit, name) is getattr(charwit.cli, name)


def test_parse_polynomial_reserialization_is_stable():
    for text in ("e^2 - p2", "3*p1*p2 - 1/2*e*p1", "p3 - e^2"):
        once = str(parse_polynomial(text, 2))
        assert str(parse_polynomial(once, 2)) == once


def test_parse_polynomial_errors():
    with pytest.raises(ParseError) as err:
        parse_polynomial("e + ", 2)
    assert "offset 4" in str(err.value)
    with pytest.raises(ParseError):
        parse_polynomial("2 p1", 2)  # missing '*'
    with pytest.raises(ParseError):
        parse_polynomial("p0", 2)
    with pytest.raises(ParseError):
        parse_polynomial("e^", 2)
    with pytest.raises(ParseError):
        parse_polynomial("1/0*p1", 2)
    with pytest.raises(ParseError):
        parse_polynomial("", 2)


@st.composite
def polynomials(draw):
    """A random polynomial in e (weight n) and p1..p4, not homogeneous."""
    n = draw(st.integers(1, 6))
    total = GradedPolynomial.zero()
    for _ in range(draw(st.integers(0, 5))):
        coeff = draw(st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                                  max_denominator=10 ** 4))
        term = GradedPolynomial.constant(coeff)
        for name in draw(st.lists(st.sampled_from(["e", "p1", "p2", "p3",
                                                   "p4"]), max_size=4)):
            term = term * (evar(n) if name == "e" else pvar(int(name[1:])))
        total = total + term
    return total, n


@settings(derandomize=True, max_examples=300, deadline=None)
@given(polynomials())
def test_parse_polynomial_round_trip_random(case):
    poly, n = case
    text = str(poly)
    parsed = parse_polynomial(text, n)
    assert parsed == poly and str(parsed) == text


# Seeded strings over each text format's alphabet: ASCII digits, its
# variables, "^", "*", "/", signs and spaces, and the non-ASCII digits
# U+0663 and U+00B2; then signed sums of whole terms, so that many strings
# parse; then over-long literals.
_SUM_TOKENS = list("0123456789^*/-") + [" + ", " - ", " * ", " ", "\u0663",
                                        "\u00b2"]
_SEPARATORS = [" + ", " - ", "+", "-", " - -", "--", "\n+\t", " -  - - "]
_POLYNOMIAL_TERMS = ["e", "p1", "p2^3", "2*e^2", "3/4*p1*p2", "7", "0*p3",
                     "1/2 * e * p1", "p10^2", "12/8", "-e"]
_GROUP_RING_TERMS = ["g", "g^5", "2*g^-4", "3", "0*g", "g^12", "1 * g^8",
                     "-g", "10*g^0", "g^-1"]


def _outcome_lines(parse, show, letters, terms, seed, long_texts):
    """One line per text: the canonical text of what parse returns, or the
    parse error with its offset."""
    rng = random.Random(seed)
    tokens = _SUM_TOKENS + letters + terms
    texts = ["".join(rng.choice(tokens) for _ in range(rng.randrange(10)))
             for _ in range(3000)]
    for _ in range(1000):
        text = rng.choice(["", "-", " ", "- "]) + rng.choice(terms)
        for _ in range(rng.randrange(4)):
            text += rng.choice(_SEPARATORS) + rng.choice(terms)
        texts.append(text)
    lines = []
    for text in texts + long_texts:
        try:
            lines.append(show(parse(text)))
        except ParseError as err:
            lines.append("error: %s" % err)
    return lines


def test_parser_outcome_digest_frozen():
    """Every result and every error text and offset of both text parsers on
    a seeded corpus, hashed; the digest was computed before the two parsers
    shared their signed-sum reader and must not move."""
    lines = _outcome_lines(lambda t: parse_polynomial(t, 2), str,
                           ["e", "p"], _POLYNOMIAL_TERMS, 15,
                           [HUGE + "*e", "e^" + HUGE, "p" + HUGE, "1/" + HUGE])
    lines += _outcome_lines(lambda t: parse_group_ring(t, 3, 2),
                            format_group_ring, ["g"], _GROUP_RING_TERMS, 16,
                            [HUGE, "2*g^" + HUGE, "g^-" + HUGE, "- " + HUGE])
    assert sum(not line.startswith("error: ") for line in lines) > 2000
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "c94e54f08fab086a0e613993f9e977e4e4621b4b7ad888c07d4e80487368f040")


def flagship_certificate():
    problem = DetectionProblem(evar(2) ** 2 - pvar(2), 2)
    return build_certificate(problem, find_rational_witness(problem), 53)


def test_certificate_round_trip_bytes():
    cert = flagship_certificate()
    text = certificate_to_json(cert)
    assert text.endswith("\n")
    assert certificate_to_json(certificate_from_json(text)) == text
    data = json.loads(text)
    assert list(data) == ["version", "problem", "witness", "prime",
                          "residues", "targets", "xi_rep", "pullbacks",
                          "evaluation"]
    assert data["prime"] == 53
    assert data["witness"]["value"] == "-47/7"
    assert data["problem"]["xi"] == "e^2 - p2"


def oracle_certificate_json(cert):
    """The certificate text as json.dumps wrote it before certify wrote
    its layout directly."""
    problem = cert.problem
    witness = cert.witness
    doc = {
        "version": 1,
        "problem": {
            "xi": str(problem.polynomial),
            "n": problem.n,
            "m": problem.m,
            "k": problem.k,
            "degree_2r": problem.degree_2r,
        },
        "witness": {
            "z": [rational_to_string(c) for c in witness.coordinates],
            "value": rational_to_string(witness.value),
            "N": witness.N,
        },
        "prime": cert.prime,
        "residues": list(cert.residues),
        "targets": list(cert.targets),
        "xi_rep": [list(pair) for pair in cert.xi.serialize()],
        "pullbacks": {
            "euler": cert.euler,
            "L": [[i, cert.l_pullbacks[i]] for i in sorted(cert.l_pullbacks)],
        },
        "evaluation": cert.evaluation,
    }
    return json.dumps(doc, indent=2) + "\n"


def test_certificate_writer_matches_json_dumps():
    """The writer gives json.dumps's bytes on the 21 certificates of the
    certify suite (the p = 53 flagship among them), on seeded random
    problems, and on a certificate whose xi_rep is empty."""
    certs = [cert for xi, n in CERTIFY_SUITE
             for cert in run_pipeline(parse_polynomial(xi, n), n, 3)]
    assert len(certs) == 21
    assert FLAGSHIP_TEXT in map(certificate_to_json, certs)
    certs += [run_pipeline(poly, n, 1)[0]
              for poly, n in random_cases(8, 20261019)]
    flagship = flagship_certificate()
    certs.append(WitnessCertificate(
        flagship.problem, flagship.witness, flagship.prime, flagship.residues,
        flagship.targets, VirtualRep(53, 1, {}), flagship.euler,
        flagship.l_pullbacks, flagship.evaluation))
    for cert in certs:
        assert certificate_to_json(cert) == oracle_certificate_json(cert)
    assert '"xi_rep": [],' in certificate_to_json(certs[-1])


def test_certificate_writer_refuses_overlong_int():
    """An int of more than DIGIT_LIMIT digits, where json.dumps raises
    ValueError at the interpreter's default limit, is the writer's named
    DomainError, which certify reports as it is; one of DIGIT_LIMIT digits
    is written as json.dumps writes it."""
    flagship = flagship_certificate()

    def with_evaluation(evaluation):
        return WitnessCertificate(
            flagship.problem, flagship.witness, flagship.prime,
            flagship.residues, flagship.targets, flagship.xi, flagship.euler,
            flagship.l_pullbacks, evaluation)

    longest = with_evaluation(1 - 10 ** DIGIT_LIMIT)
    cert = with_evaluation(10 ** DIGIT_LIMIT)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DIGIT_LIMIT)  # json.dumps at the default
    try:
        assert certificate_to_json(longest) == oracle_certificate_json(longest)
        with pytest.raises(ValueError):
            oracle_certificate_json(cert)
    finally:
        sys.set_int_max_str_digits(saved)
    with pytest.raises(DomainError) as err:
        certificate_to_json(cert)
    assert str(err.value) == ("the certificate has a number of more than %d "
                              "digits, which verify cannot read" % DIGIT_LIMIT)


def test_certificate_json_rejects_bad_structure():
    cert = flagship_certificate()
    data = json.loads(certificate_to_json(cert))
    for broken in (
            {**data, "version": 2},
            {**data, "prime": "53"},
            {**data, "witness": {**data["witness"], "z": "1"}},
            {k: v for k, v in data.items() if k != "targets"},
    ):
        with pytest.raises(ParseError):
            certificate_from_json(json.dumps(broken))
    with pytest.raises(ParseError):
        certificate_from_json("[1, 2]")
    with pytest.raises(ParseError):
        certificate_from_json("{not json")


def test_form_json_round_trip():
    form = HermitianForm(3, 1, -1,
                         [["g - g^2", "1"], ["-1", "g - g^2"]],
                         refinement=["g", "g"])
    text = form_to_json(form)
    assert form_from_json(text) == form
    plain = form_from_json(form_to_json(hyperbolic(5, 1, 1, 2)))
    assert plain.refinement is None and plain.rank == 4


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_l_table(capsys):
    code, out, err = run(capsys, "l-table", "--max", "2")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "L1 = 1/3*p1",
        "L2 = 7/45*p2 - 1/45*p1^2",
        "P1 = 3*x1",
        "P2 = 45/7*x2 + 9/7*x1^2",
    ]


def test_cli_witness(capsys):
    code, out, err = run(capsys, "witness", "--xi", "e^2 - p2", "--n", "2")
    assert code == 0
    assert out.splitlines() == [
        "z = (1, 1, 1, 1)",
        "value = -47/7",
        "N = 47",
    ]


def test_cli_certify_and_verify(tmp_path, capsys):
    prefix = str(tmp_path / "cert")
    code, out, err = run(capsys, "certify", "--xi", "e^2 - p2", "--n", "2",
                         "--primes", "2", "--out", prefix)
    assert code == 0
    assert out.splitlines() == ["p=53 eval=16 OK", "p=59 eval=27 OK"]
    path53 = tmp_path / "cert_p53.json"
    path59 = tmp_path / "cert_p59.json"
    assert path53.exists() and path59.exists()

    for path in (path53, path59):
        code, out, err = run(capsys, "verify", str(path))
        assert code == 0 and out.strip() == "ok"

    # byte-identical on a second run
    before = path53.read_bytes()
    run(capsys, "certify", "--xi", "e^2 - p2", "--n", "2",
        "--primes", "2", "--out", prefix)
    assert path53.read_bytes() == before


@pytest.fixture
def derived_primes(monkeypatch):
    """The prime of each detect._derive call."""
    primes = []
    derive = detect._derive
    monkeypatch.setattr(detect, "_derive",
                        lambda *args: primes.append(args[2]) or derive(*args))
    return primes


def test_certify_derives_each_certificate_once(derived_primes, tmp_path,
                                               capsys):
    """run_pipeline and charwit certify derive each certificate once and
    check its claims on that derivation, with no second derivation to
    verify it: 14 by each path for the 7 certify-suite problems at 2
    primes."""
    certified = []
    for xi, n in CERTIFY_SUITE:
        certs = run_pipeline(parse_polynomial(xi, n), n, 2)
        assert run(capsys, "certify", "--xi", xi, "--n", str(n), "--primes",
                   "2", "--out", str(tmp_path / "cw"))[0] == 0
        certified += [c.prime for c in certs] * 2
    assert len(certified) == 28 and derived_primes == certified


@pytest.mark.parametrize("xi, n, p, i", [("e^2 - p2", 2, 53, 1),
                                         ("p3 - e^2", 3, 727, 2)])
def test_a_failed_claim_ends_certify_naming_it(monkeypatch, tmp_path, capsys,
                                               xi, n, p, i):
    """An xi that misses the targets (detect.symmetrize made to add chi^1,
    which moves every ch_j) fails the first claim: build_certificate and
    run_pipeline raise InternalConsistencyError naming p and the claim, and
    charwit certify exits 1 naming it, with no traceback and no file."""
    symmetrize = detect.symmetrize
    monkeypatch.setattr(detect, "symmetrize", lambda solved, n: (
        symmetrize(solved, n) + VirtualRep.character(solved.p, 1, 1)))
    report = "p=%d FAILED: target mismatch at i = %d" % (p, i)
    problem = DetectionProblem(parse_polynomial(xi, n), n)
    with pytest.raises(InternalConsistencyError, match="^%s$" % report):
        build_certificate(problem, find_rational_witness(problem), p)
    with pytest.raises(InternalConsistencyError, match="^%s$" % report):
        run_pipeline(problem.polynomial, n, 2)
    assert run(capsys, "certify", "--xi", xi, "--n", str(n), "--primes", "2",
               "--out", str(tmp_path / "cw")) == (1, "", "error: %s\n"
                                                  % report)
    assert list(tmp_path.iterdir()) == []


def test_trace_sites_bind_on_the_cli_path(monkeypatch, tmp_path, capsys):
    """The benchmark's traced runs wrap the names perfbench/tracer.py lists
    where the CLI path binds them.  certify, witness and verify run with
    every site wrapped, and layer_metrics reads their spans, so a rename or
    a signature change that breaks a traced run fails here."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    tracer = import_module("tracer")
    spans = tracer.Tracer()
    prefix = str(tmp_path / "cw")
    try:
        tracer.install_cli_sites(spans)
        assert main(["certify", "--xi", "e^2 - p2", "--n", "2", "--primes",
                     "2", "--out", prefix]) == 0
        assert main(["witness", "--xi", "e^2 - p2", "--n", "2"]) == 0
        assert main(["verify", prefix + "_p53.json"]) == 0
    finally:
        spans.restore()
    assert capsys.readouterr().err == ""
    assert tracer.layer_metrics(spans.spans, 3)["cli.cert_bytes"] > 0


def test_cli_certify_most_l_classes_frozen(tmp_path, capsys):
    """Xi = e at n = 80 has m = 40 = M_LIMIT, the most L-classes a
    certificate may hold; both files keep the bytes they had when ell and
    P were computed over Q and then reduced, and each verifies."""
    assert M_LIMIT == 40
    prefix = str(tmp_path / "e80")
    assert run(capsys, "certify", "--xi", "e", "--n", "80", "--primes", "2",
               "--out", prefix) == (0, "p=83 eval=1 OK\np=89 eval=1 OK\n", "")
    for p, digest in [(83, "b2e6bdebb3e964056427eaa8d08fd201"
                           "a773ed3e7c7e0abb6b18ec3c9d0d75f1"),
                      (89, "f8704e025504887b37b8050d492111ae"
                           "ce69a7800f4031d07dde22b96a565d7c")]:
        path = "%s_p%d.json" % (prefix, p)
        with open(path, "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == digest
        assert run(capsys, "verify", path) == (0, "ok\n", "")


def test_cli_certify_where_xi_cancels_a_denominator_of_p2(tmp_path, capsys):
    """P_2 = (45 x_2 + x_1^2)/7, so at p = 7 a P_2 value is not 7-integral,
    though Xi = 46 e^2 - 7 p2 + p1^2 cancels the 7 at z = (1, 1, 1, 1):
    N = 5, certify skips 7 and writes p = 11, the bytes it wrote before 7
    was skipped, and a p = 7 document exits 1 naming the rule."""
    prefix = str(tmp_path / "cert")
    code, out, err = run(capsys, "certify", "--xi", "46*e^2 - 7*p2 + p1^2",
                         "--n", "2", "--primes", "1", "--out", prefix)
    assert (code, out, err) == (0, "p=11 eval=1 OK\n", "")
    path = tmp_path / "cert_p11.json"
    assert list(tmp_path.iterdir()) == [path]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "4f04bcb3900128d9e7e79be7c8202033852baaae81e3e326d2cf156a9cf78c96")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out.strip()) == (0, "ok")

    problem = DetectionProblem(
        parse_polynomial("46*e^2 - 7*p2 + p1^2", 2), 2)
    witness = find_rational_witness(problem)
    assert witness.N == 5
    text = certificate_to_json(WitnessCertificate(
        problem, witness, 7, (1, 1), (1, 1), VirtualRep(7, 1, {}), 1,
        {1: 0, 2: 0}, 1))
    start = time.perf_counter()
    assert verify_text(tmp_path / "p7.json", text) == (
        1, "", "verification failed: modulus divides an L-series "
        "coefficient\n")
    assert time.perf_counter() - start < 1.0


def test_cli_verify_failure_paths(tmp_path, capsys):
    path = tmp_path / "cert_p53.json"
    run(capsys, "certify", "--xi", "e^2 - p2", "--n", "2",
        "--primes", "1", "--out", str(tmp_path / "cert"))

    data = json.loads(path.read_text())
    data["pullbacks"]["euler"] += 1
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(data, indent=2) + "\n")
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 1
    assert "euler pullback mismatch" in err

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{oops")
    code, out, err = run(capsys, "verify", str(garbled))
    assert code == 2 and err != ""

    code, out, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 2


def _store(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize("field, path, value", [
    ("residues", ("residues", 0), "x"),
    ("residues", ("residues", 0), None),
    ("residues", ("residues", 0), 1.5),
    ("residues", ("residues", 0), True),
    ("targets", ("targets", 0), "x"),
    ("targets", ("targets", 0), None),
    ("xi_rep", ("xi_rep", 0, 0), "x"),
    ("xi_rep", ("xi_rep", 0, 1), None),
    ("xi_rep", ("xi_rep", 0, 0), 1.5),
    ("L", ("pullbacks", "L", 0, 0), 1.5),
    ("L", ("pullbacks", "L", 0, 1), "x"),
    ("L", ("pullbacks", "L", 0, 1), None),
    ("z", ("witness", "z", 0), 1),
    ("z", ("witness", "z", 0), None),
    ("xi_rep", ("xi_rep", 0, 1), True),
    ("xi_rep", ("xi_rep", 0), [1]),
    ("xi_rep", ("xi_rep", 0), 1),
    ("L", ("pullbacks", "L", 0, 0), False),
    ("L", ("pullbacks", "L", 0), [1, 1, 1]),
])
def test_cli_verify_rejects_non_integer_fields(tmp_path, capsys, field, path,
                                               value):
    data = json.loads(certificate_to_json(flagship_certificate()))
    _store(data, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert err.startswith("parse error: ") and field in err
    assert "Traceback" not in err


NAMED_CHECK = re.compile(r"(verification failed|parse error|error): \S")


def _bump(path, delta):
    def edit(doc):
        _store(doc, path, _load(doc, path) + delta)
    return edit


def _load(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(path, value):
    return lambda doc: _store(doc, path, value)


def _canonical(edit):
    """Text of the flagship document after edit(doc), laid out as certify
    lays it out."""
    def text(base):
        doc = json.loads(base)
        edit(doc)
        return json.dumps(doc, indent=2) + "\n"
    return text


# Documents that agree with the flagship certificate (e^2 - p2, p = 53)
# mod p or after parsing, and the check that rejects each.
STRICT_CASES = {
    "residue+p": (_canonical(_bump(("residues", 0), 53)),
                  "residues do not reduce the witness coordinates"),
    "target+p": (_canonical(_bump(("targets", 1), 53)),
                 "targets do not reduce the witness coordinates"),
    "L+p": (_canonical(_bump(("pullbacks", "L", 1, 1), 53)),
            "L-pullback mismatch at i = 2"),
    "euler+p": (_canonical(_bump(("pullbacks", "euler"), 53)),
                "euler pullback mismatch"),
    "evaluation+p": (_canonical(_bump(("evaluation",), 53)),
                     "evaluation differs from the stored value"),
    "xi_rep index+p": (_canonical(_bump(("xi_rep", 3, 0), 53)),
                       "not the canonical certificate text"),
    "xi_rep reversed": (_canonical(lambda doc: doc["xi_rep"].reverse()),
                        "not the canonical certificate text"),
    "xi_rep duplicate key": (
        _canonical(lambda doc: doc["xi_rep"].append(list(doc["xi_rep"][0]))),
        "not the canonical certificate text"),
    "xi_rep multiplicity+p": (_canonical(_bump(("xi_rep", 0, 1), 53)),
                              "xi differs from the symmetrized Chern-target "
                              "solution"),
    "extra key": (_canonical(lambda doc: doc.update(note="x")),
                  "not the canonical certificate text"),
    "xi text": (_canonical(_set(("problem", "xi"), "-p2 + e^2")),
                "not the canonical certificate text"),
    "z 2/2": (_canonical(_set(("witness", "z", 0), "2/2")),
              "not the canonical certificate text"),
    "value 324/7": (_canonical(lambda doc: doc["witness"].update(
        value="324/7", N=7)), "witness value differs from Xi(z)"),
    "compact": (lambda base: json.dumps(json.loads(base)),
                "not the canonical certificate text"),
    "crlf": (lambda base: base.replace("\n", "\r\n"),
             "not the canonical certificate text"),
}


FLAGSHIP_TEXT = certificate_to_json(flagship_certificate())


def verify_text(path, text):
    """Run `charwit verify` on text; (exit code, stdout, stderr)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path)])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", sorted(STRICT_CASES))
def test_cli_verify_accepts_only_canonical_documents(tmp_path, case):
    """`charwit verify` names the check, and certificate_from_json with
    verify_certificate gives the same report on the same text."""
    mutate, report = STRICT_CASES[case]
    text = mutate(FLAGSHIP_TEXT)
    assert text != FLAGSHIP_TEXT
    verdict = (1, "", "verification failed: %s\n" % report)
    assert verify_text(tmp_path / "c.json", text) == verdict
    assert library_verdict(text) == verdict


def test_reader_refuses_a_number_no_canonical_text_holds(tmp_path):
    """Xi's coefficients sum to one of DIGIT_LIMIT + 1 digits, which the
    writer refuses: the text is not canonical, not a failure to write."""
    big = "9" * DIGIT_LIMIT
    text = _canonical(_set(("problem", "xi"), "%s*e^2 + %s*e^2 + e^2 - p2"
                           % (big, big)))(FLAGSHIP_TEXT)
    verdict = (1, "", "verification failed: not the canonical certificate "
               "text\n")
    assert verify_text(tmp_path / "c.json", text) == verdict
    assert library_verdict(text) == verdict


@pytest.mark.parametrize("N", [46, 48, 60])
def test_cli_verify_names_stored_bound(tmp_path, N):
    """N is derived from z, the value and m when the file is read: the
    flagship (N = 47) with any other N exits 1 naming it, in process
    within 1 s."""
    text = _canonical(_set(("witness", "N"), N))(FLAGSHIP_TEXT)
    start = time.perf_counter()
    assert verify_text(tmp_path / "c.json", text) == (
        1, "", "verification failed: stored N disagrees with z and value\n")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("prime", [54, 55])
def test_cli_verify_names_composite_modulus(tmp_path, prime):
    """The reader tests the prime before it builds xi over C_p."""
    text = _canonical(_set(("prime",), prime))(FLAGSHIP_TEXT)
    assert verify_text(tmp_path / "c.json", text) == (
        1, "", "verification failed: modulus is not an odd prime\n")


def _integer_paths(doc, path=()):
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        if isinstance(doc, int) and not isinstance(doc, bool):
            yield path
        return
    for key, value in items:
        yield from _integer_paths(value, path + (key,))


FLAGSHIP_INTEGER_PATHS = list(_integer_paths(json.loads(FLAGSHIP_TEXT)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(path=st.sampled_from(FLAGSHIP_INTEGER_PATHS),
       delta=st.sampled_from([-1, 1, 53]))
def test_cli_verify_rejects_every_integer_perturbation(tmp_path_factory, path,
                                                       delta):
    text = _canonical(_bump(path, delta))(FLAGSHIP_TEXT)
    code, out, err = verify_text(
        tmp_path_factory.getbasetemp() / "perturbed.json", text)
    assert code in (1, 2) and out == ""
    assert NAMED_CHECK.match(err), err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "multisig", "transfer"])
def test_cli_rejects_non_utf8_input(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe\x00")
    argv = [command, str(path)] if command == "verify" else [
        command, "--form", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and "UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "multisig", "transfer"])
def test_cli_deeply_nested_json_is_parse_error(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    argv = [command, str(path)] if command == "verify" else [
        command, "--form", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and "nested too deeply" in err
    assert "Traceback" not in err


SKEW_FORM = {"p": 3, "k": 1, "parity": -1,
             "matrix": [["g - g^2", "1"], ["-1", "g - g^2"]],
             "refinement": ["g", "g"]}


@pytest.mark.parametrize("field, path, value", [
    ("refinement", ("refinement",), 5),
    ("refinement", ("refinement",), "g"),
    ("refinement", ("refinement", 0), True),
    ("refinement", ("refinement", 0), 1.5),
    ("refinement", ("refinement", 1), None),
    ("matrix", ("matrix", 0, 1), True),
    ("matrix", ("matrix", 0, 0), None),
    ("matrix", ("matrix", 1, 0), 1.5),
    ("matrix", ("matrix", 1), "1"),
])
def test_cli_form_rejects_non_group_ring_fields(tmp_path, capsys, field, path,
                                                value):
    doc = json.loads(json.dumps(SKEW_FORM))
    assert form_from_json(json.dumps(doc)).rank == 2
    _store(doc, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "multisig", "--form", str(bad))
    assert code == 2
    assert err.startswith("parse error: ") and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["multisig", "transfer"])
@pytest.mark.parametrize("key", ["refinment", "note"])
def test_cli_form_refuses_unknown_keys(tmp_path, capsys, command, key):
    """A level-2 skew form file whose refinement is keyed "refinment", or
    which holds an extra "note", ends in a parse error naming the key:
    neither is read as a form without a refinement or with one."""
    doc = json.loads(form_to_json(random_form(3, 2, -1, 2, 2)))
    path = tmp_path / "form.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, command, "--form", str(path))[0] == 0
    if key == "refinment":
        doc[key] = doc.pop("refinement")
    else:
        doc[key] = "written by hand"
    path.write_text(json.dumps(doc))
    assert run(capsys, command, "--form", str(path)) == (
        2, "", "parse error: unknown key %r in form\n" % key)
    with pytest.raises(ParseError, match="unknown key %r" % key):
        form_from_json(json.dumps(doc))


def test_cli_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "witness", "--xi", "e + ", "--n", "2")
    assert code == 2
    assert "offset 4" in err


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["certify", "--n", "2", "--primes", "1"],
    ["witness", "--xi", "e^2 - p2", "--n", "x"],
    ["witness", "--xi", "e^2 - p2", "--n", "2", "--bogus", "1"],
    ["witness", "--x", "e^2 - p2", "--n", "2"],
    ["witness", "--xi", "e^2 - p2", "--n"],
    ["verify"],
    ["witness", "--xi", "e^2 - p2", "--n", "2", "--m", "3"],
    ["witness", "--xi", "e^2 - p2", "--n", "\uff12"],
    ["witness", "--xi", "e^2 - p2", "--n", " +2"],
    ["witness", "--xi", "e^2 - p2", "--n=0_2"],
    ["witness", "--xi", "e^2 - p2", "--n", "2 "],
    ["certify", "--xi", "e^2 - p2", "--n", "2", "--primes", "+1"],
    ["l-table", "--max", "\u0662"],
    ["witness", "--xi", "e^2 - p2", "--n", "1" * (DIGIT_LIMIT + 1)],
], ids=["no command", "unknown command", "missing option", "n not int",
        "unknown option", "abbreviated option", "no value", "no file",
        "m override", "full-width n", "spaced plus n", "underscored n",
        "trailing space n", "plus primes", "arabic-indic max",
        "over-long n"])
def test_cli_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: charwit ") and "\ncharwit: error: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_cli_help_names_every_command(capsys, flag):
    code, out, err = run(capsys, flag)
    assert code == 0 and err == ""
    assert out.startswith("usage: charwit ")
    for command in ("l-table", "witness", "certify", "verify", "multisig",
                    "transfer"):
        assert "\n  charwit %s " % command in out
    assert "[--m M]" not in out
    assert run(capsys, "certify", "--xi", "e^2 - p2", flag) == (0, out, "")


def test_cli_option_value_may_start_with_minus(capsys):
    """The word after --xi is its value, so "--xi -p2+e^2" reads as
    "--xi=-p2+e^2" does; of repeated options the last one wins."""
    expected = (0, "z = (1, 1, 1, 1)\nvalue = -47/7\nN = 47\n", "")
    assert run(capsys, "witness", "--xi", "-p2+e^2", "--n", "2") == expected
    assert run(capsys, "witness", "--xi=-p2+e^2", "--n=2") == expected
    assert run(capsys, "witness", "--xi", "e^2", "--n", "3", "--xi",
               "-p2+e^2", "--n=2") == expected


# More digits than the formats hold (DIGIT_LIMIT).
HUGE = "1" + "0" * 5000
HUGE_FORM = '{"p": 3, "k": 1, "parity": 1, "matrix": [[%s]]}'


@pytest.mark.parametrize("argv, text", [
    (["verify", "{path}"],
     FLAGSHIP_TEXT.replace('"prime": 53,', '"prime": %s,' % HUGE)),
    (["multisig", "--form", "{path}"], HUGE_FORM % ('"%s"' % HUGE)),
    (["multisig", "--form", "{path}"], HUGE_FORM % HUGE),
    (["witness", "--xi", "%s*e^2 - p2" % HUGE, "--n", "2"], None),
    (["witness", "--xi", "e^%s - p2" % HUGE, "--n", "2"], None),
], ids=["prime", "matrix string", "matrix integer", "xi coefficient",
        "xi exponent"])
def test_cli_over_long_integer_literal_is_parse_error(tmp_path, capsys, argv,
                                                      text):
    path = tmp_path / "input.json"
    if text is not None:
        assert HUGE in text
        path.write_text(text)
    code, out, err = run(capsys, *(a.replace("{path}", str(path))
                                   for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv, entry, message, offset", [
    (["witness", "--xi", "e^2 - p\u0662", "--n", "2"], None,
     "expected an index after p", 7),
    (["witness", "--xi", "p\u00b2", "--n", "2"], None,
     "expected an index after p", 1),
    (["witness", "--xi", "e^\u00b2 - p1", "--n", "2"], None,
     "expected an exponent", 2),
    (["witness", "--xi", "\u0663*e^2 - p2", "--n", "2"], None,
     "expected a variable", 0),
    (["multisig", "--form", "{path}"], "\u0663",
     "expected a coefficient or g", 0),
    (["multisig", "--form", "{path}"], "g^\u00b2",
     "expected exponent digits", 2),
], ids=["p index", "superscript index", "exponent", "coefficient",
        "form coefficient", "form exponent"])
def test_cli_non_ascii_digit_is_parse_error(tmp_path, capsys, argv, entry,
                                            message, offset):
    """Only 0-9 are digits, in polynomials and in group-ring entries."""
    path = tmp_path / "form.json"
    if entry is not None:
        path.write_text(json.dumps({"p": 3, "k": 1, "parity": 1,
                                    "matrix": [[entry]]}))
    code, out, err = run(capsys, *(a.replace("{path}", str(path))
                                   for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and "Traceback" not in err
    assert err.endswith("%s (at offset %d)\n" % (message, offset))


def test_cli_multisig(tmp_path, capsys):
    form = tmp_path / "form.json"
    form.write_text(form_to_json(HermitianForm(3, 1, 1, [["1"]])))
    code, out, err = run(capsys, "multisig", "--form", str(form))
    assert code == 0
    assert json.loads(out) == {"p": 3, "k": 1,
                               "multiplicities": [[0, 1], [1, 1], [2, 1]]}


@pytest.mark.parametrize("parity", [1, -1])
def test_multisignature_to_json_is_the_multisig_document(parity):
    """The multisig document is json.dumps of p, k and the multiplicities,
    as the command printed it before the layout moved beside
    form_to_json."""
    for seed in range(3):
        sign = multisignature(random_form(3, 2, parity, 2, seed))
        doc = {"p": sign.p, "k": sign.k,
               "multiplicities": [list(pair) for pair in sign.serialize()]}
        assert multisignature_to_json(sign) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("command", ["multisig", "transfer"])
@pytest.mark.parametrize("p, k, matrix", [
    (3, 10 ** 30, [["1"]]), (3, 40, [["1"]]), (1000003, 1, [["1"]]),
    (2, 10 ** 30, []), (-3, 10 ** 30, []), (2, 3, []), (9, 1, [])])
def test_cli_form_past_order_limit_ends(tmp_path, capsys, command, p, k,
                                        matrix):
    """A form file whose group order |p|^k is past FORM_ORDER_LIMIT exits 1
    with the limit named, before anything computes p^k: k = 10^30 once
    hung in p ** k, and k = 40 in multisig's loop over character orders.
    An empty matrix parses no entry, so p = 2 and p = -3 meet the limit
    before any check that p is an odd prime.  Within the limit, p = 2 and
    p = 9 with an empty matrix meet HermitianForm's check of p, which
    `transfer` once passed with exit 0.  In process within 1 s."""
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"p": p, "k": k, "parity": 1,
                                "matrix": matrix}))
    if (p, k) in ((2, 3), (9, 1)):
        report = "error: group order must be a power of an odd prime\n"
    else:
        report = ("error: the group order p^k exceeds the form limit %d\n"
                  % FORM_ORDER_LIMIT)
    proc = charwit_process(command, "--form", str(path), timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", report)
    start = time.perf_counter()
    assert run(capsys, command, "--form", str(path)) == (1, "", report)
    assert time.perf_counter() - start < 1.0


def test_cli_multisig_at_the_order_limit(tmp_path, capsys):
    """125 = 5^3 is the largest order within the limit; a rank-4 form of
    that order still multisigs, and its transfer too."""
    assert FORM_ORDER_LIMIT == 5 ** 3
    form = random_form(5, 3, 1, 4, 0)
    path = tmp_path / "form.json"
    path.write_text(form_to_json(form))
    start = time.perf_counter()
    assert run(capsys, "multisig", "--form", str(path)) == (
        0, multisignature_to_json(multisignature(form)), "")
    code, out, err = run(capsys, "transfer", "--form", str(path))
    assert (code, err) == (0, "") and form_from_json(out).order == 25
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("entry", ["3*", "3* + g"])
def test_cli_multisig_dangling_star_is_parse_error(tmp_path, capsys, entry):
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"p": 3, "k": 1, "parity": 1,
                                "matrix": [[entry]]}))
    code, out, err = run(capsys, "multisig", "--form", str(form))
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and "expected g after '*'" in err
    assert "Traceback" not in err


def test_cli_multisig_singular_is_failure(tmp_path, capsys):
    form = tmp_path / "form.json"
    form.write_text(form_to_json(HermitianForm(3, 1, 1, [["1 + g + g^2"]])))
    code, out, err = run(capsys, "multisig", "--form", str(form))
    assert code == 1 and err != ""


@pytest.mark.parametrize("form, multiplicities", [
    (HermitianForm(3, 2, 1, [["1"]]), [[0, 3], [1, 3], [2, 3]]),
    (HermitianForm(3, 2, 1, [["1", "g"], ["g^8", "2"]]), None),
    (HermitianForm(3, 2, -1, [["g - g^8", "1"], ["-1", "g - g^8"]],
                   ["g", "g"]), None),
    (random_form(7, 2, 1, 6, 1), None),
    (random_form(7, 2, -1, 6, 1), None),
], ids=["unit", "level-2", "skew-refined", "p7-rank6-hermitian",
        "p7-rank6-skew"])
def test_cli_transfer_feeds_multisig(tmp_path, capsys, form, multiplicities):
    """`multisig` on a form prints its in-process multisignature, and
    `charwit transfer --form FILE | charwit multisig --form /dev/stdin`
    prints the multisignature of the transfer, which is the restriction of
    the form's: level-2 forms at p = 3, one skew with a refinement, and
    rank-6 forms at p = 7 of both parities."""
    path = tmp_path / "form.json"
    path.write_text(form_to_json(form))
    sign = multisignature(form)
    assert run(capsys, "multisig", "--form", str(path)) == (
        0, multisignature_to_json(sign), "")
    down = charwit_process("transfer", "--form", str(path))
    assert (down.returncode, down.stderr) == (0, "")
    piped = charwit_process("multisig", "--form", "/dev/stdin",
                            input=down.stdout)
    moved = multisignature(transfer(form))
    assert (piped.returncode, piped.stdout, piped.stderr) == (
        0, multisignature_to_json(moved), "")
    assert moved == restrict(sign)
    if multiplicities is not None:
        assert json.loads(piped.stdout)["multiplicities"] == multiplicities


def test_cli_unknown_polynomial_variable(capsys):
    code, out, err = run(capsys, "witness", "--xi", "q1 + e", "--n", "2")
    assert code == 2


def charwit_process(*argv, timeout=20, input=None):
    """`python -m charwit argv` in a fresh process, reading input as its
    stdin, which must end within timeout seconds
    (subprocess.TimeoutExpired fails the test)."""
    src = os.path.dirname(os.path.dirname(charwit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "charwit", *argv], env=env,
                          input=input, capture_output=True, text=True,
                          timeout=timeout)


@pytest.mark.parametrize("buffered", [False, True],
                         ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["--help"], ["witness", "--xi", "e^2 - p2",
                                               "--n", "2"]],
                         ids=["help", "witness"])
def test_cli_closed_stdout_is_io_error(argv, buffered):
    """As in `charwit --help | head -1`, stdout is a pipe whose reader has
    gone: the write fails, and charwit ends with its i/o error and exit 2,
    whether stdout is written at once or at exit, with no traceback."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
        charwit.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "charwit", *argv],
                              env=env, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=20)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stderr) == (
        2, "i/o error: [Errno 32] Broken pipe\n")


# 10000000000037 * 1000000000039: above the range where is_prime is exact,
# with no factor below 2^16, so its largest prime factor is not computed.
UNFACTORED = "10000000000427000000001443/1"


def test_cli_verify_unfactorable_witness_ends(tmp_path):
    """The value, unlike z (which the grid rule holds to small integers
    before N is derived), still reaches the factoring: an unfactorable
    part there ends verify with exit 1, named, within 1 s."""
    doc = json.loads(FLAGSHIP_TEXT)
    doc["witness"]["value"] = UNFACTORED
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    proc = charwit_process("verify", str(path), timeout=10)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("verification failed: cannot factor "
                                  "10000000000427000000001443: ")
    assert "Traceback" not in proc.stderr
    start = time.perf_counter()
    assert verify_text(path, path.read_text()) == (1, "", proc.stderr)
    assert time.perf_counter() - start < 1.0


def semiprimes(count):
    """count products of two consecutive primes above 2^40: 81-bit numbers
    below the bound where is_prime is exact, each of which Pollard-Brent
    rho takes about half a second to split."""
    primes = odd_primes_above(1 << 40)
    return [next(primes) * next(primes) for _ in range(count)]


@pytest.mark.parametrize("count, report", [
    (4, "witness has a coordinate outside the search grid"),
    (40, "witness has the wrong number of coordinates")])
def test_cli_verify_applies_the_grid_rule_before_factoring(tmp_path, count,
                                                           report):
    """The flagship document with z replaced by count 81-bit semiprimes.
    When WitnessPoint factored every entry for the bound N before the grid
    rule ran, the reader took 2.2 s and 27 s (a shared 2-core x86-64 box);
    it now applies the grid rule first: exit 1, named, within 1 s through
    certificate_from_json and through verify."""
    doc = json.loads(FLAGSHIP_TEXT)
    doc["witness"]["z"] = ["%d" % s for s in semiprimes(count)]
    path = tmp_path / "semiprimes.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    start = time.perf_counter()
    with pytest.raises(InvariantViolation) as err:
        certificate_from_json(path.read_text())
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == report
    start = time.perf_counter()
    assert verify_text(path, path.read_text()) == (
        1, "", "verification failed: %s\n" % report)
    assert time.perf_counter() - start < 1.0
    proc = charwit_process("verify", str(path), timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "verification failed: %s\n" % report)


@pytest.mark.parametrize("xi, n", [("e^2 - p8", 8), ("p1^8 - p8", 2),
                                   ("p1^10 - p10", 4)])
def test_cli_witness_unfactorable_value_ends(xi, n):
    """The first grid point's value has a 30- to 61-digit part above the
    certified primality range, so there is no bound N: exit 1, named."""
    proc = charwit_process("witness", "--xi", xi, "--n", str(n), timeout=10)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: cannot factor ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("field", ["z", "value"])
def test_cli_verify_exponent_rational_is_parse_error(tmp_path, field):
    """Certificate rationals are [-]digits[/digits]: "1e10000000" is a parse
    error at once, not ten million digits to build and factor."""
    doc = json.loads(FLAGSHIP_TEXT)
    if field == "z":
        doc["witness"]["z"][0] = "1e10000000"
    else:
        doc["witness"]["value"] = "1e10000000"
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    proc = charwit_process("verify", str(path), timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("parse error: bad rational literal: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("text", ["2/2", "3"])
def test_cli_verify_non_canonical_rational_fails_verification(tmp_path, text):
    doc = json.loads(FLAGSHIP_TEXT)
    doc["witness"]["z"][0] = text
    path = tmp_path / "noncanonical.json"
    assert verify_text(path, json.dumps(doc, indent=2) + "\n") == (
        1, "", "verification failed: not the canonical certificate text\n")


OVERLONG = "error: the witness has a number of more than "


def test_cli_witness_overlong_value_is_named_error():
    """Xi(z) = 3^30000 has more digits than str() converts: exit 1 with a
    named error and nothing on stdout, not z and then a traceback."""
    proc = charwit_process("witness", "--xi", "p1^30000", "--n", "2",
                           timeout=20)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith(OVERLONG)
    assert "Traceback" not in proc.stderr


def test_cli_certify_overlong_value_leaves_no_file(tmp_path):
    proc = charwit_process("certify", "--xi", "p1^30000", "--n", "2",
                           "--primes", "1", "--out", str(tmp_path / "cw"),
                           timeout=20)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith(OVERLONG)
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["witness", "certify"])
def test_cli_overlong_power_is_refused_before_factoring(tmp_path, command):
    """Xi(z) = 3^1000000 is refused as too long for verify before it is
    factored, not trial-divided by 3 a million times."""
    argv = ["--xi", "p1^1000000", "--n", "2"]
    if command == "certify":
        argv += ["--primes", "1", "--out", str(tmp_path / "cw")]
    start = time.perf_counter()
    proc = charwit_process(command, *argv, timeout=10)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith(OVERLONG)
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


BUDGET = ("Xi at z has terms of more than %d bits in all, the evaluation "
          "budget\n" % detect.EVAL_BITS)
# two terms of 4194303 and 2188332 bits at z = (1, 1, 1, 1, 1): each within
# the budget, their sum past it
TWO_TERMS = "p3^182361 - p2^182361*p1^182361"


def test_cli_verify_huge_power_ends_by_the_budget(tmp_path):
    """The 469-byte document for Xi = p1^100000000 at z = (1, 1, 1) and
    p = 7, every field derived, the value the evaluation 4: verify once
    evaluated 3^(10^8) over Q for more than a minute at its last check.
    The evaluation budget refuses that power before it is taken: exit 1,
    the budget named, within 1 s.  The same holds for a Xi whose terms
    pass the budget one by one but not in all (an 855-byte document at
    p = 11), which took seconds."""
    for xi, p, value, size in [("p1^100000000", 7, 4, 469),
                               (TWO_TERMS, 11, 3, 855)]:
        problem = DetectionProblem(parse_polynomial(xi, 2), 2)
        z = [Fraction(1)] * (2 + problem.m)
        assert _derive(problem, WitnessPoint(z, 1, problem.m),
                       p).evaluation == value
        text = certificate_to_json(
            _derive(problem, WitnessPoint(z, value, problem.m), p))
        assert len(text) == size
        start = time.perf_counter()
        assert verify_text(tmp_path / "power.json", text) == (
            1, "", "verification failed: invalid certificate data: " + BUDGET)
        assert time.perf_counter() - start < 1.0


def test_cli_witness_huge_power_ends_by_the_budget(capsys):
    """Xi(z) = 3^(10^7) took seconds to evaluate before its digits were
    refused, and TWO_TERMS took 5 s; the budget refuses both before
    anything is evaluated: exit 1 within 1 s each."""
    for xi in ["p1^10000000", TWO_TERMS]:
        start = time.perf_counter()
        assert run(capsys, "witness", "--xi", xi, "--n", "2") == (
            1, "", "error: " + BUDGET)
        assert time.perf_counter() - start < 1.0


def test_cli_certify_overlong_xi_coefficient_leaves_no_file(tmp_path, capsys):
    """Xi = 3*10^4300 e - 10^4300 p1 + e is 1 at z = (1, 1, 1), so the
    witness is small, but Xi itself has a coefficient too long to write."""
    half = "5" + "0" * (DIGIT_LIMIT - 1)
    xi = " + ".join(["%s*e" % half] * 6 + ["e"]) + " - %s*p1" % half * 2
    assert run(capsys, "witness", "--xi", xi, "--n", "2") == (
        0, "z = (1, 1, 1)\nvalue = 1\nN = 3\n", "")
    code, out, err = run(capsys, "certify", "--xi", xi, "--n", "2",
                         "--primes", "1", "--out", str(tmp_path / "cw"))
    assert code == 1 and out == ""
    assert err.startswith("error: the certificate has a number of more than ")
    assert list(tmp_path.iterdir()) == []


def test_no_module_reads_or_sets_the_interpreter_digit_limit():
    """The formats' digit limit is scalars.DIGIT_LIMIT, fixed in one place:
    no charwit module asks the interpreter for its int-string limit or
    changes it."""
    package = os.path.dirname(charwit.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                text = f.read()
            assert "get_int_max_str_digits" not in text, name
            assert "set_int_max_str_digits" not in text, name


def _outcomes(setting, tmp_path, runs):
    """(argv, exit code, stdout, stderr) of each charwit run in a fresh
    directory, PYTHONINTMAXSTRDIGITS set to setting (None: unset), then
    every file the runs left there."""
    cwd = tmp_path / ("default" if setting is None else setting)
    cwd.mkdir()
    for name, text in runs["inputs"].items():
        (cwd / name).write_text(text)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(charwit.__file__)))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    if setting is not None:
        env["PYTHONINTMAXSTRDIGITS"] = setting
    out = []
    for argv in runs["commands"]:
        proc = subprocess.run([sys.executable, "-m", "charwit", *argv],
                              cwd=cwd, env=env, capture_output=True,
                              timeout=20)
        out.append((argv, proc.returncode, proc.stdout, proc.stderr))
    files = {path.name: path.read_bytes() for path in cwd.iterdir()}
    return out, files


def test_cli_bytes_do_not_depend_on_the_interpreter_digit_limit(tmp_path):
    """Under PYTHONINTMAXSTRDIGITS unset, 0 and 640, every command gives the
    same exit code, stdout, stderr and written files: numbers up to
    DIGIT_LIMIT digits are read and written, longer ones refused, the
    same way under each.  A transfer whose entry sums to more than
    DIGIT_LIMIT digits is a named error, not a traceback."""
    longest = "1" + "0" * (DIGIT_LIMIT - 1)
    xi_longest = "3%s*e - %s*p1 + e" % (longest[1:], longest)
    xi_longer = "%s0*e^2 - p2" % longest
    doc = json.loads(FLAGSHIP_TEXT)
    doc["witness"]["z"][0] = longest + "/1"
    form = HermitianForm(3, 2, 1, [["%s + g + g^8" % ("7" * 1000), "g^4"],
                                   ["g^5", "-%s + 3" % ("9" * 999)]])
    runs = {
        "inputs": {
            "z.json": json.dumps(doc, indent=2) + "\n",
            "form.json": form_to_json(form),
            "transferred.json": form_to_json(transfer(form)),
            "sum.json": json.dumps({"p": 3, "k": 2, "parity": 1, "matrix": [
                ["9" * DIGIT_LIMIT + " + " + "9" * DIGIT_LIMIT]]}),
        },
        "commands": [
            ["certify", "--xi", "e^2 - p2", "--n", "2", "--primes", "2",
             "--out", "flag"],
            ["verify", "flag_p53.json"],
            ["verify", "flag_p59.json"],
            ["witness", "--xi", xi_longest, "--n", "2"],
            ["certify", "--xi", xi_longest, "--n", "2", "--primes", "1",
             "--out", "longest"],
            ["verify", "longest_p5.json"],
            ["witness", "--xi", xi_longer, "--n", "2"],
            ["certify", "--xi", xi_longer, "--n", "2", "--primes", "1",
             "--out", "longer"],
            ["witness", "--xi", "p1^100000", "--n", "2"],
            ["verify", "z.json"],
            ["transfer", "--form", "form.json"],
            ["multisig", "--form", "form.json"],
            ["multisig", "--form", "transferred.json"],
            ["witness", "--xi", "p" + "9" * 700, "--n", "2"],
            ["witness", "--xi", "e", "--n", longest],
            ["witness", "--xi", "e^2 - p2", "--n", "1" * 5001],
            ["transfer", "--form", "sum.json"],
        ],
    }
    default, files = _outcomes(None, tmp_path, runs)
    codes = [code for _, code, _, _ in default]
    assert codes == [0, 0, 0, 0, 0, 0, 2, 2, 1, 1, 0, 0, 0, 1, 1, 2, 1]
    assert default[1][2] == default[2][2] == default[5][2] == b"ok\n"
    assert default[3][2] == b"z = (1, 1, 1)\nvalue = 1\nN = 3\n"
    assert b'"xi": "3%s1*e - %s*p1"' % (longest[1:-1].encode(),
                                        longest.encode()) in files[
        "longest_p5.json"]
    assert default[6][3] == default[7][3] == (
        b"parse error: integer literal of %d digits is too long "
        b"(at offset 0)\n" % (DIGIT_LIMIT + 1))
    assert default[8][3].startswith(OVERLONG.encode())
    assert default[9][3] == (b"verification failed: witness has a "
                             b"coordinate outside the search grid\n")
    assert default[10][2] == runs["inputs"]["transferred.json"].encode()
    assert default[13][3] == default[14][3] == (
        b"error: m exceeds the L-class index limit %d\n" % M_LIMIT)
    assert default[16][3] == (b"error: a number of more than %d digits, "
                              b"the format's limit\n" % DIGIT_LIMIT)
    for setting in ("0", "640"):
        assert _outcomes(setting, tmp_path, runs) == (default, files)


def test_cli_certify_past_work_limit_leaves_no_file(tmp_path):
    """e^2 - p5 at n = 5 has N = 222401819 and three free coordinates, so
    the solve would fill a list of more than 2 * 10^8 targets: certify
    refuses the first prime above N by the work limit."""
    proc = charwit_process("certify", "--xi", "e^2 - p5", "--n", "5",
                           "--primes", "1", "--out", str(tmp_path / "cw"),
                           timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: p * (m - k + 1) exceeds the work limit %d\n"
        % WORK_LIMIT)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n", [400, 10 ** 400 + 1], ids=["400", "401-digit"])
def test_cli_past_the_m_limit_ends(tmp_path, capsys, n):
    """Xi = e at n = 400 has m = 200, where certify ran 75 s; at a 401-digit
    n, ceil(n / 2) in floats raised OverflowError.  witness, certify and
    verify exit 1 naming the m limit before any L-table is built, within
    1 s in process, and certify leaves no file."""
    report = "m exceeds the L-class index limit %d\n" % M_LIMIT
    doc = json.loads(FLAGSHIP_TEXT)
    k = (n + 1) // 2
    doc["problem"].update(xi="e", n=n, m=k, k=k, degree_2r=2 * n)
    path = tmp_path / "doc.json"
    start = time.perf_counter()
    assert run(capsys, "witness", "--xi", "e", "--n", str(n)) == (
        1, "", "error: " + report)
    assert run(capsys, "certify", "--xi", "e", "--n", str(n), "--primes",
               "1", "--out", str(tmp_path / "cw")) == (1, "", "error: " + report)
    assert verify_text(path, json.dumps(doc, indent=2) + "\n") == (
        1, "", "verification failed: " + report)
    assert time.perf_counter() - start < 1.0
    assert list(tmp_path.iterdir()) == [path]
    proc = charwit_process("witness", "--xi", "e", "--n", str(n), timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: " + report)


def doctored(xi, n, m, degree_2r, prime):
    """The flagship certificate with another Xi, n, m, degree 2r and prime,
    z padded with ones to the coordinate count they need, and the N they
    derive: max(2m + 1, 47), 47 dividing the value."""
    doc = json.loads(FLAGSHIP_TEXT)
    k = (n + 1) // 2
    doc["problem"].update(xi=xi, n=n, m=m, k=k, degree_2r=degree_2r)
    doc["witness"]["z"] = ["1/1"] * (n + m - k + 1)
    doc["witness"]["N"] = max(2 * m + 1, 47)
    doc["prime"] = prime
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("xi, n, m, degree_2r, prime, report", [
    ("p8^8", 2, 8, 256, 53, "targets do not reduce the witness coordinates"),
    ("e", 60, 30, 120, 67, "residues do not reduce the witness coordinates"),
], ids=["p8^8", "n=60"])
def test_cli_verify_high_weight_ends(tmp_path, xi, n, m, degree_2r, prime,
                                     report):
    """Xi is evaluated at p_i = P_i(x) and ell_i through its series, so
    neither a high power of p8 nor 60 roots expand a polynomial: exit 1
    with the failing check named, in well under a second of work.  The
    degree 2r and N are consistent and p > N, so both run the whole
    derivation, ell_1..ell_30 of the 60 roots among it."""
    path = tmp_path / "doctored.json"
    path.write_text(doctored(xi, n, m, degree_2r, prime))
    proc = charwit_process("verify", str(path), timeout=10)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "verification failed: %s\n" % report
    start = time.perf_counter()
    assert verify_text(path, path.read_text()) == (1, "", proc.stderr)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("key, report", [
    ("k", "stored k disagrees with n"),
    ("degree_2r", "degree bookkeeping is inconsistent"),
    ("m", "stored m disagrees with Xi and n"),
])
@pytest.mark.parametrize("delta", [-1, 1])
def test_cli_verify_names_stored_problem_field(tmp_path, key, report, delta):
    """k, degree_2r and m are derived from Xi and n: the flagship with one
    of them off by one, z padded or cut to the count the stored k and m
    ask for, exits 1 naming that field, before any witness is built."""
    doc = json.loads(FLAGSHIP_TEXT)
    head = doc["problem"]
    head[key] += delta
    doc["witness"]["z"] = ["1/1"] * (head["n"] + head["m"] - head["k"] + 1)
    start = time.perf_counter()
    assert verify_text(tmp_path / "doctored.json",
                       json.dumps(doc, indent=2) + "\n") == (
        1, "", "verification failed: %s\n" % report)
    assert time.perf_counter() - start < 1.0


def test_cli_verify_inconsistent_degree_fails_fast(tmp_path):
    """The flagship certificate with Xi = p1^10000000 still claims degree
    2r = 8: the degree check runs before the derivation, so verify does not
    raise 3 x_1 to the ten millionth power before it exits 1."""
    doc = json.loads(FLAGSHIP_TEXT)
    doc["problem"]["xi"] = "p1^10000000"
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    proc = charwit_process("verify", str(path), timeout=10)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (
        "verification failed: degree bookkeeping is inconsistent\n")
    start = time.perf_counter()
    assert verify_text(path, path.read_text()) == (1, "", proc.stderr)
    assert time.perf_counter() - start < 1.0


def test_cli_verify_large_exponent_ends(tmp_path):
    """The flagship certificate with Xi = e^64000000, its matching degree
    2r and m = 1 (z, the targets and the L-pullbacks without their i = 2
    entries), z_1 = 3 and residue 3 reaches the derivation, which
    evaluates Xi mod p by pow(3, 64000000, 53): exit 1 at the xi check
    within 10 s, where evaluating 3^64000000 over Q ran past a minute."""
    doc = json.loads(FLAGSHIP_TEXT)
    doc["problem"].update(xi="e^64000000", m=1, degree_2r=4 * 64000000)
    doc["witness"]["z"] = ["3/1", "1/1", "1/1"]
    doc["residues"][0] = 3
    del doc["targets"][1], doc["pullbacks"]["L"][1]
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    proc = charwit_process("verify", str(path), timeout=10)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ("verification failed: xi differs from the "
                           "symmetrized Chern-target solution\n")
    start = time.perf_counter()
    assert verify_text(path, path.read_text()) == (1, "", proc.stderr)
    assert time.perf_counter() - start < 1.0


def test_cli_verify_large_prime_ends(tmp_path):
    """An e^2 - p2 certificate at p = 1000003 whose other fields are
    placeholders.  p * (m - k + 1) = 2000006 is past the work limit, which
    verify names before it derives anything; solving for all p
    multiplicities took about 4 s.  Exit 1, in process within 1 s."""
    p = 1000003
    problem = DetectionProblem(parse_polynomial("e^2 - p2", 2), 2)
    text = certificate_to_json(WitnessCertificate(
        problem, find_rational_witness(problem), p, (0, 0), (0,),
        VirtualRep(p, 1, {}), 0, {1: 0, 2: 0}, 0))
    start = time.perf_counter()
    assert verify_text(tmp_path / "large_prime.json", text) == (
        1, "", "verification failed: p * (m - k + 1) exceeds the work "
        "limit %d\n" % WORK_LIMIT)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("xi, p", [("p40", 2477), ("p10", 29)])
def test_cli_verify_off_grid_witness_ends(tmp_path, xi, p):
    """Every z entry 2^14000 (4215 digits, prime support 2), the value the
    evaluation derived from that z, every other field derived too: verify
    evaluated Xi(z) over Q for 8.6 s at p40 before it failed.  No entry
    certify can write lies off the search grid, so the reader names the
    grid rule before any evaluation over Q: exit 1, in process within 1 s."""
    problem = DetectionProblem(parse_polynomial(xi, 2), 2)
    z = [Fraction(2 ** 14000)] * (2 + problem.m)
    value = _derive(problem, WitnessPoint(z, 1, problem.m), p).evaluation
    text = certificate_to_json(
        _derive(problem, WitnessPoint(z, value, problem.m), p))
    start = time.perf_counter()
    assert verify_text(tmp_path / "off_grid.json", text) == (
        1, "", "verification failed: witness has a coordinate outside the "
        "search grid\n")
    assert time.perf_counter() - start < 1.0


def denominator_document(exponent):
    """A p = 7 certificate for Xi = 1/7*e^exponent at z = (1, 3, 1),
    value 1 and N = 3, its stored fields placeholders.  7 divides the
    denominator of Xi's coefficient, so 7 is not admitted."""
    p = 7
    problem = DetectionProblem(parse_polynomial("1/7*e^%d" % exponent, 2), 2)
    witness = WitnessPoint((Fraction(1), Fraction(3), Fraction(1)),
                           Fraction(1), problem.m)
    return certificate_to_json(WitnessCertificate(
        problem, witness, p, (1, 3), (1,), VirtualRep(p, 1, {}), 3,
        {1: 0}, 1))


@pytest.mark.parametrize("exponent", [10000, 64000000])
def test_cli_verify_p_in_a_denominator_of_xi_ends(tmp_path, exponent):
    """Admission names the denominator before any derivation, so verify
    never evaluates 3^exponent/7 over Q, whose 4772 digits at exponent
    10000 once ended verify in a ValueError traceback: exit 1, in process
    within 1 s."""
    path = tmp_path / "denominator.json"
    path.write_text(denominator_document(exponent))
    report = ("verification failed: modulus divides a denominator of a "
              "coefficient of Xi\n")
    proc = charwit_process("verify", str(path), timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", report)
    start = time.perf_counter()
    assert verify_text(path, path.read_text()) == (1, "", report)
    assert time.perf_counter() - start < 1.0


def test_cli_witness_high_power_ends():
    proc = charwit_process("witness", "--xi", "p8^6", "--n", "2", timeout=5)
    assert proc.returncode in (0, 1)
    assert proc.returncode == 0 or proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


# The form-only modules, and the standard-library modules that only reading
# JSON or forms should load.  WATCHED_LOADED prints, as the last line of
# stderr, which of them are loaded.
WATCHED = ("argparse", "charwit.cyclotomic", "charwit.lforms", "gettext",
           "json", "locale")
WATCHED_LOADED = "print(*sorted(set(%r) & set(sys.modules)), file=sys.stderr)" \
    % (WATCHED,)

# `python -m charwit ARGS`, run in this process by runpy
RUN_MAIN = "\n".join([
    "import runpy, sys",
    "sys.argv[0] = 'charwit'",
    "try:",
    "    runpy.run_module('charwit', run_name='__main__')",
    "except SystemExit as exc:",
    "    assert exc.code == 0, exc.code",
    WATCHED_LOADED,
])


def test_certificate_commands_do_not_load_lforms(tmp_path):
    """The CLI loads the forms module and the cyclotomic field only for the
    form commands, and json only to read JSON or print forms; no command
    loads argparse, gettext or locale beyond what a bare interpreter loads.
    The package still serves every name, through `from charwit import *`
    too, and scalars serves the two cyclotomic classes the benchmark
    imports from it."""
    code = "\n".join([
        "import sys, charwit, charwit.cli",
        "assert 'charwit.lforms' not in sys.modules",
        "assert 'charwit.cyclotomic' not in sys.modules",
        "assert charwit.multisignature.__module__ == 'charwit.lforms'",
        "names = {}",
        "exec('from charwit import *', names)",
        "assert set(charwit.__all__) <= set(names)",
        "assert names['transfer'] is charwit.lforms.transfer",
        "import charwit.scalars as scalars, charwit.cyclotomic as cyclotomic",
        "assert scalars.CyclotomicNumber is cyclotomic.CyclotomicNumber",
        "assert scalars.CyclotomicReal is cyclotomic.CyclotomicReal",
        "for module, name in ((charwit, 'no_such_name'),",
        "                     (scalars, '_cos_table')):",
        "    try:",
        "        getattr(module, name)",
        "    except AttributeError:",
        "        pass",
        "    else:",
        "        raise AssertionError('unknown name resolved: ' + name)",
    ])
    src = os.path.dirname(os.path.dirname(charwit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    form = tmp_path / "form.json"
    form.write_text('{"p": 3, "k": 2, "parity": 1, '
                    '"matrix": [["1", "g"], ["g^8", "2"]]}')

    def loaded(code, *argv):
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, timeout=20)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stderr.splitlines()[-1].split())

    bare = loaded("import sys\n" + WATCHED_LOADED)
    certify = ("certify", "--xi", "e^2 - p2", "--n", "2", "--primes", "1",
               "--out", str(tmp_path / "cw"))
    for argv, expected in [
            (certify, set()),
            (("witness", "--xi", "e^2 - p2", "--n", "2"), set()),
            (("verify", str(tmp_path / "cw_p53.json")), {"json"}),
            (("l-table", "--max", "2"), set()),
            (("multisig", "--form", str(form)),
             {"charwit.cyclotomic", "charwit.lforms", "json"})]:
        assert loaded(RUN_MAIN, *argv) - bare == expected, argv[0]
