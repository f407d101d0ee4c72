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

import pytest
from hypothesis import given, settings, strategies as st

import charwit
from charwit.cli import (certificate_from_json, certificate_to_json,
                         form_from_json, form_to_json, main, parse_polynomial)
from charwit.cyclic_coh import euler_class, l_class_linear
from charwit.detect import DetectionProblem, build_certificate, find_rational_witness
from charwit.detect import _derive, _reduce
from charwit.errors import ParseError
from charwit.repring import VirtualRep
from charwit.lforms import (HermitianForm, format_group_ring, hyperbolic,
                            parse_group_ring)
from charwit.symfun import GradedPolynomial


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

    code, out, err = run(capsys, "verify", str(path53))
    assert code == 0 and out.strip() == "ok"

    # byte-identical on a second run
    before = path53.read_bytes()
    run(capsys, "certify", "--xi", "e^2 - p2", "--n", "2",
        "--primes", "2", "--out", prefix)
    assert path53.read_bytes() == before


def test_cli_certify_where_xi_cancels_a_denominator_of_p2(tmp_path, capsys):
    """P_2 = (45 x_2 + x_1^2)/7, so at p = 7 a P_2 value is not 7-integral,
    but Xi = 46 e^2 - 7 p2 + p1^2 cancels the 7: the L-form at z = (1, 1, 1,
    1) is 1, N = 5, and p = 7 is certified.  The hash is of the
    certificate written before Xi was evaluated mod p term by term."""
    prefix = str(tmp_path / "cert")
    code, out, err = run(capsys, "certify", "--xi", "46*e^2 - 7*p2 + p1^2",
                         "--n", "2", "--primes", "1", "--out", prefix)
    assert (code, out, err) == (0, "p=7 eval=1 OK\n", "")
    path = tmp_path / "cert_p7.json"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "cf9e763023ed1fed628e3475fb307fdaff0e47928e54d075eaa8e4f34e7aa64c")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out.strip()) == (0, "ok")


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
    "N+1": (_canonical(_bump(("witness", "N"), 1)),
            "witness bound N differs from its derivation"),
    "value 324/7": (_canonical(_set(("witness", "value"), "324/7")),
                    "witness value differs from Xi(z)"),
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
    mutate, report = STRICT_CASES[case]
    text = mutate(FLAGSHIP_TEXT)
    assert text != FLAGSHIP_TEXT
    code, out, err = verify_text(tmp_path / "c.json", text)
    assert code == 1 and out == ""
    assert err == "verification failed: %s\n" % report


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


def test_cli_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "witness", "--xi", "e + ", "--n", "2")
    assert code == 2
    assert "offset 4" in err


# More digits than Python converts to int (sys.get_int_max_str_digits()).
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


def test_cli_transfer_feeds_multisig(tmp_path, capsys):
    form = tmp_path / "form.json"
    form.write_text(form_to_json(HermitianForm(3, 2, 1, [["1"]])))
    code, out, err = run(capsys, "transfer", "--form", str(form))
    assert code == 0
    down = tmp_path / "down.json"
    down.write_text(out)
    code, out, err = run(capsys, "multisig", "--form", str(down))
    assert code == 0
    assert json.loads(out)["multiplicities"] == [[0, 3], [1, 3], [2, 3]]


def test_cli_unknown_polynomial_variable(capsys):
    code, out, err = run(capsys, "witness", "--xi", "q1 + e", "--n", "2")
    assert code == 2


def charwit_process(*argv, timeout=20):
    """`python -m charwit argv` in a fresh process, which must end within
    timeout seconds (subprocess.TimeoutExpired fails the test)."""
    src = os.path.dirname(os.path.dirname(charwit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "charwit", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


# 10000000000037 * 1000000000039: above the range where is_prime is exact,
# with no factor below 2^16, so its largest prime factor is not computed.
UNFACTORED = "10000000000427000000001443/1"


def test_cli_verify_unfactorable_witness_ends(tmp_path):
    doc = json.loads(FLAGSHIP_TEXT)
    doc["witness"]["z"][0] = UNFACTORED
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


def test_cli_certify_overlong_xi_coefficient_leaves_no_file(tmp_path, capsys):
    """Xi = 3*10^4300 e - 10^4300 p1 + e is 1 at z = (1, 1, 1), so the
    witness is small, but Xi itself has a coefficient too long to write."""
    half = "5" + "0" * (sys.get_int_max_str_digits() - 1)
    xi = " + ".join(["%s*e" % half] * 6 + ["e"]) + " - %s*p1" % half * 2
    assert run(capsys, "witness", "--xi", xi, "--n", "2") == (
        0, "z = (1, 1, 1)\nvalue = 1\nN = 3\n", "")
    code, out, err = run(capsys, "certify", "--xi", xi, "--n", "2",
                         "--primes", "1", "--out", str(tmp_path / "cw"))
    assert code == 1 and out == ""
    assert err.startswith("error: the certificate has a number of more than ")
    assert list(tmp_path.iterdir()) == []


def doctored(xi, n, m, degree_2r):
    """The flagship certificate with another Xi, n, m and degree 2r, and z
    padded with ones to the coordinate count they need."""
    doc = json.loads(FLAGSHIP_TEXT)
    k = (n + 1) // 2
    doc["problem"].update(xi=xi, n=n, m=m, k=k, degree_2r=degree_2r)
    doc["witness"]["z"] = ["1/1"] * (n + m - k + 1)
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("xi, n, m, degree_2r, report", [
    ("p8^8", 2, 8, 256, "targets do not reduce the witness coordinates"),
    ("e", 60, 30, 120, "invalid certificate data: ell_26 has denominators "
     "divisible by primes up to 53; p = 53 is too small to reduce"),
], ids=["p8^8", "n=60"])
def test_cli_verify_high_weight_ends(tmp_path, xi, n, m, degree_2r, report):
    """Xi is evaluated at p_i = P_i(x) and ell_i through its series, so
    neither a high power of p8 nor 60 roots expand a polynomial: exit 1
    with the failing check named, in well under a second of work.  The
    degree 2r is consistent, so both reach the derivation."""
    path = tmp_path / "doctored.json"
    path.write_text(doctored(xi, n, m, degree_2r))
    proc = charwit_process("verify", str(path), timeout=10)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "verification failed: %s\n" % report
    start = time.perf_counter()
    assert verify_text(path, path.read_text()) == (1, "", proc.stderr)
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
    2r, z_1 = 3 and residue 3 reaches the derivation, which evaluates Xi
    mod p by pow(3, 64000000, 53): exit 1 at the Euler check within 10 s,
    where evaluating 3^64000000 over Q ran past a minute."""
    doc = json.loads(FLAGSHIP_TEXT)
    doc["problem"].update(xi="e^64000000", degree_2r=4 * 64000000)
    doc["witness"]["z"][0] = "3/1"
    doc["residues"][0] = 3
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    proc = charwit_process("verify", str(path), timeout=10)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "verification failed: euler pullback mismatch\n"
    start = time.perf_counter()
    assert verify_text(path, path.read_text()) == (1, "", proc.stderr)
    assert time.perf_counter() - start < 1.0


def test_cli_verify_large_prime_ends(tmp_path):
    """The e^2 - p2 certificate at p = 1000003 with
    xi = a chi^0 + b (chi^1 + chi^-1) and every other field derived from
    it, 609 bytes.  b is the Chern target at j = 2 and a = target_0 - 2b,
    so xi has the targeted ch_0 and ch_2 and every pullback matches, but
    it is not the symmetrized solution over all of F_p, which is dense.
    The last check solves for all p multiplicities and symmetrizes them:
    exit 1 naming it within 10 s."""
    p = 1000003
    problem = DetectionProblem(parse_polynomial("e^2 - p2", 2), 2)
    witness = find_rational_witness(problem)
    rho, xbars = _reduce(problem, witness, p)
    target = {}
    for i, xbar in enumerate(xbars, problem.k):
        j = 2 * i - problem.n
        target[j] = ((l_class_linear(rho, i) - xbar)
                     * pow(euler_class(rho) * 2 ** (2 + j), -1, p) % p)
    b = target[2]
    a = (target[0] - 2 * b) % p
    xi = VirtualRep(p, 1, {0: a, 1: b, -1: b})
    text = certificate_to_json(_derive(problem, witness, p, xi))
    assert len(text.encode()) == 609
    path = tmp_path / "large_prime.json"
    path.write_text(text)
    proc = charwit_process("verify", str(path), timeout=10)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ("verification failed: xi differs from the "
                           "symmetrized Chern-target solution\n")


def test_cli_witness_high_power_ends():
    proc = charwit_process("witness", "--xi", "p8^6", "--n", "2", timeout=5)
    assert proc.returncode in (0, 1)
    assert proc.returncode == 0 or proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_certificate_commands_do_not_load_lforms():
    """The CLI loads the forms module only for the form commands; the
    package still serves its names, through `from charwit import *` too."""
    code = "\n".join([
        "import sys, charwit, charwit.cli",
        "assert 'charwit.lforms' not in sys.modules",
        "assert charwit.multisignature.__module__ == 'charwit.lforms'",
        "names = {}",
        "exec('from charwit import *', names)",
        "assert set(charwit.__all__) <= set(names)",
        "assert names['transfer'] is charwit.lforms.transfer",
        "try:",
        "    charwit.no_such_name",
        "except AttributeError:",
        "    pass",
        "else:",
        "    raise AssertionError('unknown name resolved')",
    ])
    src = os.path.dirname(os.path.dirname(charwit.__file__))
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
