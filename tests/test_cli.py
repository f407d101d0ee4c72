import json

import pytest

from charwit.cli import (certificate_from_json, certificate_to_json,
                         form_from_json, form_to_json, main, parse_polynomial)
from charwit.detect import DetectionProblem, build_certificate, find_rational_witness
from charwit.errors import ParseError
from charwit.lforms import HermitianForm, hyperbolic
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


def test_cli_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "witness", "--xi", "e + ", "--n", "2")
    assert code == 2
    assert "offset 4" in err


def test_cli_multisig(tmp_path, capsys):
    form = tmp_path / "form.json"
    form.write_text(form_to_json(HermitianForm(3, 1, 1, [["1"]])))
    code, out, err = run(capsys, "multisig", "--form", str(form))
    assert code == 0
    assert json.loads(out) == {"p": 3, "k": 1,
                               "multiplicities": [[0, 1], [1, 1], [2, 1]]}


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
