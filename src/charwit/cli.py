"""Command-line front end: polynomial parsing, certificate files, form files.

Certificates are JSON documents with a fixed key order and integer entries
only (mod-p values as residues in [0, p), rationals as "num/den" strings),
so identical invocations produce byte-identical files, and verify accepts
exactly those bytes.  Exit codes: 0 on
success, 1 when a certificate fails verification, 2 on I/O or parse
errors.  All diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .detect import (DetectionProblem, WitnessCertificate, WitnessPoint,
                     build_certificate, find_rational_witness,
                     verify_certificate)
from .errors import CharwitError, InvariantViolation, ParseError
from .repring import VirtualRep
from .scalars import (_read_digits, _read_rational, _read_sum, _skip_space,
                      odd_primes_above, rational_from_string,
                      rational_to_string)
from .symfun import GradedPolynomial, l_table


CERTIFICATE_VERSION = 1


# ---------------------------------------------------------------------------
# polynomial parsing


def parse_polynomial(text: str, e_weight: int) -> GradedPolynomial:
    """Parse "7/45*p2 - 1/45*p1^2" style expressions.

    The text is a signed sum (scalars._read_sum) of terms: a rational
    coefficient digits[/digits], a product of factors e and p<i> with
    optional ^ powers joined by '*', or coefficient*product.  The weight
    of e is not part of the text and must be supplied by the caller.
    """
    def read_factor(pos):
        if text[pos:pos + 1] == "e":
            name, weight, pos = "e", e_weight, pos + 1
        elif text[pos:pos + 1] == "p":
            i, end = _read_digits(text, pos + 1, "an index after p")
            if i < 1:
                raise ParseError("Pontryagin indices start at 1", offset=pos + 1)
            name, weight, pos = "p%d" % i, 2 * i, end
        else:
            raise ParseError("expected a variable", offset=pos)
        exponent = 1
        if text[pos:pos + 1] == "^":
            exponent, pos = _read_digits(text, pos + 1, "an exponent")
        return GradedPolynomial.variable(name, weight) ** exponent, pos

    def read_term(text, pos):
        coeff = Fraction(1)
        if "0" <= text[pos] <= "9":
            coeff, pos = _read_rational(text, pos)
            pos = _skip_space(text, pos)
            if text[pos:pos + 1] not in ("*", "e", "p"):
                return GradedPolynomial.constant(coeff), pos
            if text[pos] != "*":
                raise ParseError("missing '*' after the coefficient", offset=pos)
            pos = _skip_space(text, pos + 1)
        term, pos = read_factor(pos)
        pos = _skip_space(text, pos)
        while text[pos:pos + 1] == "*":
            factor, pos = read_factor(_skip_space(text, pos + 1))
            term = term * factor
            pos = _skip_space(text, pos)
        return term * coeff, pos

    total = GradedPolynomial.zero()
    for sign, term in _read_sum(text, read_term, "empty polynomial"):
        total = total + term if sign == 1 else total - term
    return total


# ---------------------------------------------------------------------------
# certificate files


def certificate_to_json(cert: WitnessCertificate) -> str:
    problem = cert.problem
    witness = cert.witness
    doc = {
        "version": CERTIFICATE_VERSION,
        "problem": {
            "xi": str(problem.polynomial),
            "n": problem.n,
            "m": problem.m,
            "k": problem.k,
            "degree_2r": cert.degree_2r,
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _field(mapping, key, kind, where):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ParseError("missing %s in %s" % (key, where))
    value = mapping[key]
    if kind is int:
        if not _is_int(value):
            raise ParseError("%s in %s must be an integer" % (key, where))
    elif not isinstance(value, kind):
        raise ParseError("%s in %s has the wrong type" % (key, where))
    return value


def _items(mapping, key, kind, where):
    """The list mapping[key]; kind int asks for JSON integers, str for
    strings."""
    items = _field(mapping, key, list, where)
    for x in items:
        if not (_is_int(x) if kind is int else isinstance(x, kind)):
            raise ParseError("%s in %s must hold only %s" % (
                key, where, "integers" if kind is int else "strings"))
    return items


def _int_pairs(mapping, key, where, shape):
    """The list mapping[key] of two-integer lists, as tuples."""
    pairs = _field(mapping, key, list, where)
    if not all(isinstance(pair, list) and len(pair) == 2
               and all(_is_int(x) for x in pair) for pair in pairs):
        raise ParseError("%s in %s must hold [%s] integer pairs"
                         % (key, where, shape))
    return [tuple(pair) for pair in pairs]


def _json_document(text: str):
    """json.loads(text), every failure a ParseError."""
    try:
        return json.loads(text)
    except ValueError as err:  # JSONDecodeError, or an over-long integer
        raise ParseError("not valid JSON: %s" % err) from err
    except RecursionError as err:
        raise ParseError("not valid JSON: nested too deeply") from err


def certificate_from_json(text: str) -> WitnessCertificate:
    """Rebuild a certificate from its JSON form.

    Structural problems (bad JSON, missing keys, wrong types: every number
    must be a JSON integer and every z entry a string) raise ParseError;
    inconsistent mathematical content is left for verify_certificate to
    report.
    """
    doc = _json_document(text)
    if _field(doc, "version", int, "certificate") != CERTIFICATE_VERSION:
        raise ParseError("unsupported certificate version")
    prob = _field(doc, "problem", dict, "certificate")
    n = _field(prob, "n", int, "problem")
    polynomial = parse_polynomial(_field(prob, "xi", str, "problem"), n)
    problem = DetectionProblem(polynomial, n, m=_field(prob, "m", int, "problem"))
    if _field(prob, "k", int, "problem") != problem.k:
        raise InvariantViolation("stored k disagrees with n")
    wit = _field(doc, "witness", dict, "certificate")
    coords = [rational_from_string(s) for s in _items(wit, "z", str, "witness")]
    witness = WitnessPoint(coords,
                           rational_from_string(_field(wit, "value", str,
                                                       "witness")),
                           _field(wit, "N", int, "witness"))
    prime = _field(doc, "prime", int, "certificate")
    residues = _items(doc, "residues", int, "certificate")
    targets = _items(doc, "targets", int, "certificate")
    xi = VirtualRep(prime, 1, dict(_int_pairs(doc, "xi_rep", "certificate",
                                              "r, multiplicity")))
    pulls = _field(doc, "pullbacks", dict, "certificate")
    euler = _field(pulls, "euler", int, "pullbacks")
    l_pullbacks = dict(_int_pairs(pulls, "L", "pullbacks", "i, value"))
    return WitnessCertificate(problem, witness, prime, residues, targets, xi,
                              euler, l_pullbacks,
                              _field(doc, "evaluation", int, "certificate"),
                              degree_2r=_field(prob, "degree_2r", int,
                                               "problem"))


# ---------------------------------------------------------------------------
# form files
#
# lforms is imported inside the form functions only, so that certify,
# witness, verify and l-table never load it.


def _group_ring_entries(values, where):
    """A list of group-ring strings or JSON integers (not bool)."""
    if not (isinstance(values, list)
            and all(isinstance(x, str) or _is_int(x) for x in values)):
        raise ParseError("%s must be a list of group-ring strings or "
                         "integers" % where)
    return values


def form_from_json(text: str) -> HermitianForm:
    from .lforms import HermitianForm

    doc = _json_document(text)
    p = _field(doc, "p", int, "form")
    k = _field(doc, "k", int, "form")
    parity = _field(doc, "parity", int, "form")
    matrix = [_group_ring_entries(row, "matrix row %d" % a)
              for a, row in enumerate(_field(doc, "matrix", list, "form"))]
    refinement = doc.get("refinement")
    if refinement is not None:
        _group_ring_entries(refinement, "refinement")
    return HermitianForm(p, k, parity, matrix, refinement)


def form_to_json(form: HermitianForm) -> str:
    from .lforms import format_group_ring

    doc = {
        "p": form.p,
        "k": form.k,
        "parity": form.parity,
        "matrix": [[format_group_ring(x) for x in row]
                   for row in form.matrix],
    }
    if form.refinement is not None:
        doc["refinement"] = [format_group_ring(x) for x in form.refinement]
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# commands


def _cmd_l_table(args):
    table = l_table(args.max)
    for i in range(1, args.max + 1):
        print("L%d = %s" % (i, table.l(i)))
    for i in range(1, args.max + 1):
        print("P%d = %s" % (i, table.p(i)))
    return 0


def _problem_from_args(args):
    polynomial = parse_polynomial(args.xi, args.n)
    return DetectionProblem(polynomial, args.n, m=args.m)


def _witness_text(witness: WitnessPoint) -> str:
    return "z = (%s)\nvalue = %s\nN = %d" % (
        ", ".join(str(c) for c in witness.coordinates), witness.value,
        witness.N)


def _cmd_witness(args):
    problem = _problem_from_args(args)
    print(_witness_text(find_rational_witness(problem)))
    return 0


def _cmd_certify(args):
    if args.primes < 1:
        raise CharwitError("need at least one prime")
    problem = _problem_from_args(args)
    witness = find_rational_witness(problem)
    primes = odd_primes_above(witness.N)
    for _ in range(args.primes):
        p = next(primes)
        cert = build_certificate(problem, witness, p)
        ok, report = verify_certificate(cert)
        if not ok:
            print("p=%d FAILED: %s" % (p, report), file=sys.stderr)
            return 1
        # an integer of Xi or of 2r may have more digits than str() converts
        # (sys.get_int_max_str_digits(), the limit verify reads under); the
        # witness numbers were checked in detect
        try:
            text = certificate_to_json(cert)
        except ValueError as err:
            raise CharwitError("the certificate has a number of more than %d "
                               "digits, which verify cannot read"
                               % sys.get_int_max_str_digits()) from err
        path = "%s_p%d.json" % (args.out, p)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        print(cert.summary())
    return 0


def _read_text(path):
    """The exact text of a UTF-8 input file (line endings kept as stored);
    undecodable bytes are a parse error."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            return handle.read()
    except UnicodeDecodeError as err:
        raise ParseError("%s is not UTF-8 text: %s" % (path, err)) from err


def _cmd_verify(args):
    text = _read_text(args.file)
    try:
        cert = certificate_from_json(text)
    except ParseError:
        raise
    except CharwitError as err:
        ok, report = False, str(err)
    else:
        ok, report = ((False, "not the canonical certificate text")
                      if certificate_to_json(cert) != text
                      else verify_certificate(cert))
    if not ok:
        print("verification failed: %s" % report, file=sys.stderr)
        return 1
    print(report)
    return 0


def _load_form(path):
    return form_from_json(_read_text(path))


def _cmd_multisig(args):
    from .lforms import multisignature

    sign = multisignature(_load_form(args.form))
    doc = {
        "p": sign.p,
        "k": sign.k,
        "multiplicities": [list(pair) for pair in sign.serialize()],
    }
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_transfer(args):
    from .lforms import transfer

    print(form_to_json(transfer(_load_form(args.form))), end="")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="charwit",
        description="Witness certificates for polynomial relations among "
                    "the Euler class and topological Pontryagin classes.")
    sub = parser.add_subparsers(dest="command", required=True)

    lt = sub.add_parser("l-table", help="print L-polynomials and inverses")
    lt.add_argument("--max", type=int, required=True, metavar="M")
    lt.set_defaults(func=_cmd_l_table)

    wt = sub.add_parser("witness", help="find a rational witness point")
    wt.add_argument("--xi", required=True, metavar="EXPR")
    wt.add_argument("--n", type=int, required=True)
    wt.add_argument("--m", type=int, default=None)
    wt.set_defaults(func=_cmd_witness)

    ct = sub.add_parser("certify", help="emit per-prime certificates")
    ct.add_argument("--xi", required=True, metavar="EXPR")
    ct.add_argument("--n", type=int, required=True)
    ct.add_argument("--m", type=int, default=None)
    ct.add_argument("--primes", type=int, required=True, metavar="COUNT")
    ct.add_argument("--out", default="certificate", metavar="FILE",
                    help="output prefix; files are FILE_p<prime>.json")
    ct.set_defaults(func=_cmd_certify)

    vf = sub.add_parser("verify", help="audit a certificate file")
    vf.add_argument("file")
    vf.set_defaults(func=_cmd_verify)

    ms = sub.add_parser("multisig", help="multisignature of a form file")
    ms.add_argument("--form", required=True, metavar="FILE")
    ms.set_defaults(func=_cmd_multisig)

    tr = sub.add_parser("transfer", help="restrict a form to the index-p subgroup")
    tr.add_argument("--form", required=True, metavar="FILE")
    tr.set_defaults(func=_cmd_transfer)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as err:
        print("parse error: %s" % err, file=sys.stderr)
        return 2
    except OSError as err:
        print("i/o error: %s" % err, file=sys.stderr)
        return 2
    except CharwitError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
