"""Command-line front end: certificate files, form files and the commands.

Certificates are JSON documents with a fixed key order and integer entries
only (mod-p values as residues in [0, p), rationals as "num/den" strings),
so identical invocations produce byte-identical files, and verify accepts
exactly those bytes.  Exit codes: 0 on success, 1 when a certificate fails
verification, 2 on usage, I/O or parse errors.  All diagnostics go to
standard error.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .detect import (DetectionProblem, WitnessCertificate, WitnessPoint,
                     build_certificate, find_rational_witness,
                     verify_certificate)
from .errors import CharwitError, InvariantViolation, ParseError
from .repring import VirtualRep
from .scalars import (odd_primes_above, rational_from_string,
                      rational_to_string)
from .symfun import l_table, parse_polynomial


CERTIFICATE_VERSION = 1


# ---------------------------------------------------------------------------
# certificate files


# The layout of json.dumps(doc, indent=2) + "\n" for the certificate
# document, written directly: json.dumps with an indent runs the pure-Python
# encoder, and certify need not import json at all.
_CERTIFICATE = """{
  "version": %d,
  "problem": {
    "xi": "%s",
    "n": %d,
    "m": %d,
    "k": %d,
    "degree_2r": %d
  },
  "witness": {
    "z": %s,
    "value": "%s",
    "N": %d
  },
  "prime": %d,
  "residues": %s,
  "targets": %s,
  "xi_rep": %s,
  "pullbacks": {
    "euler": %d,
    "L": %s
  },
  "evaluation": %d
}
"""


def _json_list(items, depth):
    """JSON values already written, as a list at nesting depth `depth`
    laid out as json.dumps(..., indent=2) lays it out."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _json_pairs(pairs, depth):
    """Two-int lists, as a list at nesting depth `depth`."""
    inner = "\n" + "  " * (depth + 2)
    pair = "[" + inner + "%d," + inner + "%d\n" + "  " * (depth + 1) + "]"
    return _json_list([pair % (a, b) for a, b in pairs], depth)


def certificate_to_json(cert: WitnessCertificate) -> str:
    """The canonical certificate text.  Every value is an int, a list of
    ints or an ASCII string with nothing to escape; an int with more
    digits than str() converts raises ValueError."""
    problem = cert.problem
    witness = cert.witness
    return _CERTIFICATE % (
        CERTIFICATE_VERSION,
        problem.polynomial, problem.n, problem.m, problem.k, problem.degree_2r,
        _json_list(['"%s"' % rational_to_string(c)
                    for c in witness.coordinates], 2),
        rational_to_string(witness.value), witness.N,
        cert.prime,
        _json_list([str(r) for r in cert.residues], 1),
        _json_list([str(t) for t in cert.targets], 1),
        _json_pairs(cert.xi.serialize(), 1),
        cert.euler,
        _json_pairs(sorted(cert.l_pullbacks.items()), 2),
        cert.evaluation)


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
    import json

    try:
        return json.loads(text)
    except ValueError as err:  # JSONDecodeError, or an over-long integer
        raise ParseError("not valid JSON: %s" % err) from err
    except RecursionError as err:
        raise ParseError("not valid JSON: nested too deeply") from err


def certificate_from_json(text: str) -> WitnessCertificate:
    """Rebuild a certificate from its JSON form.

    Structural problems (bad JSON, missing keys, wrong types: every number
    must be a JSON integer and every z entry a string) raise ParseError.
    The stored k, degree_2r and m must be the ones DetectionProblem derives
    from Xi and n, or the first that differs raises InvariantViolation;
    all other mathematical content is left for verify_certificate to
    report.
    """
    doc = _json_document(text)
    if _field(doc, "version", int, "certificate") != CERTIFICATE_VERSION:
        raise ParseError("unsupported certificate version")
    prob = _field(doc, "problem", dict, "certificate")
    n = _field(prob, "n", int, "problem")
    problem = DetectionProblem(
        parse_polynomial(_field(prob, "xi", str, "problem"), n), n)
    for key, report in (("k", "stored k disagrees with n"),
                        ("degree_2r", "degree bookkeeping is inconsistent"),
                        ("m", "stored m disagrees with Xi and n")):
        if _field(prob, key, int, "problem") != getattr(problem, key):
            raise InvariantViolation(report)
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
                              _field(doc, "evaluation", int, "certificate"))


# ---------------------------------------------------------------------------
# form files
#
# lforms is imported inside the form functions only, so that certify,
# witness, verify and l-table never load it.  json is likewise imported only
# where JSON is read or a form or multisignature printed, so that certify,
# witness and l-table never load it.


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
    import json

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
    return DetectionProblem(parse_polynomial(args.xi, args.n), args.n)


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
    import json

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


# ---------------------------------------------------------------------------
# command line

_REQUIRED = object()

# command -> (handler, help, options), where options maps "--name", or the
# name of a positional argument, to (type, default or _REQUIRED)
_COMMANDS = {
    "l-table": (_cmd_l_table, "print L-polynomials and inverses",
                {"--max": (int, _REQUIRED)}),
    "witness": (_cmd_witness, "find a rational witness point",
                {"--xi": (str, _REQUIRED), "--n": (int, _REQUIRED)}),
    "certify": (_cmd_certify, "emit per-prime certificates as "
                "OUT_p<prime>.json, OUT=certificate by default",
                {"--xi": (str, _REQUIRED), "--n": (int, _REQUIRED),
                 "--primes": (int, _REQUIRED), "--out": (str, "certificate")}),
    "verify": (_cmd_verify, "audit a certificate file",
               {"file": (str, _REQUIRED)}),
    "multisig": (_cmd_multisig, "multisignature of a form file",
                 {"--form": (str, _REQUIRED)}),
    "transfer": (_cmd_transfer, "restrict a form to the index-p subgroup",
                 {"--form": (str, _REQUIRED)}),
}
_HELP_FLAGS = ("-h", "--help")


class _UsageError(Exception):
    """A command line that does not fit _COMMANDS."""


def _synopsis(command):
    if command is None:
        return "{%s} ..." % ",".join(_COMMANDS)
    words = [command]
    for name, (_, default) in _COMMANDS[command][2].items():
        word = ("%s %s" % (name, name[2:].upper()) if name.startswith("--")
                else name.upper())
        words.append(word if default is _REQUIRED else "[%s]" % word)
    return " ".join(words)


_HELP_TEXT = """usage: charwit %s

Witness certificates for polynomial relations among the Euler class and
topological Pontryagin classes.

commands:
%s

Options are written --name VALUE or --name=VALUE.  The word after --name is
its value even when it starts with '-', and the last value given wins.
-h or --help prints this text.  Exit codes: 0 success, 1 failed verification
or computation, 2 usage, i/o or parse error."""


def _help():
    return _HELP_TEXT % (_synopsis(None), "\n".join(
        "  charwit %s\n      %s" % (_synopsis(command), text)
        for command, (_, text, _) in _COMMANDS.items()))


def _cmd_help(args):
    print(_help())
    return 0


def _read_command_line(argv):
    """(handler, args) for argv, (_cmd_help, None) when it asks for help;
    raises _UsageError."""
    words = iter(argv)
    command = next(words, None)
    if command in _HELP_FLAGS:
        return _cmd_help, None
    if command not in _COMMANDS:
        raise _UsageError("no command given" if command is None
                          else "unknown command %r" % command)
    handler, _, options = _COMMANDS[command]
    positional = [name for name in options if not name.startswith("--")]
    values = {}
    for word in words:
        if word in _HELP_FLAGS:
            return _cmd_help, None
        if word.startswith("-"):
            name, equals, value = word.partition("=")
            if name not in options:
                raise _UsageError("unrecognized argument %s" % word)
            if not equals:
                value = next(words, None)
                if value is None:
                    raise _UsageError("argument %s: expected one "
                                      "argument" % name)
        elif positional:
            name, value = positional.pop(0), word
        else:
            raise _UsageError("unrecognized argument %s" % word)
        kind = options[name][0]
        try:
            values[name] = kind(value)
        except ValueError:
            raise _UsageError("argument %s: invalid %s value: %r"
                              % (name, kind.__name__, value)) from None
    missing = [name for name, (_, default) in options.items()
               if default is _REQUIRED and name not in values]
    if missing:
        raise _UsageError("the following arguments are required: %s"
                          % ", ".join(missing))
    return handler, SimpleNamespace(**{
        name.lstrip("-"): values.get(name, default)
        for name, (_, default) in options.items()})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        command = _read_command_line(argv)
    except _UsageError as err:
        print("usage: charwit %s" % _synopsis(
            argv[0] if argv and argv[0] in _COMMANDS else None),
            file=sys.stderr)
        print("charwit: error: %s" % err, file=sys.stderr)
        return 2
    handler, args = command
    try:
        code = handler(args)
        sys.stdout.flush()  # a closed pipe is an i/o error here, not at exit
        return code
    except ParseError as err:
        print("parse error: %s" % err, file=sys.stderr)
        return 2
    except OSError as err:
        print("i/o error: %s" % err, file=sys.stderr)
        if isinstance(err, BrokenPipeError):
            # what stdout still holds goes to /dev/null at exit, not to a
            # second BrokenPipeError
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except CharwitError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
