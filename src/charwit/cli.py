"""Command-line front end: the command table, the handlers and main.

The certificate document is read and written in detect, the form files in
lforms; lforms and json are imported only by the commands that use them.
Exit codes: 0 on success, 1 when a certificate fails verification, 2 on
usage, I/O or parse errors.  All diagnostics go to standard error.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .detect import (DetectionProblem, build_certificate,
                     certificate_from_json, certificate_to_json,
                     certify_primes, find_rational_witness,
                     verify_certificate)
from .errors import CharwitError, ParseError
from .scalars import _decimal, _fraction_text, _read_digits
from .symfun import l_table, parse_polynomial


# ---------------------------------------------------------------------------
# commands


# The largest --max of l-table, whose expansion of L_1..L_M and P_1..P_M is
# steep in M: on a shared 2-core x86-64 box 16 took 0.7 s, 20 2.9 s, 24 12 s.
L_TABLE_LIMIT = 16


def _cmd_l_table(args):
    if args.max > L_TABLE_LIMIT:
        raise CharwitError("--max exceeds the l-table limit %d"
                           % L_TABLE_LIMIT)
    table = l_table(args.max)
    for i in range(1, args.max + 1):
        print("L%d = %s" % (i, table.l(i)))
    for i in range(1, args.max + 1):
        print("P%d = %s" % (i, table.p(i)))
    return 0


def _problem_from_args(args):
    return DetectionProblem(parse_polynomial(args.xi, args.n), args.n)


def _cmd_witness(args):
    witness = find_rational_witness(_problem_from_args(args))
    print("z = (%s)\nvalue = %s\nN = %s" % (
        ", ".join(map(_fraction_text, witness.coordinates)),
        _fraction_text(witness.value), _decimal(witness.N)))
    return 0


def _cmd_certify(args):
    if args.primes < 1:
        raise CharwitError("need at least one prime")
    problem = _problem_from_args(args)
    witness = find_rational_witness(problem)
    primes = certify_primes(problem, witness)
    for _ in range(args.primes):
        cert = build_certificate(problem, witness, next(primes))
        text = certificate_to_json(cert)
        path = "%s_p%d.json" % (args.out, cert.prime)
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
        ok, report = verify_certificate(cert)
    if not ok:
        print("verification failed: %s" % report, file=sys.stderr)
        return 1
    print(report)
    return 0


def _load_form(path):
    from .lforms import form_from_json

    return form_from_json(_read_text(path))


def _cmd_multisig(args):
    from .lforms import multisignature, multisignature_to_json

    print(multisignature_to_json(multisignature(_load_form(args.form))),
          end="")
    return 0


def _cmd_transfer(args):
    from .lforms import form_to_json, transfer

    print(form_to_json(transfer(_load_form(args.form))), end="")
    return 0


# ---------------------------------------------------------------------------
# command line

_REQUIRED = object()


def _int(word):
    """An int option: [-]digits in ASCII to the end of the word, read by
    scalars._read_digits; anything else is a ParseError."""
    value, end = _read_digits(word, 0, "an integer", signed=True)
    if end != len(word):
        raise ParseError("expected the end of the number", offset=end)
    return value


# command -> (handler, help, options), where options maps "--name", or the
# name of a positional argument, to (str or _int, default or _REQUIRED)
_COMMANDS = {
    "l-table": (_cmd_l_table, "print L-polynomials and inverses",
                {"--max": (_int, _REQUIRED)}),
    "witness": (_cmd_witness, "find a rational witness point",
                {"--xi": (str, _REQUIRED), "--n": (_int, _REQUIRED)}),
    "certify": (_cmd_certify, "emit per-prime certificates as "
                "OUT_p<prime>.json, OUT=certificate by default",
                {"--xi": (str, _REQUIRED), "--n": (_int, _REQUIRED),
                 "--primes": (_int, _REQUIRED),
                 "--out": (str, "certificate")}),
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
        try:
            values[name] = options[name][0](value)
        except ParseError:
            raise _UsageError("argument %s: invalid int value: %r"
                              % (name, value)) from None
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
