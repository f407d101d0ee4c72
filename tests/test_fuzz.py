"""A seeded, grammar-aware fuzzer over the documents charwit reads.

Mutants are made from two certificates, the flagship (Xi = e^2 - p2,
p = 53) and Xi = e at n = 80 (m = 40, p = 83), and from three form
files.  Value mutations change numbers to 10^k, to huge exponents and to
large primes, lengthen and shorten lists, change `version`, retype,
drop and add keys, and swap fields within a document and between
documents.  Layout mutations change key order, list order, indentation
and line ends, write compact JSON, and duplicate list items or lines.

Each mutant runs in this process under a 1 s interval timer and must end
in exit 0, 1 or 2 with a named check and no traceback.  For a
certificate, certificate_from_json followed by verify_certificate must
give `charwit verify`'s exit code, stdout and stderr, and only the
document itself may be accepted.  Tier-1 runs a few hundred mutants; a
wider seed range runs as

    PYTHONPATH=src:tests python -c "import test_fuzz; print(test_fuzz.fuzz(range(1, 101)))"
"""

import contextlib
import copy
import io
import json
import os
import random
import re
import signal
import tempfile
import time
from functools import lru_cache

from charwit.cli import main
from charwit.detect import (certificate_from_json, certificate_to_json,
                            run_pipeline, verify_certificate)
from charwit.errors import CharwitError, ParseError
from charwit.lforms import form_to_json, random_form, transfer
from charwit.scalars import DIGIT_LIMIT
from charwit.symfun import parse_polynomial

NAMED_CHECK = re.compile(r"(verification failed|parse error|error): \S")
SECONDS = 1.0
COUNT = 300  # mutants per seed


def library_verdict(text):
    """`charwit verify`'s (exit code, stdout, stderr) on a file holding
    text, from certificate_from_json and verify_certificate."""
    try:
        ok, report = verify_certificate(certificate_from_json(text))
    except ParseError as err:
        return 2, "", "parse error: %s\n" % err
    except CharwitError as err:
        ok, report = False, str(err)
    if ok:
        return 0, report + "\n", ""
    return 1, "", "verification failed: %s\n" % report


def cli_verdict(*argv):
    """(exit code, stdout, stderr) of main(argv), in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@lru_cache(maxsize=None)
def bases():
    """{name: (kind, text)} of the documents every mutant starts from."""
    certs = {"flagship": ("e^2 - p2", 2), "e80": ("e", 80)}
    docs = {name: ("certificate", certificate_to_json(
        run_pipeline(parse_polynomial(xi, n), n, 1)[0]))
        for name, (xi, n) in certs.items()}
    skew = random_form(3, 2, -1, 2, 2)
    for name, form in (("form", random_form(5, 1, 1, 2, 1)), ("skew", skew),
                       ("transfer", transfer(skew))):
        docs[name] = ("form", form_to_json(form))
    return docs


# ---------------------------------------------------------------------------
# documents as trees: paths, reads and writes


class Raw(str):
    """JSON text written as it stands, such as a number of more digits
    than int() converts."""


def dump(value, indent=2, depth=0):
    """value as json.dumps(value, indent=indent) writes it, Raw as is."""
    if isinstance(value, Raw):
        return value
    if not isinstance(value, (dict, list)) or not value:
        return json.dumps(value)
    if isinstance(value, dict):
        parts = ["%s: %s" % (json.dumps(key), dump(item, indent, depth + 1))
                 for key, item in value.items()]
        ends = "{}"
    else:
        parts = [dump(item, indent, depth + 1) for item in value]
        ends = "[]"
    if indent is None:
        return ends[0] + ", ".join(parts) + ends[1]
    inner = "\n" + " " * indent * (depth + 1)
    return (ends[0] + inner + ("," + inner).join(parts) + "\n"
            + " " * indent * depth + ends[1])


def paths(value, path=()):
    """Every path in value, the root () first."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from paths(item, path + (key,))


def get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def put(doc, path, value):
    """doc with value at path; the root is replaced by returning value."""
    if not path:
        return value
    get(doc, path[:-1])[path[-1]] = value
    return doc


def where(path):
    return ".".join(map(str, path)) or "document"


def pick(rng, doc, test):
    """A random path in doc whose value passes test, or None."""
    found = [path for path in paths(doc) if test(get(doc, path))]
    return rng.choice(found) if found else None


def is_number(value):
    return (isinstance(value, Raw)
            or isinstance(value, int) and not isinstance(value, bool))


def is_text(value):
    return isinstance(value, str) and not isinstance(value, Raw)


# ---------------------------------------------------------------------------
# value mutations: each op(doc, rng, others) -> (doc, label)

POWERS = (1, 2, 6, 18, 40, 100, 1000, DIGIT_LIMIT - 1, DIGIT_LIMIT,
          DIGIT_LIMIT + 1, 20000)
# primes around the work limit, and past the range where is_prime is exact
LARGE_PRIMES = (99991, 100003, 1000003, 10 ** 9 + 7, 2 ** 31 - 1,
                2 ** 61 - 1, 2 ** 89 - 1, 2 ** 127 - 1)


def number_text(rng):
    """The text of 10^k, -10^k, a large prime or a huge exponent."""
    return rng.choice([
        lambda: "1" + "0" * rng.choice(POWERS),
        lambda: "-1" + "0" * rng.choice(POWERS),
        lambda: str(rng.choice(LARGE_PRIMES)),
        lambda: "9" * rng.choice(POWERS),
    ])()


def mutate_number(doc, rng, others):
    path = pick(rng, doc, is_number)
    if path is None:
        return mutate_text(doc, rng, others)
    old = get(doc, path)
    new = rng.choice([
        lambda: Raw(number_text(rng)),
        lambda: Raw(number_text(rng)),
        lambda: old + rng.choice([-1, 1]) if isinstance(old, int) else 0,
        lambda: rng.choice([0, -1, 1, 2, 3]),
        lambda: Raw(rng.choice(["1e400", "1.0", "-0", "0.5", "1E2"])),
    ])()
    return put(doc, path, new), "number %s -> %.20s" % (where(path), new)


# whole replacements for a string field, from the grammars of polynomials,
# rationals and group-ring elements, and some that fit none
TEXTS = ("e", "e^2", "p1", "p40", "p41", "e^2 - p2 + p2", "0", "", " ", "1/0",
         "0/1", "-0", "2/2", "01", "+1", "1e3", "1/-1", "\u0661", "x", "g",
         "g^0", "1 - g^2 - g^3", "h", "2*g^2*g", "e*e", "p0", "p01")


def mutate_text(doc, rng, others):
    path = pick(rng, doc, is_text)
    if path is None:
        return retype(doc, rng, others)
    old = get(doc, path)
    runs = list(re.finditer(r"\d+", old))
    if runs and rng.random() < 0.6:
        run = rng.choice(runs)
        digits = number_text(rng).lstrip("-")
        new = old[:run.start()] + digits + old[run.end():]
    elif rng.random() < 0.5:
        term = rng.choice(["e", "p1", "p2", "g", "x"])
        new = "%s + %s^%s" % (old, term, number_text(rng).lstrip("-"))
    else:
        new = rng.choice(TEXTS)
    return put(doc, path, new), "text %s -> %.20s" % (where(path), new)


def lengthen(doc, rng, others):
    path = pick(rng, doc, lambda v: isinstance(v, list))
    if path is None:
        return mutate_number(doc, rng, others)
    items = get(doc, path)
    if items and rng.random() < 0.7:
        times = rng.choice([1, 1, 2, 10])
        items.extend(copy.deepcopy(rng.choice(items)) for _ in range(times))
    else:
        items.append(rng.choice([0, 1, "1", [0, 0], [1, 1], []]))
    return doc, "lengthen %s to %d" % (where(path), len(items))


def shorten(doc, rng, others):
    path = pick(rng, doc, lambda v: isinstance(v, list) and v)
    if path is None:
        return mutate_number(doc, rng, others)
    items = get(doc, path)
    cut = rng.choice([len(items) - 1, len(items) // 2, 0])
    if rng.random() < 0.5:
        del items[cut:]
    else:
        del items[:len(items) - cut]
    return doc, "shorten %s to %d" % (where(path), len(items))


def change_version(doc, rng, others):
    new = rng.choice([0, 2, -1, "1", True, None, [1], Raw("1.0"),
                      Raw(number_text(rng))])
    if not isinstance(doc, dict):
        return doc, "version (no object)"
    doc["version"] = new
    return doc, "version -> %.20s" % (new,)


def retype(doc, rng, others):
    path = pick(rng, doc, lambda v: True)
    old = get(doc, path)
    new = rng.choice([None, True, "x", {}, [], [old], {"x": old},
                      json.dumps(old) if not isinstance(old, Raw) else old])
    return put(doc, path, new), "retype %s" % where(path)


def drop_or_add_key(doc, rng, others):
    path = pick(rng, doc, lambda v: isinstance(v, dict) and v)
    if path is None:
        return retype(doc, rng, others)
    mapping = get(doc, path)
    if rng.random() < 0.5:
        key = rng.choice(list(mapping))
        del mapping[key]
        return doc, "drop %s" % where(path + (key,))
    mapping[rng.choice(["note", "version", "k", "p", "refinement"])] = 0
    return doc, "add a key to %s" % where(path)


def swap_within(doc, rng, others):
    """Exchange the values at two paths, neither inside the other."""
    found = list(paths(doc))[1:]
    for _ in range(10):
        if len(found) < 2:
            break
        a, b = rng.sample(found, 2)
        if a[:len(b)] != b and b[:len(a)] != a:
            va, vb = get(doc, a), get(doc, b)
            put(doc, a, vb)
            put(doc, b, va)
            return doc, "swap %s, %s" % (where(a), where(b))
    return retype(doc, rng, others)


def swap_between(doc, rng, others):
    """A field of another document, at the same path when doc has it."""
    other = rng.choice(others)
    source = rng.choice(list(paths(other)))
    found = list(paths(doc))
    target = source if source in found else rng.choice(found)
    doc = put(doc, target, copy.deepcopy(get(other, source)))
    return doc, "from another document %s -> %s" % (where(source),
                                                   where(target))


VALUE_OPS = (mutate_number, mutate_number, mutate_text, mutate_text,
             lengthen, shorten, change_version, retype, drop_or_add_key,
             swap_within, swap_between)


# ---------------------------------------------------------------------------
# layout mutations: on the tree, then on the text


def reorder_keys(doc, rng):
    path = pick(rng, doc, lambda v: isinstance(v, dict) and len(v) > 1)
    if path is None:
        return doc, "no key order"
    keys = list(get(doc, path))
    rng.shuffle(keys)
    mapping = get(doc, path)
    doc = put(doc, path, {key: mapping[key] for key in keys})
    return doc, "key order of %s" % where(path)


def reverse_list(doc, rng):
    path = pick(rng, doc, lambda v: isinstance(v, list) and len(v) > 1)
    if path is None:
        return doc, "no list to reverse"
    get(doc, path).reverse()
    return doc, "reverse %s" % where(path)


def duplicate_item(doc, rng):
    path = pick(rng, doc, lambda v: isinstance(v, list) and v)
    if path is None:
        return doc, "no list to duplicate in"
    items = get(doc, path)
    i = rng.randrange(len(items))
    items.insert(i + 1, copy.deepcopy(items[i]))
    return doc, "duplicate %s" % where(path + (i,))


def duplicate_line(text, rng):
    lines = text.split("\n")
    i = rng.randrange(len(lines))
    lines.insert(i, lines[i])
    return "\n".join(lines)


TREE_LAYOUTS = (reorder_keys, reverse_list, duplicate_item)
TEXT_LAYOUTS = {
    "compact": lambda doc, rng: dump(doc, None),
    "crlf": lambda doc, rng: (dump(doc) + "\n").replace("\n", "\r\n"),
    "indent 4": lambda doc, rng: dump(doc, 4) + "\n",
    "no final newline": lambda doc, rng: dump(doc),
    "two final newlines": lambda doc, rng: dump(doc) + "\n\n",
    "byte order mark": lambda doc, rng: "\ufeff" + dump(doc) + "\n",
    "trailing space": lambda doc, rng: dump(doc).replace(",", ", ", 1) + "\n",
    "duplicate line": lambda doc, rng: duplicate_line(dump(doc) + "\n", rng),
}


def mutant(name, rng):
    """(text, labels) of one mutant of the base document name."""
    docs = {key: json.loads(text) for key, (_, text) in bases().items()}
    doc = docs.pop(name)
    others = list(docs.values())
    labels = []
    if rng.random() < 0.75:
        for _ in range(rng.choice([1, 1, 1, 2, 3])):
            doc, label = rng.choice(VALUE_OPS)(doc, rng, others)
            labels.append(label)
    if not labels or rng.random() < 0.3:
        if rng.random() < 0.5:
            doc, label = rng.choice(TREE_LAYOUTS)(doc, rng)
            labels.append(label)
        else:
            layout = rng.choice(sorted(TEXT_LAYOUTS))
            labels.append(layout)
            return TEXT_LAYOUTS[layout](doc, rng), labels
    return dump(doc) + "\n", labels


# ---------------------------------------------------------------------------
# running a mutant


class Overtime(BaseException):
    """The interval timer fired: no verdict within SECONDS."""


def _alarm(signum, frame):
    raise Overtime()


def timed(call):
    """(call(), seconds) under an interval timer of SECONDS on this
    process; Overtime when it fires."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, SECONDS)
        try:
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return result, time.perf_counter() - start


def faults(verdict):
    """What is wrong with a command's (exit code, stdout, stderr)."""
    code, out, err = verdict
    if code not in (0, 1, 2):
        return ["exit %r" % (code,)]
    if code and (out or not NAMED_CHECK.match(err)):
        return ["exit %d without a named check: %r" % (code, err[:200])]
    return ["traceback"] if "Traceback" in err else []


def run_mutant(kind, text, path, originals):
    """(faults, slowest seconds) of every command on one mutant text."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    with open(path, encoding="utf-8", newline="") as handle:
        text = handle.read()  # as `charwit verify` reads it
    if kind == "certificate":
        calls = {"verify": lambda: cli_verdict("verify", path),
                 "library": lambda: library_verdict(text)}
    else:
        calls = {command: lambda command=command: cli_verdict(
            command, "--form", path) for command in ("multisig", "transfer")}
    found, verdicts, slowest = [], {}, 0.0
    for name, call in calls.items():
        try:
            verdicts[name], seconds = timed(call)
        except Overtime:
            found.append("%s: no verdict within %g s" % (name, SECONDS))
            continue
        except Exception as exc:  # what the command line shows as a traceback
            found.append("%s: %s: %.200s" % (name, type(exc).__name__, exc))
            continue
        slowest = max(slowest, seconds)
        found += ["%s: %s" % (name, fault) for fault in faults(verdicts[name])]
        if seconds > SECONDS:
            found.append("%s: took %.2f s" % (name, seconds))
    if kind == "certificate" and len(verdicts) == 2:
        if verdicts["verify"] != verdicts["library"]:
            found.append("library %r, verify %r" % (verdicts["library"],
                                                    verdicts["verify"]))
        if verdicts["verify"][0] == 0 and text not in originals:
            found.append("verify accepted a mutant")
    return found, slowest


def fuzz(seeds, count=COUNT):
    """Run count mutants per seed, cycling through the base documents.
    Raises AssertionError naming every mutant that went wrong; returns
    (mutants run, slowest command in seconds)."""
    docs = bases()
    originals = {text for kind, text in docs.values() if kind == "certificate"}
    names = sorted(docs)
    failures, slowest, total = [], 0.0, 0
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "mutant.json")
        for seed in seeds:
            rng = random.Random(seed)
            for i in range(count):
                name = names[i % len(names)]
                text, labels = mutant(name, rng)
                found, seconds = run_mutant(docs[name][0], text, path,
                                            originals)
                slowest = max(slowest, seconds)
                total += 1
                if found:
                    failures.append("seed %d mutant %d (%s: %s): %s" % (
                        seed, i, name, "; ".join(labels), "; ".join(found)))
    assert not failures, "%d of %d mutants failed:\n%s" % (
        len(failures), total, "\n".join(failures[:20]))
    return total, slowest


def test_writer_of_mutants_reproduces_every_base_document():
    for kind, text in bases().values():
        assert dump(json.loads(text)) + "\n" == text


def test_documents_fuzz():
    """A few hundred seeded mutants of certificates and form files, each
    ending within 1 s in a verdict with a named check, the library pair
    giving `charwit verify`'s verdict on every certificate mutant."""
    total, slowest = fuzz([0])
    assert total == COUNT and slowest < SECONDS
