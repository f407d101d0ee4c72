"""The charwit benchmark.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Workloads: certify, witness and audit drive the `charwit` CLI, one child
process per operation; forms calls multisignature and transfer in this
process.  `--workload all` runs each workload in its own benchmark process
and prints one table.  Load is a closed loop with one client.

Every operation is gated on its output bytes (a SHA-256 per operation,
compared with the first run of the same operation and with the digests in
frozen_digests.json), and oracles run after the timed phase.  The last
stdout line is the result object; the line before it is the full report
(digests, scaled and unscaled latencies, failed ratio, slowest operation,
environment).

Latencies are wall clock scaled to a fixed host speed: a fixed reference
loop (hostclock.py) is timed between operations, and each latency is
scaled by the loop times around it.  The report keeps the unscaled
figures.

With --trace 0 the result carries the end-to-end metrics.  With --trace 1
the benchmark runs traced passes (spans from tracer.py) and one untraced
reference pass, and reports the per-layer metrics and the tracing
overhead.  README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import types

import hostclock

BENCH_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FROZEN = os.path.join(HERE, "frozen_digests.json")
WORK = os.path.join(HERE, "_work")
OUT = os.path.join(HERE, "_out")

WORKLOADS = ("certify", "witness", "audit", "forms")
DEFAULT_SEED = 1
OP_TIMEOUT = 150

# (xi, n); bounds N run from 17 to 719, so primes up to 733 are solved
CERTIFY = [("e^2 - p2", 2), ("p3 - e^2", 3), ("e*p1^2 - p5", 6),
           ("e^2 - p1^8", 8), ("e^2 - p1^5", 5), ("e^2 - p1^6", 6),
           ("e^2 - p2^2", 4)]
WITNESS = [("e^4 - p6", 3), ("e^6 - p6", 2), ("e^2 - p1^8", 8),
           ("e^2 - p5", 5), ("e^2 - p4", 4), ("e*p1^2 - p5", 6),
           ("e^2 - p1*p4", 5), ("e^2 - p1^6", 6)]
FORM_GRID = [(3, 2, 4), (5, 2, 4), (3, 3, 4), (7, 2, 6)]
FORM_SEEDS = (1, 2)
MUTATIONS = ("evaluation", "xi_rep", "residue", "pullback", "target", "prime")

END_TO_END = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}
NAMED_CHECK = re.compile(r"(verification failed|parse error|error): \S")
TRACEBACK = "Traceback (most recent call last)"
NOTE = ("wall-clock timings on a shared machine, scaled to the reference "
        "host speed; no machine setting was changed for the run")

API = types.SimpleNamespace()   # the charwit names this module calls


def load_charwit():
    """Import charwit from the checkout's src/ and nowhere else."""
    init = os.path.join(SRC, "charwit", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit("perfbench: src/charwit not found next to perfbench/")
    sys.path.insert(0, SRC)
    import charwit
    if os.path.abspath(charwit.__file__) != init:
        raise SystemExit("perfbench: imported charwit from %s, not src/"
                         % charwit.__file__)
    for name in ("certificate_from_json", "certificate_to_json",
                 "multisignature", "parse_polynomial", "random_form",
                 "restrict", "run_pipeline", "transfer"):
        setattr(API, name, getattr(charwit, name))
    return charwit


def sha(data):
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def label(xi, n):
    return "%s|n=%d" % (xi, n)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One pass is self.ops in a seeded order; run() is the timed call."""

    setup_repeats = 3   # setup_s is the median
    min_passes = 2      # so every workload has more than ten samples
    setup_error = None

    def __init__(self, seed, smoke, frozen, work):
        self.seed = seed
        self.smoke = smoke
        self.frozen = frozen
        self.work = work
        self.digests = {}
        self.ops = []

    def gate(self, key, digest):
        """Bytes are the gate: the first digest of a key, and the frozen one."""
        first = self.digests.setdefault(key, digest)
        if first != digest:
            return "output differs from the first run of this operation"
        frozen = self.frozen.get(self.name, {}).get(key)
        if frozen is not None and frozen != digest:
            return "output differs from the frozen digest"
        return None

    def install(self, tracer):
        """Wrap in-process binding sites; CLI workloads trace in the child."""

    def install_setup(self, tracer):
        """Wrap the binding sites that set-up calls."""

    def oracle(self):
        return {}


class CliWorkload(Workload):
    def __init__(self, *args):
        super().__init__(*args)
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.spans_path = os.path.join(self.work, "spans.json")

    def run(self, op, tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "charwit"] + op[1]
        else:
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                   self.spans_path, "--"] + op[1]
        try:
            return subprocess.run(cmd, env=self.env, cwd=self.work,
                                  capture_output=True, text=True,
                                  timeout=OP_TIMEOUT)
        except subprocess.TimeoutExpired:
            return None

    def check(self, op, proc, tracer):
        if proc is None:
            return "timed out after %d s" % OP_TIMEOUT
        if tracer is not None and os.path.exists(self.spans_path):
            with open(self.spans_path, encoding="utf-8") as handle:
                tracer.extend(json.load(handle), tracer.op)
            os.remove(self.spans_path)
        if TRACEBACK in proc.stderr:
            return "traceback on stderr"
        return self.check_output(op, proc)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Certify(CliWorkload):
    """One `charwit certify --primes 2` per operation."""

    name = "certify"

    def setup(self):
        problems = CERTIFY[-1:] if self.smoke else CERTIFY
        self.ops = []
        for i, (xi, n) in enumerate(problems):
            out = os.path.join(self.work, "c%d" % i)
            self.ops.append((label(xi, n),
                             ["certify", "--xi", xi, "--n", str(n),
                              "--primes", "2", "--out", out], out))
        self.texts = {}
        return self.ops[-1]

    def check_output(self, op, proc):
        key, _, out = op
        prefix = os.path.basename(out) + "_p"
        names = sorted(f for f in os.listdir(self.work) if f.startswith(prefix))
        texts = {}
        for name in names:
            path = os.path.join(self.work, name)
            with open(path, encoding="utf-8") as handle:
                texts["%s/p%s" % (key, name[len(prefix):-5])] = handle.read()
            os.remove(path)
        if proc.returncode != 0:
            return "exit code %d" % proc.returncode
        if len(texts) != 2:
            return "expected 2 certificate files, found %d" % len(texts)
        for file_key, text in texts.items():
            error = self.gate(file_key, sha(text))
            if error:
                return error
        self.texts.setdefault(key, texts)
        return self.gate(key, sha("".join("%s %s\n" % (k, sha(t))
                                          for k, t in sorted(texts.items()))))

    def oracle(self):
        failed = {}
        for key, texts in self.texts.items():
            for text in texts.values():
                again = API.certificate_to_json(API.certificate_from_json(text))
                if again != text:
                    failed[key] = "certificate JSON does not round-trip"
        return failed


class Witness(CliWorkload):
    """One `charwit witness` per operation."""

    name = "witness"

    def setup(self):
        problems = WITNESS[-1:] if self.smoke else WITNESS
        self.ops = [(label(xi, n), ["witness", "--xi", xi, "--n", str(n)])
                    for xi, n in problems]
        return self.ops[-1]

    def check_output(self, op, proc):
        if proc.returncode != 0:
            return "exit code %d" % proc.returncode
        return self.gate(op[0], sha(proc.stdout))


class Audit(CliWorkload):
    """One `charwit verify FILE` per operation, over the certify suite's
    certificates and one seeded mutant of each."""

    name = "audit"
    # building the 14 certificates is about 9 s, mostly the Chern solve at
    # p = 727 and 733; repeating it would add a third to the whole run
    setup_repeats = 1

    def setup(self):
        problems = CERTIFY[-1:] if self.smoke else CERTIFY
        certs = []
        for xi, n in problems:
            for cert in API.run_pipeline(API.parse_polynomial(xi, n), n, 2):
                text = API.certificate_to_json(cert)
                key = "%s/p%d" % (label(xi, n), cert.prime)
                frozen = self.frozen.get("certify", {}).get(key)
                if frozen is not None and frozen != sha(text):
                    self.setup_error = ("set-up certificate %s differs from "
                                        "its frozen digest" % key)
                certs.append((key, text))
        rng = random.Random("%d:mutate" % self.seed)
        kinds = (list(MUTATIONS) * len(certs))[:len(certs)]
        rng.shuffle(kinds)
        self.ops = []
        for i, ((key, text), kind) in enumerate(zip(certs, kinds)):
            mutant, detail = mutate(text, kind, rng)
            for tag, body, expect in (("valid", text, 0),
                                      ("mutant", mutant, 1)):
                path = os.path.join(self.work, "%s%d.json" % (tag, i))
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(body)
                op_key = "%s:%s" % (tag, key) + (":" + detail if expect else "")
                self.ops.append((op_key, ["verify", path], expect))
        return self.ops[0]

    def check_output(self, op, proc):
        _, _, expect = op
        if expect == 0:
            if proc.returncode != 0 or proc.stdout != "ok\n":
                return "valid certificate rejected (exit %d)" % proc.returncode
        else:
            if proc.returncode not in (1, 2):
                return "mutant exited %d" % proc.returncode
            if not NAMED_CHECK.match(proc.stderr):
                return "mutant rejected without naming a check"
        return self.gate(op[0], sha("%d\n%s" % (proc.returncode, proc.stdout)))


def mutate(text, kind, rng):
    """Flip one field of a certificate document; verify rejects each kind."""
    doc = json.loads(text)
    p = doc["prime"]
    d = rng.randrange(1, p)
    if kind == "evaluation":
        doc["evaluation"] = (doc["evaluation"] + d) % p
        where = ""
    elif kind == "xi_rep":
        if not doc["xi_rep"]:   # xi = 0: add chi^1, which breaks conj-symmetry
            doc["xi_rep"].append([1, 0])
        i = rng.randrange(len(doc["xi_rep"]))
        doc["xi_rep"][i][1] += d
        where = str(i)
    elif kind == "prime":
        doc["prime"] = p + 1
        d, where = 1, ""
    else:
        field = {"residue": doc["residues"], "target": doc["targets"],
                 "pullback": doc["pullbacks"]["L"]}[kind]
        i = rng.randrange(len(field))
        if kind == "pullback":
            field[i][1] = (field[i][1] + d) % p
        else:
            field[i] = (field[i] + d) % p
        where = str(i)
    return json.dumps(doc, indent=2) + "\n", "%s%s+%d" % (kind, where, d)


class Forms(Workload):
    """multisignature(f) and multisignature(transfer(f)) in this process."""

    name = "forms"

    def setup(self):
        grid = FORM_GRID[:1] if self.smoke else FORM_GRID
        self.ops = []
        for p, k, rank in grid:
            for parity in (1, -1):
                for seed in FORM_SEEDS:
                    key = "%d,%d,%d,%+d,s%d" % (p, k, rank, parity, seed)
                    form = API.random_form(p, k, parity, rank, seed)
                    self.ops.append((key + ":ms", form, False))
                    self.ops.append((key + ":transfer", form, True))
        self.sigs = {}
        return self.ops[0]

    def run(self, op, tracer):
        form = API.transfer(op[1]) if op[2] else op[1]
        return API.multisignature(form)

    def check(self, op, sig, tracer):
        self.sigs.setdefault(op[0], (op[1].parity, sig))
        return self.gate(op[0], sha(json.dumps(sig.serialize())))

    def install_setup(self, tracer):
        tracer.wrap(API, "random_form", "lforms.random_form")

    def install(self, tracer):
        from charwit.scalars import CyclotomicNumber, CyclotomicReal
        from charwit.symfun import GradedPolynomial
        import tracer as tracing
        tracer.wrap(API, "multisignature", "lforms.multisignature",
                    lambda args, sig: {"rank": args[0].rank})
        tracer.wrap(API, "transfer", "lforms.transfer")
        tracing.install_method_sites(tracer, GradedPolynomial,
                                     CyclotomicNumber, CyclotomicReal)

    def oracle(self):
        failed = {}
        for key, (parity, sig) in self.sigs.items():
            if sig.conjugate() != parity * sig:
                failed[key] = "conj(sign) != parity * sign"
            if key.endswith(":ms"):
                base = key[:-3]
                moved = self.sigs.get(base + ":transfer")
                if moved is not None and API.restrict(sig) != moved[1]:
                    failed[base + ":transfer"] = failed[key] = \
                        "restrict(multisignature) != multisignature(transfer)"
        return failed

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


CLASSES = {"certify": Certify, "witness": Witness, "audit": Audit,
           "forms": Forms}


# ---------------------------------------------------------------------------
# measurement


def timed_passes(workload, rng, seconds, min_passes, clock, tracer=None):
    """Whole passes until `seconds` have elapsed and min_passes are done,
    with a host-speed sample before the first operation and after each."""
    records = []
    start = time.perf_counter()
    passes = 0
    clock.sample()
    while passes < min_passes or time.perf_counter() - start < seconds:
        order = list(workload.ops)
        rng.shuffle(order)
        for op in order:
            if tracer is not None:
                tracer.op = len(records)
            t = time.perf_counter()
            out = workload.run(op, tracer)
            latency = time.perf_counter() - t
            clock.sample()
            records.append([op[0], latency, workload.check(op, out, tracer),
                            None, t])
        passes += 1
    return records, time.perf_counter() - start, passes


def scale_records(records, clock):
    for record in records:
        record[3] = clock.scale(record[4], record[4] + record[1])


def scaled(record):
    """A record's latency at the reference host speed.

    A record is [operation, latency, error or None, host-speed scale,
    start time]."""
    return record[1] * record[3]


def unscaled(record):
    return record[1]


def latencies_by_op(records, value=scaled):
    out = {}
    for record in records:
        out.setdefault(record[0], []).append(value(record))
    return dict(sorted(out.items()))


def timing_metrics(records, value=scaled):
    """ops_per_s, op_p50_s and op_tail_s from each operation's median.

    The operations of a workload differ in cost by up to 30x and a run
    repeats each only a few times, so the figures come from each
    operation's median latency, every operation weighted once: ops_per_s
    is operations per second of a pass at those medians, op_p50_s their
    median and op_tail_s the largest (the slowest operation's median).
    """
    medians = {k: statistics.median(v)
               for k, v in latencies_by_op(records, value).items()}
    ordered = sorted(medians.values())
    slowest = max(medians, key=medians.get)
    return ({"ops_per_s": len(ordered) / sum(ordered),
             "op_p50_s": statistics.median(ordered),
             "op_tail_s": ordered[-1]}, slowest)


def environment(charwit, load_before, clock):
    import mpmath
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "charwit": charwit.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
            "host_ref_ms": {
                "median": 1000 * statistics.median(d for _, d in clock.samples),
                "min": 1000 * min(d for _, d in clock.samples),
                "max": 1000 * max(d for _, d in clock.samples),
                "nominal": 1000 * hostclock.REF_NOMINAL_S,
                "samples": len(clock.samples)},
            "note": NOTE}


def run_workload(args):
    load_before = os.getloadavg()
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK)
    clock = hostclock.HostClock()
    try:
        charwit = load_charwit()
        import_end = time.perf_counter()
        clock.sample()
        import tracer as tracing

        frozen = {}
        if os.path.exists(FROZEN):
            with open(FROZEN, encoding="utf-8") as handle:
                frozen = json.load(handle)
        workload = CLASSES[args.workload](args.seed, args.smoke, frozen, work)
        setup_tracer = tracing.Tracer()
        if args.trace:
            workload.install_setup(setup_tracer)
        reps, setup_error = [], None
        for _ in range(workload.setup_repeats):
            t = time.perf_counter()
            warm = workload.setup()
            setup_error = (setup_error or workload.setup_error
                           or workload.check(warm, workload.run(warm, None), None))
            reps.append((t, time.perf_counter() - t))
            clock.sample()
        setup_tracer.restore()
        workload.digests.clear()

        rng = random.Random("%d:order" % args.seed)
        min_passes = 1 if args.smoke else workload.min_passes
        reference = None
        if args.trace:
            tracer = tracing.Tracer()
            workload.install(tracer)
            records, wall, passes = timed_passes(workload, rng, args.seconds,
                                                 1, clock, tracer)
            tracer.restore()
            # the untraced reference pass comes second, so cold caches
            # count against the traced side
            ref_records = timed_passes(workload, rng, 0, 1, clock)[0]
            records_all = records + ref_records
        else:
            records, wall, passes = timed_passes(workload, rng, args.seconds,
                                                 min_passes, clock)
            records_all = records

        scale_records(records_all, clock)
        import_s = import_end - BENCH_START
        setup_raw = import_s + statistics.median(d for _, d in reps)
        setup_s = (import_s * clock.scale(BENCH_START, import_end)
                   + statistics.median(d * clock.scale(t, t + d)
                                       for t, d in reps))
        oracle_failures = workload.oracle()
        for record in records_all:
            if record[2] is None and record[0] in oracle_failures:
                record[2] = "oracle: " + oracle_failures[record[0]]
        failed = sum(1 for r in records_all if r[2] is not None)
        timings, slowest = timing_metrics(records)
        if args.trace:
            reference = timing_metrics(ref_records)[0]["ops_per_s"]
            values = tracing.layer_metrics(tracer.spans, len(records))
            values["lforms.random_form_s"] = sum(
                s[tracing.END] - s[tracing.START]
                for s in setup_tracer.spans) / workload.setup_repeats
            values["trace.overhead"] = timings["ops_per_s"] / reference
            metrics = {m: {"value": v, "unit": tracing.UNITS[m]}
                       for m, v in values.items()}
            os.makedirs(OUT, exist_ok=True)
            with open(os.path.join(OUT, "spans_%s_seed%d.json"
                                   % (args.workload, args.seed)), "w",
                      encoding="utf-8") as handle:
                json.dump(tracer.spans, handle)
        else:
            values = dict(timings, setup_s=setup_s,
                          peak_rss_mb=workload.peak_rss_mb())
            metrics = {m: {"value": v, "unit": END_TO_END[m]}
                       for m, v in values.items()}
        report = {
            "perfbench": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "passes": passes, "wall_s": wall,
            "ops": len(records), "failed_ratio": failed / len(records_all),
            "op_tail_op": slowest,
            "op_tail_samples": sum(1 for r in records if r[0] == slowest),
            "unscaled": dict(timing_metrics(records, unscaled)[0],
                             setup_s=setup_raw),
            "setup_reps_s": [d for _, d in reps],
            "untraced_ops_per_s": reference, "setup_error": setup_error,
            "errors": sorted({"%s: %s" % (r[0], r[2])
                              for r in records_all if r[2] is not None})[:20],
            "digests": dict(sorted(workload.digests.items())),
            "latencies": {k: [[round(r[1], 5), round(r[3], 5)]
                              for r in records if r[0] == k]
                          for k in sorted({r[0] for r in records})},
            "env": environment(charwit, load_before, clock),
        }
        if args.freeze:
            frozen[args.workload] = report["digests"]
            with open(FROZEN, "w", encoding="utf-8") as handle:
                json.dump(frozen, handle, indent=1, sort_keys=True)
                handle.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and setup_error is None,
                      "attempted": len(records_all), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own benchmark process; one table of metrics."""
    rows, ok = [], True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            raise SystemExit("perfbench: workload %s failed" % name)
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        ok = ok and result["correct"]
        for metric, entry in result["metrics"].items():
            rows.append((name, metric, entry["value"], entry["unit"]))
        rows.append((name, "failed_ratio", report["failed_ratio"], "fraction"))
        if not args.trace:
            rows.append((name, "op_tail_samples", report["op_tail_samples"],
                         "of " + report["op_tail_op"]))
        rows.append((name, "correct", int(result["correct"]), "bool"))
    for row in rows:
        print("%-8s %-34s %14.6g %s" % row)
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one problem or form cell per workload, one pass")
    parser.add_argument("--freeze", action="store_true",
                        help="store this run's digests in frozen_digests.json")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running child
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
