"""Smoke self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload at smoke size (one problem or one form cell, one pass)
with tracing off and on, and checks that each run is correct and reports
exactly the metrics BENCHMARK.json names, plus the report fields the doc
promises.  Also checks that verify rejects all six audit mutations, with a
named check and no traceback.  Exits non-zero on the first failure.
"""

import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import run  # noqa: E402  (perfbench/ is on sys.path as the script directory)
import tracer  # noqa: E402


def bench(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_mutations():
    charwit = run.load_charwit()
    cert = charwit.run_pipeline(charwit.parse_polynomial("e^2 - p2^2", 4), 4, 1)[0]
    text = charwit.certificate_to_json(cert)
    rng = random.Random(0)
    os.makedirs(run.WORK, exist_ok=True)
    path = os.path.join(run.WORK, "selftest_mutant.json")
    try:
        for kind in run.MUTATIONS:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(run.mutate(text, kind, rng)[0])
            proc = subprocess.run([sys.executable, "-m", "charwit", "verify", path],
                                  env=dict(os.environ, PYTHONPATH=run.SRC),
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode in (1, 2), (kind, proc.returncode)
            assert run.NAMED_CHECK.match(proc.stderr), (kind, proc.stderr)
            assert run.TRACEBACK not in proc.stderr, kind
    finally:
        if os.path.exists(path):
            os.remove(path)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(w["name"] for w in spec["workloads"]) <= set(run.WORKLOADS)
    assert per_layer == tracer.UNITS, "BENCHMARK.json per_layer != tracer.UNITS"
    assert end_to_end == run.END_TO_END

    check_mutations()
    print("mutations: all six rejected with a named check")
    for workload in run.WORKLOADS:
        for trace, names in ((0, end_to_end), (1, per_layer)):
            report, result = bench(workload, trace)
            assert result["correct"] and result["failed"] == 0, (workload, report["errors"])
            assert result["attempted"] >= 1
            units = {m: v["unit"] for m, v in result["metrics"].items()}
            assert units == names, (workload, trace, set(units) ^ set(names))
            for key in ("failed_ratio", "op_tail_op", "op_tail_samples",
                        "unscaled", "digests", "env"):
                assert key in report, (workload, key)
            assert report["digests"], workload
            print("%-8s trace=%d ok (%d ops)" % (workload, trace,
                                                 result["attempted"]))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
