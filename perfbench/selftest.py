"""Self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload once untraced and once traced with --seconds 1 and
checks that
  * each run exits 0 and ends with one JSON object with exactly the keys
    correct, attempted, failed and metrics;
  * the metric names and units are exactly those of BENCHMARK.json
    (end_to_end untraced, per_layer traced);
  * every answer of every in-theorem slice is right (failed == 0);
and that the benchmark refuses to run, without a result, in a directory that
holds only BENCHMARK.json and perfbench/.  Takes about three minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(root, workload, trace):
    argv = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=300)


def check_result(bench, workload, trace, proc):
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        return ["%s: exit %d\n%s" % (where, proc.returncode, proc.stderr[-2000:])]
    res = json.loads(proc.stdout.splitlines()[-1])
    errors = []
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (where, sorted(res)))
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if got != want:
        errors.append("%s: metrics differ from BENCHMARK.json: %s" % (where, sorted(set(got.items()) ^ set(want.items()))))
    if not all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()):
        errors.append("%s: a metric value is not a number" % where)
    if res["failed"] or not res["correct"] or res["attempted"] < 1:
        errors.append("%s: correct=%s attempted=%d failed=%d" % (where, res["correct"], res["attempted"], res["failed"]))
    return errors


def check_bare():
    """Without the sources the benchmark must fail and print no result."""
    bare = os.path.join(HERE, ".work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(bare, "dnum_batch", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["bare directory: exit %d, stdout %r" % (proc.returncode, proc.stdout[-200:])]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    errors = check_bare()
    for w in bench["workloads"]:
        for trace in (0, 1):
            errs = check_result(bench, w["name"], trace, run(ROOT, w["name"], trace))
            print("%-14s trace=%d %s" % (w["name"], trace, "ok" if not errs else "FAIL"), flush=True)
            errors += errs
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
