#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload in BENCHMARK.json at a tiny size, untraced and traced,
and checks that:
  * the untraced run prints every end-to-end metric, with its unit, both on
    a report line and in the final JSON line;
  * no op failed (failed_op_share is 0) and the results replayed correctly;
  * the traced run prints every per-layer metric with its unit.

Usage (from the repository root): python3 perfbench/smoke_test.py
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", "1", "--seconds", "1", "--trace",
               str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def check_run(workload, trace, expected, problems):
    code, out, err = run(workload, trace)
    tag = "%s trace=%d" % (workload, trace)
    if code != 0:
        problems.append("%s: exit %d: %s" % (tag, code, err[-500:]))
        return
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s: unexpected result keys %s" % (tag, sorted(result)))
    if result["attempted"] < 1 or result["failed"] != 0:
        problems.append("%s: attempted=%s failed=%s" %
                        (tag, result["attempted"], result["failed"]))
    if not result["correct"]:
        problems.append("%s: result mismatches: %s" % (
            tag, [l for l in lines if l.startswith("mismatch")]))
    if not any(l.startswith("check failed_op_share 0 ") for l in lines):
        problems.append("%s: failed_op_share is not 0" % tag)
    reported = {}
    for line in lines:
        if line.startswith("metric "):
            parts = line.split()
            reported[parts[1]] = parts[3]
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        if got is None or got.get("unit") != unit:
            problems.append("%s: %s missing from the result or unit != %s" %
                            (tag, name, unit))
        elif not isinstance(got.get("value"), (int, float)):
            problems.append("%s: %s has no numeric value" % (tag, name))
        if reported.get(name) != unit:
            problems.append("%s: no report line for %s [%s]" % (tag, name, unit))
    extra = set(result["metrics"]) - {m["name"] for m in expected}
    if extra:
        problems.append("%s: unexpected metrics %s" % (tag, sorted(extra)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        check_run(workload["name"], 0, spec["end_to_end"], problems)
        check_run(workload["name"], 1, spec["per_layer"], problems)
        print("checked %s" % workload["name"], flush=True)
    for p in problems:
        print("FAIL " + p)
    print("smoke test %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
