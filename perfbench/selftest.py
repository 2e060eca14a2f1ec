#!/usr/bin/env python3
"""Self-test of the syneval benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout; it takes about a minute. It checks that:
- every workload, run at a tiny size, prints every end-to-end metric of BENCHMARK.json
  with its unit;
- a full-size traced run prints every per-layer metric with its unit;
- a deliberately wrong expected verdict (--corrupt) fails every workload's gate;
- the DPOR golden-file comparison rejects a changed row;
- the command fails without printing a result in a directory that holds only
  BENCHMARK.json and perfbench/.
Exits 1 on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def bench(workload, trace="0", extra=(), cwd=ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", trace] + list(extra)
    result = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = result.stdout.strip().splitlines()
    return result.returncode, (json.loads(lines[-1]) if lines else None)


def expect(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)
    print("ok: " + message)


def check_metrics(result, spec_metrics, what):
    expected = {metric["name"]: metric["unit"] for metric in spec_metrics}
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    expect(printed == expected, "%s prints exactly its %d metrics with their units"
           % (what, len(expected)))
    expect(all(isinstance(metric["value"], (int, float))
               for metric in result["metrics"].values()), what + " values are numbers")


def golden_row_checks():
    dpor = run.load_golden("dpor_verdicts.json")
    golden = {row["metric"]: row["value"] for row in dpor}
    display = "Ordered-fork dining (2 seats)"
    cell = {"display": display, "seeded_bug": False, "verdict": "proved_deadlock_free",
            "executions": golden["dpor_executions/" + display],
            "naive_executions": golden["dpor_naive_executions/" + display], "confirmed": False}
    expect(run.check_dpor([cell], dpor) == (1, []), "dpor golden gate accepts a golden row")
    expect(len(run.check_dpor([dict(cell, executions=cell["executions"] + 1)], dpor)[1]) == 1,
           "dpor golden gate rejects a changed execution count")


def bare_directory_check():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = bench("sweep", cwd=bare)
    expect(code != 0 and result is None,
           "fails without a result where only BENCHMARK.json and perfbench/ exist")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    names = [workload["name"] for workload in SPEC["workloads"]]
    expect(set(names) <= set(run.WORKLOADS), "BENCHMARK.json names only workloads run.py has")
    # dpor is not among BENCHMARK.json's workloads (see README.md) but stays runnable.
    for workload in run.WORKLOADS:
        code, result = bench(workload, extra=["--tiny"])
        expect(code == 0 and result is not None and result["correct"] and
               result["failed"] == 0 and result["attempted"] >= 1,
               "%s: tiny run is correct" % workload)
        check_metrics(result, SPEC["end_to_end"], workload)
        code, result = bench(workload, extra=["--tiny", "--corrupt"])
        expect(code != 0 and result is not None and not result["correct"] and
               result["failed"] >= 1,
               "%s: a wrong expected verdict fails the correctness gate" % workload)
    # Full size: a tiny traced run explores only the quick DPOR cells.
    code, result = bench("ops", trace="1")
    expect(code == 0 and result is not None and result["correct"], "traced run is correct")
    check_metrics(result, SPEC["per_layer"], "traced run")
    golden_row_checks()
    bare_directory_check()
    print("selftest passed")


if __name__ == "__main__":
    main()
