#!/usr/bin/env python3
"""The syneval benchmark: one command for the four workloads.

    python3 perfbench/run.py --workload sweep|dpor|chaos|ops --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the library and the measuring binary from
source into .bench_build/ (Release), runs one workload, checks every verdict — the
binary's own gates plus tests/golden/dpor_verdicts.json for dpor — and prints, as its last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 the per-layer
ones, and the spans of the traced run go to .bench_build/spans-<workload>-<seed>.json.

A wrong verdict counts as a failed operation and makes the command exit 1. A build or
run that cannot produce a result exits 2 without printing one.

perfbench/README.md describes the workloads, the metrics and which layer moves which
end-to-end number; perfbench/selftest.py checks the benchmark itself.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "syneval_perfbench")
GOLDEN = os.path.join(ROOT, "tests", "golden")
WORKLOADS = ("sweep", "dpor", "chaos", "ops")
RUN_LIMIT_S = 175  # The whole command must end within 180 s of a built checkout.


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds (incrementally); the build output goes to stderr."""
    commands = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", "4"]]
    for command in commands:
        result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log("perfbench: build failed: " + " ".join(command))
            return False
    return os.path.exists(BINARY)


def load_golden(name):
    with open(os.path.join(GOLDEN, name)) as handle:
        results = json.load(handle)["results"]
    return results


def check_dpor(cells, golden_results):
    """Compares DPOR verdicts and execution counts with dpor_verdicts.json."""
    golden = {row["metric"]: row["value"] for row in golden_results}
    failures = []
    for cell in cells:
        suffix = "/" + cell["display"]
        expected = {
            "dpor_proved": 1 if cell["verdict"] == "proved_deadlock_free" else 0,
            "dpor_counterexample": 1 if cell["verdict"] == "counterexample" else 0,
            "dpor_executions": cell["executions"],
        }
        if cell["seeded_bug"]:
            expected["dpor_replay_confirmed"] = 1 if cell["confirmed"] else 0
        else:
            expected["dpor_naive_executions"] = cell["naive_executions"]
        wrong = [key for key, value in expected.items() if golden.get(key + suffix) != value]
        if wrong:
            failures.append("dpor golden %s: %s differ" % (cell["display"], ", ".join(wrong)))
    return len(cells), failures


def golden_checks(raw):
    if "dpor_cells" not in raw:
        return 0, []
    return check_dpor(raw["dpor_cells"], load_golden("dpor_verdicts.json"))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    # Self-test knobs (perfbench/selftest.py).
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    start = time.monotonic()
    if not build():
        return 2
    command = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%g" % args.seconds, "--trace=" + args.trace]
    if args.trace == "1":
        command.append("--span-out=" + os.path.join(
            BUILD, "spans-%s-%d.json" % (args.workload, args.seed)))
    for flag in ("tiny", "corrupt"):
        if getattr(args, flag):
            command.append("--" + flag)
    budget = max(30.0, RUN_LIMIT_S - (time.monotonic() - start))
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                                text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %.0f s" % (args.workload, budget))
        return 2
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        log("perfbench: measuring binary failed with exit code %d" % result.returncode)
        return 2
    for line in lines[:-1]:
        log(line)
    raw = json.loads(lines[-1])

    attempted = raw["attempted"]
    failures = list(raw["failures"])
    failed = raw["failed"]
    golden_attempted, golden_failures = golden_checks(raw)
    attempted += golden_attempted
    failed += len(golden_failures)
    failures += golden_failures

    metrics = raw["metrics"]
    for name, metric in metrics.items():
        print("%-52s %16.6g %s" % (name, metric["value"], metric["unit"]))
    if "item_us_p99" in metrics:
        print("item percentiles: median over %d pass(es) of each pass's percentile, "
              "%d item times in all" % (raw["passes"], raw["item_samples"]))
    for failure in failures:
        print("WRONG VERDICT: " + failure)
    print("verdicts: %d attempted, %d failed" % (attempted, failed))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
