#!/usr/bin/env python3
"""Tests for bench/validate_bench_json.py.

Run directly (python3 tests/validate_bench_json_test.py) or via ctest. The committed
chaos calibration golden must pass; copies with a wrong schema version, a row missing
its unit, or a gated lost-signal recall below 1.0 must fail, and so must a trace with
no events.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO, "bench", "validate_bench_json.py")
CHAOS_GOLDEN = os.path.join(REPO, "tests", "golden", "chaos_calibration.json")


def run_validate(*paths):
    proc = subprocess.run([sys.executable, SCRIPT, *paths], capture_output=True,
                          text=True)
    return proc.returncode, proc.stdout + proc.stderr


def load_golden():
    with open(CHAOS_GOLDEN) as f:
        return json.load(f)


def write(tmp, name, doc):
    path = os.path.join(tmp, name)
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


def gated_recall_row(doc):
    """A gated lost-signal recall row whose cell had harmful runs."""
    values = {(r["mechanism"], r["problem"], r["metric"]): r["value"]
              for r in doc["results"]}
    for row in doc["results"]:
        if (row["metric"] == "lost-signal_recall" and row["problem"] == "bounded-buffer"
                and values.get((row["mechanism"], row["problem"],
                                "lost-signal_harmful"), 0) > 0):
            return row
    raise AssertionError("golden has no harmful bounded-buffer lost-signal row")


class ValidateBenchJsonTest(unittest.TestCase):
    def test_chaos_golden_passes(self):
        code, out = run_validate(CHAOS_GOLDEN)
        self.assertEqual(code, 0, out)
        self.assertIn("calibration rows checked", out)

    def test_old_schema_version_fails(self):
        doc = load_golden()
        doc["schema_version"] = 4
        with tempfile.TemporaryDirectory() as tmp:
            code, out = run_validate(write(tmp, "chaos.json", doc))
        self.assertEqual(code, 1, out)
        self.assertIn("bad envelope", out)

    def test_row_missing_unit_fails(self):
        doc = load_golden()
        del doc["results"][0]["unit"]
        with tempfile.TemporaryDirectory() as tmp:
            code, out = run_validate(write(tmp, "chaos.json", doc))
        self.assertEqual(code, 1, out)
        self.assertIn("missing ['unit']", out)

    def test_gated_recall_below_one_fails(self):
        doc = load_golden()
        gated_recall_row(doc)["value"] = 0.5
        with tempfile.TemporaryDirectory() as tmp:
            code, out = run_validate(write(tmp, "chaos.json", doc))
        self.assertEqual(code, 1, out)
        self.assertIn("lost-signal recall 0.5 < 1.0", out)

    def test_empty_trace_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            code, out = run_validate(write(tmp, "trace.json", {"traceEvents": []}))
        self.assertEqual(code, 1, out)
        self.assertIn("no traceEvents", out)

    def test_one_bad_file_fails_the_run(self):
        with tempfile.TemporaryDirectory() as tmp:
            trace = write(tmp, "trace.json", {"traceEvents": [{"ph": "M"}]})
            empty = write(tmp, "empty.json", {"traceEvents": []})
            self.assertEqual(run_validate(CHAOS_GOLDEN, trace)[0], 0)
            self.assertEqual(run_validate(CHAOS_GOLDEN, trace, empty)[0], 1)


if __name__ == "__main__":
    unittest.main()
