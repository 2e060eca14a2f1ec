#!/usr/bin/env python3
"""Tests for bench/diff_golden.py over the committed golden files.

Run directly (python3 tests/diff_golden_test.py) or via ctest. Each golden must match
itself, and a copy with one value changed or one row dropped must fail the diff.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO, "bench", "diff_golden.py")
GOLDENS = [os.path.join(REPO, "tests", "golden", name)
           for name in ("static_verdicts.json", "dpor_verdicts.json",
                        "chaos_calibration.json")]


def run_diff(golden, fresh):
    proc = subprocess.run([sys.executable, SCRIPT, golden, fresh],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def write_variant(tmp, golden, mutate):
    with open(golden) as f:
        doc = json.load(f)
    variant = copy.deepcopy(doc)
    mutate(variant["results"])
    path = os.path.join(tmp, os.path.basename(golden))
    with open(path, "w") as f:
        json.dump(variant, f)
    return path


def change_first_value(results):
    results[0]["value"] += 1


def drop_last_row(results):
    results.pop()


class DiffGoldenTest(unittest.TestCase):
    def test_golden_matches_itself(self):
        for golden in GOLDENS:
            code, out = run_diff(golden, golden)
            self.assertEqual(code, 0, out)
            self.assertIn("rows match", out)

    def test_changed_value_fails(self):
        for golden in GOLDENS:
            with tempfile.TemporaryDirectory() as tmp:
                code, out = run_diff(golden, write_variant(tmp, golden, change_first_value))
                self.assertEqual(code, 1, out)
                self.assertIn("REGRESSION", out)

    def test_dropped_row_fails(self):
        for golden in GOLDENS:
            with tempfile.TemporaryDirectory() as tmp:
                code, out = run_diff(golden, write_variant(tmp, golden, drop_last_row))
                self.assertEqual(code, 1, out)
                self.assertIn("fresh=None", out)


if __name__ == "__main__":
    unittest.main()
