#!/usr/bin/env python3
"""Diff a fresh verdict JSON against its checked-in golden file.

Usage:
  diff_golden.py GOLDEN FRESH

Both files hold {"results": [...]} rows keyed by (mechanism, problem, metric). Every
key present in either file must carry the same value in both; each difference is
printed as a REGRESSION line. The blocking verdict jobs (static, DPOR, chaos) run this
against tests/golden/{static_verdicts,dpor_verdicts,chaos_calibration}.json.

Exit status: 0 = identical rows, 1 = any difference (or an unreadable file).
"""

import json
import sys


def rows(path):
    with open(path) as f:
        doc = json.load(f)
    return {(r["mechanism"], r["problem"], r["metric"]): r["value"]
            for r in doc["results"]}


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 1
    golden_path, fresh_path = argv[1], argv[2]
    golden = rows(golden_path)
    fresh = rows(fresh_path)
    ok = True
    for key in sorted(golden.keys() | fresh.keys()):
        g, f = golden.get(key), fresh.get(key)
        if g != f:
            print(f"REGRESSION {key}: golden={g} fresh={f}", file=sys.stderr)
            ok = False
    if ok:
        print(f"{len(fresh)} rows match {golden_path}")
    else:
        print(f"rows differ from {golden_path}; if intentional, regenerate "
              f"{golden_path}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
