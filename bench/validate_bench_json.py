#!/usr/bin/env python3
"""Validate bench --json documents and --trace Perfetto exports.

Usage:
  validate_bench_json.py FILE...

Each file picks its checks from its own content:
  * A document with a "traceEvents" key is a Chrome/Perfetto trace (a bench's
    --trace=PATH output): the list must be non-empty.
  * Any other document is a bench result. It must carry the schema-5 envelope
    (schema_version 5 and a "bench" name) and a non-empty "results" list whose rows
    all have bench, mechanism, problem, metric, value and unit, with a numeric value.
    Then:
      - bench == "chaos_sweep": the journal counters (when a journal is present), the
        postmortem entry fields, and the lost-signal recall gate: every gated problem's
        lost-signal row with harmful runs must have recall 1.0;
      - a "workers" array, or bench == "sweep_scaling": every worker entry has the
        worker fields, and sweep_scaling reports at least one worker.

Exit status: 0 = every file passes, 1 = any file fails (or cannot be read).
"""

import json
import sys

REQUIRED = {"bench", "mechanism", "problem", "metric", "value", "unit"}
WORKER_REQUIRED = {"worker", "trials", "chunks", "steals", "cached", "wall_seconds"}
JOURNAL_REQUIRED = {"appends", "compactions", "replayed"}
POSTMORTEM_REQUIRED = {"mechanism", "problem", "seed", "cause", "text"}
# The problem families whose lost-signal recall the chaos calibration gates on.
GATED_PROBLEMS = {"bounded-buffer", "one-slot-buffer", "rw-readers-priority",
                  "fcfs-resource", "disk-scan", "alarm-clock"}


def check_trace(path, doc, errors):
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        errors.append("no traceEvents")
        return
    print(f"{path}: {len(events)} trace events ok")


def check_rows(doc, errors):
    """Checks the result rows; returns {(mechanism, problem, metric): value}."""
    rows = {}
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        errors.append("empty results")
        return rows
    for i, row in enumerate(results):
        missing = REQUIRED - row.keys()
        if missing:
            errors.append(f"row {i}: missing {sorted(missing)}")
        elif not isinstance(row["value"], (int, float)):
            errors.append(f"row {i}: non-numeric value")
        else:
            rows[(row["mechanism"], row["problem"], row["metric"])] = row["value"]
    return rows


def check_chaos(doc, rows, errors):
    if "journal" in doc:
        missing = JOURNAL_REQUIRED - doc["journal"].keys()
        if missing:
            errors.append(f"journal: missing {sorted(missing)}")
    postmortems = doc.get("postmortem", [])
    for i, entry in enumerate(postmortems):
        missing = POSTMORTEM_REQUIRED - entry.keys()
        if missing:
            errors.append(f"postmortem {i}: missing {sorted(missing)}")
    for (mechanism, problem, metric), value in sorted(rows.items()):
        if problem not in GATED_PROBLEMS or metric != "lost-signal_recall":
            continue
        harmful = rows.get((mechanism, problem, "lost-signal_harmful"), 0)
        if harmful > 0 and value < 1.0:
            errors.append(f"{mechanism}/{problem}: lost-signal recall {value} < 1.0")
    print(f"{len(postmortems)} postmortem entries, {len(rows)} calibration rows checked")


def check_workers(doc, errors):
    workers = doc.get("workers", [])
    for i, worker in enumerate(workers):
        missing = WORKER_REQUIRED - worker.keys()
        if missing:
            errors.append(f"worker {i}: missing {sorted(missing)}")
    if doc.get("bench") == "sweep_scaling" and not workers:
        errors.append("no worker telemetry")


def validate(path):
    """Returns the list of problems found in `path` (empty when it passes)."""
    errors = []
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return [f"unreadable: {e}"]
    if not isinstance(doc, dict):
        return ["not a JSON object"]
    if "traceEvents" in doc:
        check_trace(path, doc, errors)
        return errors
    if doc.get("schema_version") != 5 or "bench" not in doc:
        return ["bad envelope"]
    rows = check_rows(doc, errors)
    if doc["bench"] == "chaos_sweep":
        check_chaos(doc, rows, errors)
    if "workers" in doc or doc["bench"] == "sweep_scaling":
        check_workers(doc, errors)
    if not errors:
        print(f"{path}: {len(rows)} rows, {len(doc.get('workers', []))} worker shards ok")
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 1
    ok = True
    for path in argv[1:]:
        for error in validate(path):
            print(f"{path}: {error}", file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
