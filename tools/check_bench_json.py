#!/usr/bin/env python3
"""Validate the bench results file (`BENCH_results.json` / `GQL_BENCH_RESULTS`).

The harness appends one JSON object per benchmark row; CI runs this script
over both the committed results and a fresh smoke run, so a schema drift, a
missing acceptance row or a regressed optimizer metric breaks the build
rather than silently rotting in the repo.

Shape (flat array):

    [{"name": "group/bench/size",   # slash-separated benchmark id
      "mean_ns": int >= 0,          # mean wall clock (0 for metric rows)
      "samples": int >= 0,          # sample count (0 for metric rows)
      "rate": float,                # optional: derived metric value
      "rate_unit": str,             # optional: metric unit, e.g. "elem/s"
      "commit": str,                # commit the row was measured on
      "nproc": int >= 1},           # core count of the machine it ran on
     ...]

Usage:
    check_bench_json.py FILE [options]

    FILE                 results JSON ("-" reads stdin)
    --require PREFIX     assert at least one row's name starts with PREFIX
                         (repeatable)
    --max-rate PREFIX V  assert every row matching PREFIX has rate <= V
    --min-rate PREFIX V  assert every row matching PREFIX has rate >= V

A `--max-rate`/`--min-rate` flag also implies `--require PREFIX`: a
threshold over zero matching rows would pass vacuously and hide a renamed
or dropped acceptance row.

Exit status: 0 on success, 1 with a diagnostic on the first violation.
"""

import json
import sys

REQUIRED_KEYS = {"name", "mean_ns", "samples", "commit", "nproc"}
OPTIONAL_KEYS = {"rate", "rate_unit"}


def fail(msg):
    print(f"check_bench_json: {msg}", file=sys.stderr)
    sys.exit(1)


def check_row(row, i):
    if not isinstance(row, dict):
        fail(f"row {i}: expected object, got {type(row).__name__}")
    extra = set(row) - REQUIRED_KEYS - OPTIONAL_KEYS
    missing = REQUIRED_KEYS - set(row)
    if extra or missing:
        fail(f"row {i}: bad keys (missing {sorted(missing)}, extra {sorted(extra)})")
    name = row["name"]
    if not isinstance(name, str) or not name:
        fail(f"row {i}: name must be a non-empty string")
    if not isinstance(row["mean_ns"], int) or row["mean_ns"] < 0:
        fail(f"{name}: mean_ns must be a non-negative integer")
    if not isinstance(row["samples"], int) or row["samples"] < 0:
        fail(f"{name}: samples must be a non-negative integer")
    if not isinstance(row["commit"], str) or not row["commit"]:
        fail(f"{name}: commit must be a non-empty string")
    if not isinstance(row["nproc"], int) or row["nproc"] < 1:
        fail(f"{name}: nproc must be a positive integer")
    if ("rate" in row) != ("rate_unit" in row):
        fail(f"{name}: rate and rate_unit must appear together")
    if "rate" in row:
        if not isinstance(row["rate"], (int, float)) or row["rate"] < 0:
            fail(f"{name}: rate must be a non-negative number")
        if not isinstance(row["rate_unit"], str) or not row["rate_unit"]:
            fail(f"{name}: rate_unit must be a non-empty string")


def main(argv):
    args = argv[1:]
    if not args:
        fail("usage: check_bench_json.py FILE [--require P] [--max-rate P V] [--min-rate P V]")
    source = args.pop(0)
    required = []
    bounds = []  # (prefix, op, value)
    while args:
        flag = args.pop(0)
        if flag == "--require" and args:
            required.append(args.pop(0))
        elif flag in ("--max-rate", "--min-rate") and len(args) >= 2:
            prefix = args.pop(0)
            try:
                value = float(args.pop(0))
            except ValueError:
                fail(f"{flag} {prefix}: threshold must be a number")
            bounds.append((prefix, flag, value))
            required.append(prefix)
        else:
            fail(f"unknown or incomplete argument {flag!r}")

    text = sys.stdin.read() if source == "-" else open(source, encoding="utf-8").read()
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as e:
        fail(f"not valid JSON: {e}")
    if not isinstance(rows, list) or not rows:
        fail("top level must be a non-empty array of benchmark rows")
    names = set()
    for i, row in enumerate(rows):
        check_row(row, i)
        if row["name"] in names:
            fail(f"duplicate row name: {row['name']}")
        names.add(row["name"])

    for prefix in required:
        if not any(n.startswith(prefix) for n in names):
            fail(f"no row matches required prefix {prefix!r}")
    checked = 0
    for prefix, flag, value in bounds:
        for row in rows:
            if not row["name"].startswith(prefix):
                continue
            if "rate" not in row:
                fail(f"{row['name']}: {flag} needs a rate, row has none")
            rate = row["rate"]
            if flag == "--max-rate" and rate > value:
                fail(f"{row['name']}: rate {rate:g} exceeds maximum {value:g}")
            if flag == "--min-rate" and rate < value:
                fail(f"{row['name']}: rate {rate:g} below minimum {value:g}")
            checked += 1

    print(f"ok: {len(rows)} rows, {checked} threshold check(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
