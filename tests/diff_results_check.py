#!/usr/bin/env python3
"""Check tools/diff_results.py on small generated result directories.

Three cases: a directory diffed against itself passes; a copy with one
edited cell fails, naming that column and row; the same copy passes when
that column is allowed.

Usage: diff_results_check.py TOOL SCRATCH_DIR
"""

import csv
import json
import os
import shutil
import subprocess
import sys

COLUMNS = ["bench", "artifact", "series", "kind", "spec_index", "rep",
           "throughput_tps", "recovery_ms"]


def write_results(out_dir, rows):
    os.makedirs(out_dir)
    with open(os.path.join(out_dir, "fig.csv"), "w", newline="",
              encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    with open(os.path.join(out_dir, "fig.json"), "w", encoding="utf-8") as f:
        json.dump({"schema": "bamboo.report/v1", "records": rows}, f)


def run(tool, old, new, *allow):
    args = [sys.executable, tool, old, new]
    if allow:
        args += ["--allow", *allow]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    tool, scratch = sys.argv[1:]
    shutil.rmtree(scratch, ignore_errors=True)
    rows = [
        {"bench": "fig", "artifact": "fig", "series": s, "kind": "run",
         "spec_index": str(i), "rep": "0", "throughput_tps": str(1000 + i),
         "recovery_ms": "5"}
        for i, s in enumerate(["HS", "2CHS"])
    ]
    old = os.path.join(scratch, "old")
    write_results(old, rows)
    edited = [dict(r) for r in rows]
    edited[1]["recovery_ms"] = "4.25"
    new = os.path.join(scratch, "new")
    write_results(new, edited)

    failures = []
    status, out = run(tool, old, old)
    if status != 0:
        failures.append(f"a directory against itself must pass:\n{out}")
    status, out = run(tool, old, new)
    if status != 1 or "error: fig.csv [fig|2CHS|run|1|0] recovery_ms: " \
            "5 -> 4.25" not in out or "error: fig.json [fig|2CHS|run|1|0] " \
            "recovery_ms: 5 -> 4.25" not in out or "HS|run|0" in out:
        failures.append(f"an edited cell must fail, naming it:\n{out}")
    status, out = run(tool, old, new, "recovery_ms")
    if status != 0 or "allowed: fig.csv [fig|2CHS|run|1|0] recovery_ms" \
            not in out:
        failures.append(f"an allowed column must pass:\n{out}")
    for failure in failures:
        print(f"diff_results_check: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("diff_results_check OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
