#!/usr/bin/env python3
"""Exact cell diff of two bench `--out` directories.

Walks both directories, pairs files by their path relative to the
directory, and compares them cell by cell. CSV rows and the records of a
JSON record file are matched by (artifact, series, kind, spec_index, rep);
any other JSON file (a manifest) is compared whole. For every matched row
it prints each differing column as `old -> new`. A cell must be equal as
written: a CSV cell as text, a JSON value with its type.

Exit status 1 when a column outside --allow differs, or when a file or a
row is present on one side only; 0 otherwise. Differences in allowed
columns are still printed, so the output doubles as the table of a
declared re-pin.

Usage:
  diff_results.py OLD_DIR NEW_DIR [--allow COL ...]

Example: approve a change that may move only recovery_ms across every
smoke run:
  diff_results.py parent/build/smoke build/smoke --allow recovery_ms
"""

import argparse
import csv
import json
import os
import sys

KEY = ("artifact", "series", "kind", "spec_index", "rep")
MISSING = object()  # a column one row lacks


def result_files(root):
    """Relative paths of every .csv and .json file under root."""
    found = set()
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            if name.endswith((".csv", ".json")):
                found.add(os.path.relpath(os.path.join(dirpath, name), root))
    return found


def load_rows(path):
    """{key: row} for a CSV or JSON record file; None for any other JSON.

    A key seen twice gets its occurrence number appended, so no row is
    silently dropped.
    """
    if path.endswith(".csv"):
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
    else:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        if not isinstance(doc, dict) or not isinstance(doc.get("records"),
                                                        list):
            return None
        rows = doc["records"]
    keyed = {}
    for row in rows:
        key = tuple(str(row.get(k, "")) for k in KEY)
        seen = 0
        while key + ((seen,) if seen else ()) in keyed:
            seen += 1
        keyed[key + ((seen,) if seen else ())] = row
    return keyed


def same(a, b):
    return type(a) is type(b) and a == b


def show(value):
    return value if isinstance(value, str) else json.dumps(value)


def diff_file(old_path, new_path, rel, allow, report):
    """Compare one file pair; append findings to report."""
    old_rows = load_rows(old_path)
    new_rows = load_rows(new_path)
    if old_rows is None or new_rows is None:
        with open(old_path, encoding="utf-8") as f:
            old_doc = json.load(f)
        with open(new_path, encoding="utf-8") as f:
            new_doc = json.load(f)
        if old_doc != new_doc:
            report["errors"].append(f"{rel}: contents differ")
        return
    for key in sorted(old_rows.keys() | new_rows.keys()):
        label = f"{rel} [{'|'.join(str(k) for k in key)}]"
        if key not in new_rows:
            report["errors"].append(f"{label}: row missing in new")
            continue
        if key not in old_rows:
            report["errors"].append(f"{label}: row missing in old")
            continue
        report["rows"] += 1
        old_row, new_row = old_rows[key], new_rows[key]
        for col in list(old_row) + [c for c in new_row if c not in old_row]:
            a = old_row.get(col, MISSING)
            b = new_row.get(col, MISSING)
            if a is not MISSING and b is not MISSING and same(a, b):
                continue
            old_text = "(absent)" if a is MISSING else show(a)
            new_text = "(absent)" if b is MISSING else show(b)
            line = f"{label} {col}: {old_text} -> {new_text}"
            if col in allow:
                report["allowed"].append(line)
            else:
                report["errors"].append(line)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Exact cell diff of two bench --out directories.")
    parser.add_argument("old_dir")
    parser.add_argument("new_dir")
    parser.add_argument("--allow", nargs="*", default=[], metavar="COL",
                        help="columns that may differ")
    args = parser.parse_args(argv)
    for d in (args.old_dir, args.new_dir):
        if not os.path.isdir(d):
            parser.error(f"not a directory: {d}")

    report = {"rows": 0, "allowed": [], "errors": []}
    old_files = result_files(args.old_dir)
    new_files = result_files(args.new_dir)
    for rel in sorted(old_files | new_files):
        if rel not in new_files:
            report["errors"].append(f"{rel}: file missing in new")
        elif rel not in old_files:
            report["errors"].append(f"{rel}: file missing in old")
        else:
            diff_file(os.path.join(args.old_dir, rel),
                      os.path.join(args.new_dir, rel), rel, set(args.allow),
                      report)

    for line in report["allowed"]:
        print(f"allowed: {line}")
    for line in report["errors"]:
        print(f"error: {line}")
    print(f"{len(old_files & new_files)} file(s), {report['rows']} row(s) "
          f"compared: {len(report['allowed'])} allowed difference(s), "
          f"{len(report['errors'])} error(s)")
    return 1 if report["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
