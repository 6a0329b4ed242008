#!/usr/bin/env python3
"""Perf-regression gate over bench_micro's gated cases.

GATED below lists the gated cases once. The recording of a committed
BENCH_<n>.json, the CI perf job and the smoke_perf_gate ctest all select
them with the filter this script prints:

    ./build/bench_micro \\
        --benchmark_filter="$(python3 tools/check_perf.py --filter)" \\
        --benchmark_repetitions=5 \\
        --benchmark_out=BENCH_<n>.json --benchmark_out_format=json

Machines differ, so raw times are not compared directly. Per case the gate
takes the median cpu_time over the run's repetitions and divides the
median of BM_Calibration (a fixed integer loop that scales with
single-core speed) by it: a rate in units of the machine's speed. A case
fails when that normalized rate drops below 1 - tolerance (default 0.25)
of the best normalized rate any reference holds for it (by default every
committed BENCH_<n>.json except the candidate), when it is missing from
the candidate, or when it reported an error (a whole run that violated
safety, a valid certificate that was rejected). Each case's coefficient
of variation across the repetitions is printed as its spread.

Usage:
  check_perf.py --filter
  check_perf.py --candidate NEW.json [--reference OLD.json ...]
                [--tolerance F]
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys

CALIBRATION = "BM_Calibration"
# One bench_micro case per gated metric; CALIBRATION is the normalizer.
GATED = [
    CALIBRATION,
    "BM_EventQueueChurn",
    "BM_Broadcast/0",
    "BM_Broadcast/1",
    "BM_LinkDelaySampling/0",
    "BM_BlockComputeWireSize/400",
    "BM_CertificateChecks",
    "BM_ChurnDispatch",
    "BM_FileStoreAppend/80",
    "BM_ClusterStoreAppend/80",
    "BM_WholeRun/hotstuff",
    "BM_WholeRun/2chs",
    "BM_WholeRun/streamlet",
    "BM_WholeRun/wan_churn",
    "BM_WholeRun/chain_sync",
    "BM_WholeRun/cpu_bound",
    "BM_WholeRun/openloop_saturated",
]
BENCH_NAME_RE = re.compile(r"BENCH_(\d+)\.json$")
SECONDS_PER_UNIT = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def filter_regex():
    return "^(" + "|".join(re.escape(name) for name in GATED) + ")$"


def read_runs(path):
    """{case: (cpu seconds per repetition, error messages)} for the gated
    cases in a google-benchmark JSON file; aggregate rows are ignored."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    runs = {}
    for b in doc.get("benchmarks", []):
        name = b.get("run_name", b.get("name"))
        if name not in GATED or b.get("run_type", "iteration") != "iteration":
            continue
        times, errors = runs.setdefault(name, ([], []))
        unit = SECONDS_PER_UNIT.get(b.get("time_unit", "ns"))
        cpu = b.get("cpu_time")
        if b.get("error_occurred"):
            errors.append(b.get("error_message", "error"))
        elif unit is None or not isinstance(cpu, (int, float)) or cpu <= 0:
            errors.append(f"cpu_time {cpu!r} {b.get('time_unit')!r}")
        else:
            times.append(cpu * unit)
    return runs


def summarize(runs):
    """{case: (normalized rate, coefficient of variation or None)} for the
    cases that ran without an error."""
    cal_times = runs.get(CALIBRATION, ([], []))[0]
    if not cal_times:
        return {}
    cal = statistics.median(cal_times)
    return {
        name: (cal / statistics.median(times),
               statistics.stdev(times) / statistics.mean(times)
               if len(times) > 1 else None)
        for name, (times, errors) in runs.items() if times and not errors
    }


def committed_references(root, exclude):
    return sorted(
        path for path in glob.glob(os.path.join(root, "BENCH_*.json"))
        if BENCH_NAME_RE.search(os.path.basename(path))
        and os.path.abspath(path) != os.path.abspath(exclude))


def compare(candidate, references, tolerance):
    """Prints one line per gated case; returns the regressions."""
    best = {}
    for path in references:
        for name, (rate, _) in summarize(read_runs(path)).items():
            if name not in best or rate > best[name][0]:
                best[name] = (rate, os.path.basename(path))
    regressions = []
    for name in GATED[1:]:
        rate, cv = candidate[name]
        spread = "n/a" if cv is None else f"{100 * cv:.1f}%"
        if name not in best:
            print(f"  {name}: {rate:.4g}, cv {spread}, no reference")
            continue
        ref, where = best[name]
        ratio = rate / ref
        status = "ok"
        if ratio < 1.0 - tolerance:
            status = "REGRESSION"
            regressions.append(
                f"{name}: normalized rate {rate:.4g} is x{ratio:.3f} of the "
                f"best {ref:.4g} ({where}), below {1.0 - tolerance:.3f}")
        print(f"  {name}: {rate:.4g} vs best {ref:.4g} ({where}) "
              f"x{ratio:.3f}, cv {spread} {status}")
    return regressions


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--filter", action="store_true",
                    help="print the --benchmark_filter regex and exit")
    ap.add_argument("--candidate", help="bench_micro JSON to gate")
    ap.add_argument("--reference", action="append",
                    help="bench_micro JSON to gate against (repeatable; "
                         "default: every BENCH_<n>.json in --root)")
    ap.add_argument("--root", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir),
        help="repo root holding the committed BENCH_<n>.json files")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed normalized slowdown (default 0.25)")
    args = ap.parse_args()

    if args.filter:
        print(filter_regex())
        return 0
    if not args.candidate:
        ap.error("--candidate is required unless --filter")

    runs = read_runs(args.candidate)
    failed = []
    for name in GATED:
        times, errors = runs.get(name, ([], []))
        failed += [f"{name}: {message}" for message in errors]
        if not times and not errors:
            failed.append(f"{name}: missing from the run")
    if failed:
        print(f"{len(failed)} gated case(s) missing or failed:",
              file=sys.stderr)
        for f in failed:
            print(f"error: {f}", file=sys.stderr)
        return 1
    references = args.reference or committed_references(
        os.path.abspath(args.root), args.candidate)
    if not references:
        print("no reference BENCH_<n>.json found: nothing to gate against")
        return 0
    print("references: " + ", ".join(references))
    regressions = compare(summarize(runs), references, args.tolerance)
    if regressions:
        print(f"\n{len(regressions)} perf regression(s):", file=sys.stderr)
        for r in regressions:
            print(f"error: {r}", file=sys.stderr)
        return 1
    print("\nperf OK: no gated case regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
