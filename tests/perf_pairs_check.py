#!/usr/bin/env python3
"""Check tools/perf_pairs.py's verdicts on synthetic runs.

It loads the tool as a module and feeds its summarize() runs in the form
the tool records them, so no benchmark runs. The cases: a win in every pair
and in exactly 9 of 10 pairs with the median gap above the parent's
interquartile range is a gain; 8 wins in 10, or a gap inside that range, is
not; 5 wins in 5 pairs is too few pairs for a gain; a median worse by more
than the metric's bound is worse, by less is within bound; a parent spread
wider than the bound is unresolved unless every change run beats every
parent run, and does not hide a median that is worse. It also checks the
bit-identical flag and that the printed table carries each verdict.

Usage: perf_pairs_check.py TOOL
"""

import contextlib
import importlib.util
import io
import sys

DECLARED = [
    {"name": "sim_speed", "unit": "sim_s/s", "better": "higher",
     "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
    {"name": "sim_tps", "unit": "tx/s", "better": "higher", "bound": 0.05},
]


def pairs(parent, change):
    """Runs of one workload from per-metric (parent list, change list)."""
    count = len(next(iter(parent.values())))
    return [{"seed": 100 + i, "first": "parent" if i % 2 else "change",
             "parent": {m: v[i] for m, v in parent.items()},
             "change": {m: v[i] for m, v in change.items()},
             "parent_correct": True, "change_correct": True}
            for i in range(count)]


def synthetic_runs():
    """Runs by workload, the verdict expected per (workload, metric), and
    the expected bit-identical flag per workload."""
    ten = range(10)
    steady = [0.10 + 0.001 * i for i in ten]  # IQR 0.0045, 4% of the median
    runs = {
        # sim_speed wins 10/10 by 2 against an IQR of 0.45; setup_s wins
        # exactly 9/10 against a flat parent; peak_rss_mb is 26.7% worse
        # (bound 0.2); sim_tps is identical.
        "w_gain": pairs(
            {"sim_speed": [10 + 0.1 * i for i in ten],
             "setup_s": [0.10] * 10, "peak_rss_mb": [15.0] * 10,
             "sim_tps": [5000.0] * 10},
            {"sim_speed": [12 + 0.1 * i for i in ten],
             "setup_s": [0.09] * 9 + [0.11], "peak_rss_mb": [19.0] * 10,
             "sim_tps": [5000.0] * 10}),
        # sim_speed wins 8/10 by a wide gap; setup_s wins 10/10 by less
        # than the parent's IQR; peak_rss_mb is 19.3% worse (bound 0.2);
        # sim_tps is 10% worse (bound 0.05) and not bit-identical.
        "w_mixed": pairs(
            {"sim_speed": [10.0] * 10, "setup_s": steady,
             "peak_rss_mb": [15.0] * 10, "sim_tps": [5000.0] * 10},
            {"sim_speed": [20.0] * 8 + [9.0] * 2,
             "setup_s": [s - 0.001 for s in steady],
             "peak_rss_mb": [17.9] * 10, "sim_tps": [4500.0] * 10}),
        # Five pairs: setup_s wins 5/5 by a gap above the IQR, sim_speed
        # 4/5.
        "w_five": pairs(
            {"sim_speed": [10.0] * 5, "setup_s": [0.1] * 5,
             "peak_rss_mb": [15.0] * 5, "sim_tps": [5000.0] * 5},
            {"sim_speed": [12.0] * 4 + [9.0], "setup_s": [0.08] * 5,
             "peak_rss_mb": [15.0] * 5, "sim_tps": [5000.0] * 5}),
        # Parents spread wider than the bound. sim_speed (IQR 4 on a
        # median of 10, bound 2.5) wins 10/10 by 0.5 with overlapping
        # runs; every setup_s change run (0.09) beats every parent run
        # (0.1 or 0.2, IQR 0.075 on 0.1); peak_rss_mb (IQR 10 on 15) has a
        # median worse by 5, more than its bound of 3.
        "w_noisy": pairs(
            {"sim_speed": [6.0, 8.0, 10.0, 12.0, 14.0] * 2,
             "setup_s": [0.2] * 3 + [0.1] * 7,
             "peak_rss_mb": [10.0, 20.0] * 5, "sim_tps": [5000.0] * 10},
            {"sim_speed": [6.5, 8.5, 10.5, 12.5, 14.5] * 2,
             "setup_s": [0.09] * 10, "peak_rss_mb": [20.0] * 10,
             "sim_tps": [5000.0] * 10}),
    }
    expected = {
        ("w_gain", "sim_speed"): "gain",
        ("w_gain", "setup_s"): "gain",
        ("w_gain", "peak_rss_mb"): "worse",
        ("w_gain", "sim_tps"): "within bound",
        ("w_mixed", "sim_speed"): "within bound",
        ("w_mixed", "setup_s"): "within bound",
        ("w_mixed", "peak_rss_mb"): "within bound",
        ("w_mixed", "sim_tps"): "worse",
        ("w_five", "sim_speed"): "within bound",
        ("w_five", "setup_s"): "too few pairs",
        ("w_five", "peak_rss_mb"): "within bound",
        ("w_five", "sim_tps"): "within bound",
        ("w_noisy", "sim_speed"): "unresolved",
        ("w_noisy", "setup_s"): "within bound",
        ("w_noisy", "peak_rss_mb"): "worse",
        ("w_noisy", "sim_tps"): "within bound",
    }
    identical = {"w_gain": True, "w_mixed": False, "w_five": True,
                 "w_noisy": True}
    return runs, expected, identical


def load(path):
    spec = importlib.util.spec_from_file_location("perf_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main():
    tool = load(sys.argv[1])
    runs, expected, want_identical = synthetic_runs()

    failures = []
    for workload, workload_runs in runs.items():
        rows, identical = tool.summarize(workload_runs, DECLARED)
        if identical != want_identical[workload]:
            failures.append(f"{workload}: bit-identical {identical}, want "
                            f"{want_identical[workload]}")
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            tool.print_summary(workload, workload_runs, rows, identical)
        lines = printed.getvalue().splitlines()
        for row in rows:
            want = expected[(workload, row["metric"])]
            if row["verdict"] != want:
                failures.append(f"{workload} {row['metric']}: want '{want}', "
                                f"got '{row['verdict']}'")
            if not any(line.split()[:1] == [row["metric"]] and
                       line.endswith(" " + row["verdict"]) for line in lines):
                failures.append(f"{workload} {row['metric']}: the table does "
                                f"not print '{row['verdict']}'")
        if len(rows) != len(DECLARED):
            failures.append(f"{workload}: {len(rows)} rows, want "
                            f"{len(DECLARED)}")

    for failure in failures:
        print(f"perf_pairs_check: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("perf_pairs_check OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
