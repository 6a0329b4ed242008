#!/usr/bin/env python3
"""A/B runner for the repository benchmark: a parent checkout against a change.

Usage (from anywhere):

    python3 tools/perf_pairs.py --parent ../parent --change . \\
        --workloads lan_saturated --seeds 121-130 --seconds 35
    python3 tools/perf_pairs.py --parent ../parent --change . \\
        --workloads streamlet_n16,faults_openloop --seeds 131-135 \\
        --seconds 20 --out pairs.json

For every seed and workload it runs one pair: `python3 perfbench/run.py
--workload W --seed S --seconds X --trace 0` in each checkout, one after the
other, the parent first on odd seeds and the change first on even ones. Each
run builds its checkout's benchmark program first (run.py does that, outside
the timed driver).

It then prints, per workload and end-to-end metric of BENCHMARK.json, each
side's median and quartiles, the ratio of the medians, how many pairs the
change won (ties count for neither side) and a verdict:

    gain           at least ten pairs ran, the change won at least 9 in 10
                   of them, and its median is better than the parent's by
                   more than the parent's interquartile range (IQR);
    too few pairs  the win count and the gap would make a gain, but fewer
                   than ten pairs ran;
    worse          the change's median is worse than the parent's by more
                   than the metric's `bound` in BENCHMARK.json (a fraction
                   of the parent's median);
    unresolved     the parent's IQR is wider than that bound, so the runs
                   cannot tell, and not every run of the change is better
                   than every run of the parent;
    within bound   otherwise.

It also says whether the simulated metrics (sim_tps, sim_p50_ms,
sim_p99_ms, sim_p999_ms, served_share) were bit-identical in every pair: a
change to host speed alone must not move them. --out writes every run and
the summary as JSON.

Exit status: 0 when every run was correct, 1 when any run failed its checks
or printed no result, 2 on a bad command line. The tool writes nothing but
--out; run.py keeps its own files in each checkout's .perfbench-build/.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIMULATED = ("sim_tps", "sim_p50_ms", "sim_p99_ms", "sim_p999_ms",
             "served_share")
SIDES = ("parent", "change")


def parse_seeds(text):
    """'121-130' or '3,5,8' (or a mix) to a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        if not lo.isdigit() or (sep and not hi.isdigit()):
            raise argparse.ArgumentTypeError(f"bad seed range '{part}'")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds")
    return seeds


def run_once(checkout, workload, seed, seconds):
    """One run.py invocation; returns (correct, metric values by name)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return False, {}
    values = {k: m["value"] for k, m in result["metrics"].items()}
    correct = (proc.returncode == 0 and result["correct"]
               and result["failed"] == 0)
    if not correct:
        sys.stderr.write(proc.stdout + proc.stderr)
    return correct, values


def quartiles(values):
    """(q1, median, q3); one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(higher, bound, pairs, parent, change, wins):
    """One metric's verdict (see the module docstring). `pairs` holds each
    pair's (parent, change) values; `parent` and `change` are each side's
    (q1, median, q3)."""
    sign = 1 if higher else -1
    gap = sign * (change[1] - parent[1])
    spread = parent[2] - parent[0]
    if 10 * wins >= 9 * len(pairs) and gap > spread:
        return "gain" if len(pairs) >= 10 else "too few pairs"
    if -gap > bound * abs(parent[1]):
        return "worse"
    clear = (min(sign * c for _, c in pairs) >
             max(sign * p for p, _ in pairs))
    if spread > bound * abs(parent[1]) and not clear:
        return "unresolved"
    return "within bound"


def summarize(runs, declared):
    """Per-metric medians, quartiles, wins and verdict of one workload's
    pairs, and whether the simulated metrics were bit-identical."""
    rows = []
    for metric in declared:
        name = metric["name"]
        pairs = [(r["parent"][name], r["change"][name]) for r in runs
                 if name in r["parent"] and name in r["change"]]
        if not pairs:
            continue
        higher = metric["better"] == "higher"
        wins = sum(1 for p, c in pairs if (c > p if higher else c < p))
        parent = quartiles([p for p, _ in pairs])
        change = quartiles([c for _, c in pairs])
        rows.append({
            "metric": name, "unit": metric["unit"], "better": metric["better"],
            "pairs": len(pairs), "parent": parent, "change": change,
            "ratio": change[1] / parent[1] if parent[1] else float("nan"),
            "wins": wins,
            "verdict": verdict(higher, metric["bound"], pairs, parent, change,
                               wins),
        })
    identical = all(r["parent"].get(m) == r["change"].get(m)
                    for r in runs for m in SIMULATED)
    return rows, identical


def print_summary(workload, runs, rows, identical):
    seeds = ", ".join(str(r["seed"]) for r in runs)
    print(f"\n{workload}: {len(runs)} pairs (seeds {seeds})")
    print(f"  {'metric':14s} {'unit':9s} {'parent median [q1, q3]':30s} "
          f"{'change median [q1, q3]':30s} {'ratio':>7s}  {'wins':6s} "
          "verdict")
    for row in rows:
        cells = []
        for side in SIDES:
            q1, med, q3 = row[side]
            cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
        wins = f"{row['wins']}/{row['pairs']}"
        print(f"  {row['metric']:14s} {row['unit']:9s} {cells[0]:30s} "
              f"{cells[1]:30s} {row['ratio']:7.4f}  {wins:6s} "
              f"{row['verdict']}")
    print("  simulated metrics (" + ", ".join(SIMULATED) + ") bit-identical "
          f"in every pair: {'yes' if identical else 'NO'}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--workloads", required=True,
                        help="comma list of perfbench workloads")
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="seed range or list, e.g. 121-130 or 3,5,8")
    parser.add_argument("--seconds", type=float, required=True,
                        help="run.py --seconds for every run")
    parser.add_argument("--out", type=Path,
                        help="write every run and the summary as JSON here")
    args = parser.parse_args()

    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {path} has no perfbench/run.py")
        if args.out and path / "perfbench" in args.out.resolve().parents:
            parser.error("--out must not point under a perfbench/ directory")
    benchmark = json.loads(
        (checkouts["change"] / "BENCHMARK.json").read_text())
    declared = benchmark["end_to_end"]
    workloads = [w for w in args.workloads.split(",") if w]

    runs = {w: [] for w in workloads}
    all_correct = True
    for seed in args.seeds:
        order = SIDES if seed % 2 else tuple(reversed(SIDES))
        for workload in workloads:
            record = {"seed": seed, "first": order[0]}
            for side in order:
                correct, values = run_once(checkouts[side], workload, seed,
                                           args.seconds)
                all_correct = all_correct and correct
                record[side] = values
                record[f"{side}_correct"] = correct
            runs[workload].append(record)
            speed = [record[s].get("sim_speed", float("nan")) for s in SIDES]
            print(f"seed {seed} {workload}: sim_speed parent {speed[0]:.4g} "
                  f"change {speed[1]:.4g} ({order[0]} first)"
                  + ("" if record["parent_correct"] and
                     record["change_correct"] else "  INCORRECT RUN"),
                  flush=True)

    summary = {}
    for workload in workloads:
        rows, identical = summarize(runs[workload], declared)
        print_summary(workload, runs[workload], rows, identical)
        summary[workload] = {"rows": rows, "simulated_identical": identical}
    if not all_correct:
        print("\nat least one run was incorrect", file=sys.stderr)
    if args.out:
        args.out.write_text(json.dumps(
            {"seconds": args.seconds, "runs": runs, "summary": summary},
            indent=1) + "\n")
    sys.exit(0 if all_correct else 1)


if __name__ == "__main__":
    main()
