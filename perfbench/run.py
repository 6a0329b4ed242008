#!/usr/bin/env python3
"""Repository benchmark: seeded workloads of the simulator, one per process.

Usage (from the repository root):

    python3 perfbench/run.py --workload lan_saturated --seed 1 \
        --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

The script builds the simulator library from this checkout's src/ and the
driver in perfbench/ (Release, under .perfbench-build/), derives the
workload's generated inputs from --seed (the cluster seed and, for the fault
workload, the churn-DSL fault schedule), and runs the driver in its own
single-threaded process. It prints every metric by name and unit, then, as
the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics (from a traced run plus layer replays) and writes the
traced run's spans to .perfbench-build/traces/. One operation is one
simulated run of the workload; a run fails when a correctness check on it
fails. --workload all runs every workload in turn and prefixes each metric
name with its workload. The exit code is 0 only when every check passed.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".perfbench-build"
DRIVER = BUILD / "perfbench" / "perfbench_driver"
DRIVER_TIMEOUT_S = 170
MASK64 = (1 << 64) - 1


class SplitMix64:
    """Small portable PRNG, so generated inputs never depend on the Python
    version's random module."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n

    def shuffled(self, items):
        items = list(items)
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def checkout_env():
    """Environment for child processes: temporary files (the compiler's,
    the file stores') stay inside the checkout."""
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(BUILD / "tmp"))


def build():
    if not (ROOT / "src").is_dir():
        fail(f"no simulator sources at {ROOT / 'src'}")
    log_path = BUILD / "build.log"
    env = checkout_env()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "perfbench" / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD / "perfbench"),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD / "perfbench"), "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode:
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")


def fault_schedule(rng, faults, n_replicas):
    """Churn DSL: every `every_s` one non-observer replica gets one fault.
    Fault kinds and victims are drawn in seeded shuffled rounds, so every
    kind and every replica is hit equally often over whole rounds."""
    events, kinds, victims = [], [], []
    t = faults["first_s"]
    while t <= faults["last_s"] + 1e-9:
        if not kinds:
            kinds = rng.shuffled(faults["kinds"])
        if not victims:  # replica 0 is the observer and is never hit
            victims = rng.shuffled(range(1, n_replicas))
        kind, victim = kinds.pop(), victims.pop()
        at = f"{t:g}s"
        if kind == "isolate":
            rest = "-".join(str(i) for i in range(n_replicas) if i != victim)
            events.append(f"partition@{at}:groups={rest}|{victim}")
            events.append(f"heal@{t + faults['isolate_s']:g}s")
        elif kind == "crash-restart":
            events.append(f"crash-restart@{at}:replica={victim}"
                          f":for={faults['down_s']:g}s")
        elif kind == "loss-burst":
            events.append(f"burst@{at}:replica={victim}"
                          f":loss={faults['burst_loss']:g}"
                          f":for={faults['burst_s']:g}s")
        else:
            fail(f"unknown fault kind {kind}")
        t += faults["every_s"]
    return ";".join(events)


def generated_spec(name, workload, seed):
    """The only inputs the program sees: the config with a cluster seed and
    a churn schedule derived from the workload seed."""
    rng = SplitMix64(seed)
    cfg = dict(workload["cfg"])
    cfg["seed"] = rng.next() >> 11  # 53 bits: exact as a JSON number
    if workload.get("faults"):
        cfg["churn"] = fault_schedule(rng, workload["faults"], cfg["n"])
    return {
        "workload": name,
        "cfg": cfg,
        "load": workload["load"],
        "warmup_s": workload["warmup_s"],
        "measure_s": workload["measure_s"],
        "require_nonzero": workload["require_nonzero"],
    }


def run_workload(name, workload, args, declared):
    """Runs one workload's driver process and prints its metrics; returns
    (correct, attempted, failed, metrics)."""
    spec = generated_spec(name, workload, args.seed)
    tag = f"{name}-seed{args.seed}-trace{args.trace}"
    for sub in ("runs", "traces"):
        (BUILD / sub).mkdir(parents=True, exist_ok=True)
    spec_path = BUILD / "runs" / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec, indent=1) + "\n")
    cmd = [str(DRIVER), "--spec", str(spec_path),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(BUILD / "traces" / f"{tag}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=checkout_env(),
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name}: driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{name}: driver printed nothing (exit {proc.returncode})")
    (BUILD / "runs" / f"{tag}.result.json").write_text(lines[-1] + "\n")
    result = json.loads(lines[-1])

    measured = result["per_layer" if args.trace else "end_to_end"]
    metrics, errors = {}, list(result["errors"])
    for m in declared:
        value = measured.get(m["name"])
        if value is None or not math.isfinite(value):
            errors.append(f"metric {m['name']} missing or not finite")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    detail = result["detail"]
    print(f"workload {name} seed {args.seed}: {workload['traffic']}; "
          f"{workload['link_delay']}")
    if spec["cfg"].get("churn"):
        print(f"  faults: {spec['cfg']['churn']}")
    print(f"  repetitions {len(detail['window_s'])}, latency samples "
          f"{detail['latency_samples']}, blocks {detail['blocks']}, "
          f"offered {detail['offered']:.1f}")
    for metric, m in metrics.items():
        print(f"  {metric:28s} {m['value']:.6g} {m['unit']}")
    for e in errors:
        print(f"  CHECK FAILED: {e}")
    correct = not errors and proc.returncode == 0
    attempted, failed = result["runs"], result["failed_runs"]
    if not correct and failed == 0:
        failed = attempted
    return correct, attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of perfbench/workloads.json, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    names = list(workloads) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads:
            fail(f"unknown workload {name}; have {', '.join(workloads)}")
    build()

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, tried, bad, measured = run_workload(name, workloads[name], args,
                                                declared)
        correct = correct and ok
        attempted += tried
        failed += bad
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in measured.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
