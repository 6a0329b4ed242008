#!/usr/bin/env python3
"""Render SVG figures from bench --out artifact directories.

Walks the given directories for ``manifest*.json`` files (written by the
bench binaries' ArtifactWriter or by bench_merge), loads every CSV artifact,
and renders one SVG per figure/table into --svg-dir:

* record artifacts (rows with a ``kind`` column):
  - ``aggregate`` rows -> latency/throughput curves vs the ``offered`` sweep
    label, one line per ``series``, error bars from the ``*_ci95`` columns
    (Student-t 95% half-widths);
  - ``timeline`` rows (Fig. 15 buckets) -> committed-tx rate vs time, one
    line per ``series``;
  - recovery artifacts (aggregate rows whose name contains ``recovery``,
    e.g. bench_fig17_recovery) -> a recovery-latency panel: ``recovery_ms``
    and ``sync_requests`` vs the ``offered`` label (the sync_batch sweep),
    one line per series;
  - snapshot artifacts (aggregate rows whose name contains ``snapshot``,
    from bench_fig17b_snapshot) -> a state-transfer panel: ``recovery_ms``
    (log axis) and bytes moved vs the outage window, chain-sync series
    dashed vs snapshot series solid — the crossover figure;
  - overload artifacts (aggregate rows whose name contains ``fig18``,
    from bench_fig18_overload) -> a saturation panel: goodput vs measured
    offered load against the ideal diagonal, plus histogram-exact
    p99/p999 tails vs offered on a log axis.
* free-form side tables (no ``kind`` column) -> first column as x, every
  other numeric column as a line.

With ``--perf`` the inputs are instead the committed ``BENCH_<n>.json``
runs of bench_micro's gated cases (or a directory holding them, e.g. the
repo root) and one trajectory SVG is rendered: every case's
calibration-normalized median rate, as tools/check_perf.py computes it,
indexed by the BENCH number, so speedups and regressions are visible over
the repo's history.

Usage:
    tools/plot_results.py build/smoke --svg-dir build/plots
    tools/plot_results.py --list build/smoke      # dry run, no matplotlib
    tools/plot_results.py --perf . --svg-dir build/plots

Only the actual rendering needs matplotlib; ``--list`` works without it.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from check_perf import CALIBRATION, read_runs, summarize  # noqa: E402


def find_manifests(roots: list[str]) -> list[Path]:
    manifests: list[Path] = []
    for root in roots:
        path = Path(root)
        if path.is_file():
            manifests.append(path)
            continue
        manifests.extend(sorted(path.rglob("manifest*.json")))
    return manifests


def load_artifacts(manifests: list[Path]) -> dict[str, dict]:
    """\"bench.artifact\" -> {"bench", "name", "path", "rows"} from CSVs.

    An unsharded (or bench_merge'd) manifest is authoritative for its
    artifacts. When only ``--shard i/n`` manifests are present, the shard
    slices are unioned so the full row set is still plotted; a shard slice
    never overrides or double-counts an authoritative row set.
    """
    artifacts: dict[str, dict] = {}
    for manifest_path in manifests:
        manifest = json.loads(manifest_path.read_text())
        sharded = manifest.get("shard", {}).get("count", 1) > 1
        for artifact in manifest.get("artifacts", []):
            name = artifact.get("name", "")
            key = f"{manifest.get('bench', 'bench')}.{name}"
            for file in artifact.get("files", []):
                if file.get("format") != "csv":
                    continue
                path = manifest_path.parent / file["path"]
                with path.open(newline="") as handle:
                    rows = list(csv.DictReader(handle))
                entry = artifacts.get(key)
                if entry is None or (entry["sharded"] and not sharded):
                    artifacts[key] = {
                        "bench": manifest.get("bench", "bench"),
                        "name": name,
                        "path": path,
                        "rows": rows,
                        "sharded": sharded,
                    }
                elif sharded and entry["sharded"]:
                    entry["rows"].extend(rows)  # union the shard slices
                # else: authoritative set already loaded; skip the slice
    return artifacts


def classify(rows: list[dict], name: str = "") -> str:
    if not rows:
        return "empty"
    if "kind" not in rows[0]:
        return "table"
    kinds = {row["kind"] for row in rows}
    if "timeline" in kinds:
        return "timeline"
    if "aggregate" in kinds:
        if "snapshot" in name and "snapshots_installed" in rows[0]:
            return "snapshot"
        if "recovery" in name and "recovery_ms" in rows[0]:
            return "recovery"
        if "fig18" in name and "hist_p999_ms" in rows[0]:
            return "saturation"
        if "democracy" in name and "proposer_gini" in rows[0]:
            return "democracy"
        return "sweep"
    return "runs"


def series_of(rows: list[dict], kind: str) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = defaultdict(list)
    for row in rows:
        if row["kind"] != kind:
            continue
        grouped[row["series"]].append(row)
    for label in grouped:
        grouped[label].sort(key=lambda r: float(r["offered"]))
    return grouped


def floats(rows: list[dict], column: str) -> list[float]:
    return [float(row[column]) for row in rows]


def plot_sweep(plt, artifact: dict, out_path: Path) -> None:
    grouped = series_of(artifact["rows"], "aggregate")
    fig, (ax_thr, ax_lat) = plt.subplots(1, 2, figsize=(11, 4.2))
    for label, rows in grouped.items():
        offered = floats(rows, "offered")
        thr = [t / 1e3 for t in floats(rows, "throughput_tps")]
        thr_ci = [c / 1e3 for c in floats(rows, "throughput_tps_ci95")]
        lat = floats(rows, "latency_ms_mean")
        lat_ci = floats(rows, "latency_ms_mean_ci95")
        ax_thr.errorbar(offered, thr, yerr=thr_ci, marker="o", capsize=3,
                        label=label)
        ax_lat.errorbar(offered, lat, yerr=lat_ci, marker="o", capsize=3,
                        label=label)
    ax_thr.set_xlabel("offered load")
    ax_thr.set_ylabel("throughput (KTx/s)")
    ax_lat.set_xlabel("offered load")
    ax_lat.set_ylabel("latency, mean (ms)")
    for ax in (ax_thr, ax_lat):
        ax.grid(True, alpha=0.3)
    ax_thr.legend(fontsize=7)
    fig.suptitle(artifact["name"])
    fig.tight_layout()
    fig.savefig(out_path)
    plt.close(fig)


def plot_timeline(plt, artifact: dict, out_path: Path) -> None:
    grouped = series_of(artifact["rows"], "timeline")
    fig, ax = plt.subplots(figsize=(9, 4.2))
    for label, rows in grouped.items():
        t = floats(rows, "offered")  # bucket start (s)
        rate = [r / 1e3 for r in floats(rows, "throughput_tps")]
        ax.plot(t, rate, label=label)
    ax.set_xlabel("time (s)")
    ax.set_ylabel("committed (KTx/s)")
    ax.grid(True, alpha=0.3)
    ax.legend(fontsize=7)
    ax.set_title(artifact["name"])
    fig.tight_layout()
    fig.savefig(out_path)
    plt.close(fig)


def plot_recovery(plt, artifact: dict, out_path: Path) -> None:
    """Recovery-latency panel: heal->caught-up latency and the fetch
    traffic that recovery cost, vs the sync_batch sweep label.

    Series labels carry a per-cell "-b<batch>" suffix (each grid cell is
    one aggregate row); strip it so the batch sweep connects into one
    line per scenario/protocol instead of isolated points."""
    merged: dict[str, list[dict]] = defaultdict(list)
    for label, rows in series_of(artifact["rows"], "aggregate").items():
        merged[re.sub(r"-b\d+$", "", label)].extend(rows)
    fig, (ax_rec, ax_req) = plt.subplots(1, 2, figsize=(11, 4.2))
    for label, rows in merged.items():
        rows.sort(key=lambda r: float(r["offered"]))
        offered = floats(rows, "offered")
        ax_rec.plot(offered, floats(rows, "recovery_ms"), marker="o",
                    label=label)
        ax_req.plot(offered, floats(rows, "sync_requests"), marker="o",
                    label=label)
    ax_rec.set_xlabel("sync_batch")
    ax_rec.set_ylabel("recovery, heal -> caught-up (ms)")
    ax_req.set_xlabel("sync_batch")
    ax_req.set_ylabel("sync requests")
    for ax in (ax_rec, ax_req):
        ax.grid(True, alpha=0.3)
    ax_rec.legend(fontsize=7)
    fig.suptitle(artifact["name"])
    fig.tight_layout()
    fig.savefig(out_path)
    plt.close(fig)


def plot_snapshot(plt, artifact: dict, out_path: Path) -> None:
    """State-transfer panel (bench_fig17b_snapshot): heal->caught-up
    latency vs the outage window for the chain-sync and snapshot series
    (log y; the crossover is the whole point), and the bytes each mode
    moved to close the gap -- per-block fetch traffic for chain-sync,
    chunk traffic for the snapshot path."""
    grouped = series_of(artifact["rows"], "aggregate")
    fig, (ax_rec, ax_bytes) = plt.subplots(1, 2, figsize=(11, 4.2))
    for label, rows in grouped.items():
        window = floats(rows, "offered")
        style = "--" if label.endswith("-chain") else "-"
        ax_rec.plot(window, floats(rows, "recovery_ms"), style, marker="o",
                    label=label)
        moved = [(s + y) / 1e3 for s, y in zip(floats(rows, "snapshot_bytes"),
                                               floats(rows, "sync_bytes"))]
        ax_bytes.plot(window, moved, style, marker="o", label=label)
    ax_rec.set_xlabel("outage window (s)")
    ax_rec.set_ylabel("recovery, heal -> caught-up (ms)")
    ax_rec.set_yscale("log")
    ax_bytes.set_xlabel("outage window (s)")
    ax_bytes.set_ylabel("transfer traffic (KB)")
    for ax in (ax_rec, ax_bytes):
        ax.grid(True, alpha=0.3)
    ax_rec.legend(fontsize=7)
    fig.suptitle(artifact["name"])
    fig.tight_layout()
    fig.savefig(out_path)
    plt.close(fig)


def plot_saturation(plt, artifact: dict, out_path: Path) -> None:
    """Overload panel (bench_fig18_overload): goodput vs offered load with
    the ideal goodput == offered diagonal, and the histogram-exact tail
    quantiles (p99, p999) vs offered load on a log axis. The gap between
    the diagonal and a series' curve is the shed load; the tail panel shows
    where the latency distribution detonates past the knee."""
    grouped = series_of(artifact["rows"], "aggregate")
    fig, (ax_good, ax_tail) = plt.subplots(1, 2, figsize=(11, 4.2))
    max_offered = 0.0
    for label, rows in grouped.items():
        offered = [o / 1e3 for o in floats(rows, "offered_tps")]
        max_offered = max(max_offered, *offered, 0.0)
        goodput = [t / 1e3 for t in floats(rows, "throughput_tps")]
        ax_good.plot(offered, goodput, marker="o", label=label)
        ax_tail.plot(offered, floats(rows, "hist_p99_ms"), marker="o",
                     label=f"{label} p99")
        ax_tail.plot(offered, floats(rows, "hist_p999_ms"), marker=".",
                     linestyle="--", label=f"{label} p999")
    if max_offered > 0:
        ax_good.plot([0, max_offered], [0, max_offered], color="gray",
                     linestyle=":", alpha=0.6, label="ideal")
    ax_good.set_xlabel("offered (KTx/s)")
    ax_good.set_ylabel("goodput (KTx/s)")
    ax_tail.set_xlabel("offered (KTx/s)")
    ax_tail.set_ylabel("latency (ms), histogram-exact")
    ax_tail.set_yscale("log")
    for ax in (ax_good, ax_tail):
        ax.grid(True, alpha=0.3)
    ax_good.legend(fontsize=7)
    ax_tail.legend(fontsize=6, ncol=2)
    fig.suptitle(artifact["name"])
    fig.tight_layout()
    fig.savefig(out_path)
    plt.close(fig)


def decode_commit_share(encoded: str) -> dict[int, int]:
    """Decode the sparse "id:count;id:count" commit-share column."""
    counts: dict[int, int] = {}
    for part in str(encoded).split(";"):
        if not part:
            continue
        replica, _, count = part.partition(":")
        counts[int(replica)] = int(count)
    return counts


def plot_democracy(plt, artifact: dict, out_path: Path) -> None:
    """Democracy panel (bench_fig19_democracy): chain quality (solid) and
    proposer Gini (dashed) across the adversarial scenario grid, and the
    per-replica commit-share distribution in the last (most adversarial)
    scenario. A flat right panel is an even proposer lottery; spikes mean
    a few replicas own the committed chain."""
    grouped = series_of(artifact["rows"], "aggregate")
    fig, (ax_q, ax_share) = plt.subplots(1, 2, figsize=(11, 4.2))
    n_series = max(len(grouped), 1)
    bar_w = 0.8 / n_series
    for idx, (label, rows) in enumerate(grouped.items()):
        scenario = floats(rows, "offered")
        ax_q.plot(scenario, floats(rows, "chain_quality"), marker="o",
                  label=f"{label} CQ")
        ax_q.plot(scenario, floats(rows, "proposer_gini"), marker=".",
                  linestyle="--", alpha=0.7, label=f"{label} gini")
        counts = decode_commit_share(rows[-1].get("commit_share", ""))
        total = sum(counts.values())
        if total:
            ids = sorted(counts)
            xs = [r + (idx - (n_series - 1) / 2) * bar_w for r in ids]
            ax_share.bar(xs, [counts[r] / total for r in ids], width=bar_w,
                         label=label)
    ax_q.set_xlabel("scenario index")
    ax_q.set_ylabel("chain quality / proposer Gini")
    ax_q.set_ylim(bottom=0)
    ax_share.set_xlabel("replica id")
    ax_share.set_ylabel("commit share (last scenario)")
    for ax in (ax_q, ax_share):
        ax.grid(True, alpha=0.3)
    ax_q.legend(fontsize=6, ncol=2)
    ax_share.legend(fontsize=7)
    fig.suptitle(artifact["name"])
    fig.tight_layout()
    fig.savefig(out_path)
    plt.close(fig)


def plot_table(plt, artifact: dict, out_path: Path) -> None:
    rows = artifact["rows"]
    headers = list(rows[0].keys())
    x_name, y_names = headers[0], headers[1:]
    fig, ax = plt.subplots(figsize=(9, 4.2))
    x = [float(row[x_name]) for row in rows]
    for y_name in y_names:
        try:
            y = [float(row[y_name]) for row in rows]
        except ValueError:
            continue  # non-numeric column (e.g. another shard's "-")
        ax.plot(x, y, label=y_name)
    ax.set_xlabel(x_name)
    ax.grid(True, alpha=0.3)
    ax.legend(fontsize=7)
    ax.set_title(artifact["name"])
    fig.tight_layout()
    fig.savefig(out_path)
    plt.close(fig)


def find_bench_jsons(roots: list[str]) -> list[tuple[int, Path]]:
    name_re = re.compile(r"^BENCH_(\d+)\.json$")
    found: dict[int, Path] = {}
    for root in roots:
        path = Path(root)
        candidates = [path] if path.is_file() else sorted(path.glob(
            "BENCH_*.json"))
        for candidate in candidates:
            match = name_re.match(candidate.name)
            if match:
                found[int(match.group(1))] = candidate
    return sorted(found.items())


def load_perf_trajectory(roots: list[str]) -> list[dict]:
    points = []
    for number, path in find_bench_jsons(roots):
        metrics = {name: rate
                   for name, (rate, _) in summarize(read_runs(path)).items()}
        if not metrics:
            print(f"plot_results: {path} has no calibration case, "
                  "skipping", file=sys.stderr)
            continue
        points.append({"number": number, "path": path, "metrics": metrics})
    return points


def plot_perf_trajectory(plt, points: list[dict], out_path: Path) -> None:
    """Calibration-normalized rate per gated case, vs BENCH number.

    Each case's median time is scaled by its run's calibration median
    (machine speed) and then by its own first appearance, so every line
    starts at 1.0 and the y-axis reads as "speedup since first measured".
    Whole runs get solid lines; layer cases dashed."""
    names = sorted({name for p in points for name in p["metrics"]
                    if name != CALIBRATION})
    fig, ax = plt.subplots(figsize=(9, 4.8))
    for name in names:
        xs, ys, first = [], [], None
        for p in points:
            if name not in p["metrics"]:
                continue
            normalized = p["metrics"][name]
            if first is None:
                first = normalized
            xs.append(p["number"])
            ys.append(normalized / first)
        style = "-o" if name.startswith("BM_WholeRun/") else "--."
        ax.plot(xs, ys, style, label=name, alpha=0.9)
    ax.set_xlabel("BENCH number (PR)")
    ax.set_ylabel("speedup vs first measurement (calibration-normalized)")
    ax.set_yscale("log")
    ax.grid(True, alpha=0.3, which="both")
    ax.legend(fontsize=7, ncol=2)
    ax.set_title("perf trajectory")
    fig.tight_layout()
    fig.savefig(out_path)
    plt.close(fig)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs", nargs="+",
                        help="artifact directories (searched recursively) "
                             "or manifest.json files")
    parser.add_argument("--svg-dir", default="plots",
                        help="output directory for the SVGs")
    parser.add_argument("--list", action="store_true",
                        help="only list what would be plotted (no matplotlib)")
    parser.add_argument("--perf", action="store_true",
                        help="inputs are BENCH_<n>.json bench_micro runs (or "
                             "a directory of them); render the perf "
                             "trajectory")
    args = parser.parse_args()

    if args.perf:
        points = load_perf_trajectory(args.inputs)
        if not points:
            print("plot_results: no BENCH_<n>.json found under inputs",
                  file=sys.stderr)
            return 2
        if args.list:
            for p in points:
                print(f"BENCH_{p['number']}: {p['path']} "
                      f"({len(p['metrics'])} cases)")
            return 0
        try:
            import matplotlib
            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            print("plot_results: matplotlib is required for rendering "
                  "(pip install matplotlib), or use --list", file=sys.stderr)
            return 3
        out_dir = Path(args.svg_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        out_path = out_dir / "perf_trajectory.svg"
        plot_perf_trajectory(plt, points, out_path)
        print(f"wrote {out_path}")
        return 0

    manifests = find_manifests(args.inputs)
    if not manifests:
        print("plot_results: no manifest*.json found under inputs",
              file=sys.stderr)
        return 2
    artifacts = load_artifacts(manifests)

    plan = []
    for key, artifact in sorted(artifacts.items()):
        shape = classify(artifact["rows"], artifact["name"])
        if shape == "empty":
            continue
        plan.append((key, shape, artifact))
    if args.list:
        for key, shape, artifact in plan:
            print(f"{key}: {shape} ({len(artifact['rows'])} rows)")
        return 0

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("plot_results: matplotlib is required for rendering "
              "(pip install matplotlib), or use --list", file=sys.stderr)
        return 3

    out_dir = Path(args.svg_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    renderers = {"sweep": plot_sweep, "timeline": plot_timeline,
                 "democracy": plot_democracy, "snapshot": plot_snapshot,
                 "recovery": plot_recovery, "saturation": plot_saturation,
                 "table": plot_table}
    written = 0
    for key, shape, artifact in plan:
        if shape == "runs":
            continue  # no aggregate rows to plot (per-run rows only)
        out_path = out_dir / f"{key}.svg"
        renderers[shape](plt, artifact, out_path)
        print(f"wrote {out_path}")
        written += 1
    if written == 0:
        print("plot_results: nothing plottable found", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
