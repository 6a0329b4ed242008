#!/usr/bin/env bash
# Smoke test for the perf gate: a brief run of bench_micro's gated cases
# must hold every case without an error and gate cleanly against itself
# (the gate validates the run first), and a copy with one case's times
# doubled must fail the gate, naming that case and no other. Not a perf
# assertion: nothing here is compared against the committed BENCH_<n>.json.
set -euo pipefail

bench_micro=$1  # path to the bench_micro binary
check_perf=$2   # path to tools/check_perf.py
out_dir=$3      # scratch directory
slowed=BM_LinkDelaySampling/0

rm -rf "$out_dir"
mkdir -p "$out_dir"

"$bench_micro" --benchmark_filter="$(python3 "$check_perf" --filter)" \
  --benchmark_min_time=0.01 \
  --benchmark_out="$out_dir/run.json" --benchmark_out_format=json
python3 "$check_perf" --candidate "$out_dir/run.json" \
  --reference "$out_dir/run.json" --tolerance 0.9

python3 - "$out_dir/run.json" "$out_dir/slowed.json" "$slowed" <<'EOF'
import json
import sys

src, dst, case = sys.argv[1:]
with open(src, encoding="utf-8") as f:
    doc = json.load(f)
for b in doc["benchmarks"]:
    if b.get("run_name", b["name"]) == case:
        b["cpu_time"] *= 2
with open(dst, "w", encoding="utf-8") as f:
    json.dump(doc, f)
EOF
status=0
python3 "$check_perf" --candidate "$out_dir/slowed.json" \
  --reference "$out_dir/run.json" > "$out_dir/slowed.log" 2>&1 || status=$?
cat "$out_dir/slowed.log"
if [[ $status -ne 1 ]] ||
   ! grep -q "^1 perf regression(s):" "$out_dir/slowed.log" ||
   ! grep -q "^error: $slowed: " "$out_dir/slowed.log"; then
  echo "smoke_perf_gate: a doubled $slowed must fail the gate alone" >&2
  exit 1
fi

echo "smoke_perf_gate OK"
