#!/usr/bin/env bash
# The shared bench CLI must refuse malformed command lines before it runs
# anything: exit status 2, the usage text on stderr, nothing on stdout.
# Registered in ctest as smoke_bench_bad_args.
#
#   smoke_bad_args.sh <bench-binary>
set -uo pipefail

bench="$1"
err=$(mktemp)
trap 'rm -f "$err"' EXIT

check() {
  local out status
  out=$("$bench" "$@" 2> "$err")
  status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: '$*' exited $status, want 2"
    exit 1
  fi
  if [ -n "$out" ]; then
    echo "FAIL: '$*' printed to stdout (a run started):"
    echo "$out"
    exit 1
  fi
  if ! grep -q '^usage:' "$err"; then
    echo "FAIL: '$*' printed no usage text:"
    cat "$err"
    exit 1
  fi
}

check --no-such-flag
check --rep 3          # the flag is --reps
check --duration       # trailing flag without its value
check --reps 2 --threads
# Malformed values: each once fell back silently (one seed, the automatic
# or a truncated thread count, the default seed, the full window) and
# exited 0.
check --reps two
check --reps 3x
check --reps 0
check --reps -1
check --threads x
check --threads 4x
check --seed x7
check --seed 7.5
check --seed -7
check --duration abc
check --duration 0.2s
check --duration 0
check --duration -0.5
check --duration inf
check --duration nan
echo "malformed command lines and values are refused with status 2"
