#!/bin/sh
# Bench smoke: run the serving/persistence/replication/store benches in
# quick mode and write machine-readable BENCH_*.json next to each other,
# so CI can publish per-PR perf artifacts and a trend line can diff them.
#
# Usage: bench_smoke.sh <build-dir> [out-dir]
#
# Quick mode (SIOT_BENCH_QUICK=1) shrinks workload sizes inside the
# binaries; --benchmark_min_time keeps google-benchmark's own iteration
# budget small. Each benchmark runs five times and the
# JSON keeps only the aggregates (mean, median, stddev, cv):
# tools/bench_compare.py compares medians, since one run on a shared
# host swings by tens of percent. Exits non-zero if any bench fails or a
# JSON comes out empty — an unparseable artifact is worse than a missing
# one.
set -eu

build="$1"
out="${2:-.}"
mkdir -p "$out"

run_bench() {
  bench="$1"
  json="$2"
  echo "== ${bench} -> ${json} =="
  # The if-guard matters under `set -e`: a raw invocation would kill the
  # whole script on a crashed bench with nothing but the harness's own
  # output to say WHICH binary died.
  if ! SIOT_BENCH_QUICK=1 "${build}/bench/${bench}" \
    --benchmark_min_time=0.05 \
    --benchmark_repetitions=5 \
    --benchmark_report_aggregates_only=true \
    --benchmark_out="${out}/${json}" \
    --benchmark_out_format=json; then
    echo "FAIL: ${bench} exited non-zero" >&2
    exit 1
  fi
  # Parse, don't grep: a bench that crashed mid-run leaves a truncated
  # file that still contains the '"benchmarks"' substring.
  if ! python3 -c "
import json, sys
doc = json.load(open(sys.argv[1]))
sys.exit(0 if doc.get('benchmarks') else 1)
" "${out}/${json}"; then
    echo "FAIL: ${bench} wrote ${out}/${json} without valid benchmark JSON" >&2
    exit 1
  fi
}

run_bench bench_service_throughput BENCH_service.json
run_bench bench_persistence BENCH_persistence.json
run_bench bench_store_scaling BENCH_store_scaling.json
run_bench bench_replication BENCH_replication.json
run_bench bench_overlay_snapshot BENCH_overlay.json
run_bench bench_attack BENCH_attack.json

echo "bench-smoke OK:"
ls -l "${out}"/BENCH_*.json
