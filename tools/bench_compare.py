#!/usr/bin/env python3
# Copyright 2026 The siot-trust Authors.
"""Diffs two google-benchmark JSON artifacts (BENCH_*.json) and fails on
regression.

Usage:
    bench_compare.py BASELINE.json CANDIDATE.json [--tolerance PCT]
                     [--metric items_per_second|real_time|cpu_time]

Compares every benchmark present in BOTH files by name (including the
arg/thread suffixes, e.g. "BM_DurableAppendScaling/1/real_time/threads:8").
For rate metrics (items_per_second) a candidate SLOWER by more than the
tolerance is a regression; for time metrics a candidate whose time GREW
past the tolerance is. A benchmark present in the baseline but MISSING
from the candidate fails the run: a silently dropped series is how a
perf gate rots (delete or rename the baseline entry to retire a series
deliberately). Benchmarks only in the candidate are new and merely
reported.

Both artifacts' `context.siot_build_type`, `siot_compiler` and
`num_cpus` are printed first, and a `::warning::` line (a GitHub Actions
annotation) flags a pair that differs in any of them: a debug build of
this tree against a release one, another compiler, or a 1-CPU recording
against a 4-CPU run moves numbers more than most changes do. The first
two are this tree's CMAKE_BUILD_TYPE and compiler, which every bench
records (bench/bench_util.h); google-benchmark's own
`library_build_type` describes the benchmark library, not this tree, so
it is not compared. An artifact recorded before those entries existed
prints `?` for them, and a key one artifact lacks is not flagged. The
warning never changes the exit status.

Exit status: 0 = no regression, 1 = at least one regression, 2 = bad
invocation or unparseable artifact (an unreadable artifact is worse than
a slow one).

stdlib only — CI runs this between artifact download and upload with no
virtualenv.
"""

import argparse
import json
import sys


# Run conditions that move every number in an artifact at once.
CONTEXT_KEYS = ("siot_build_type", "siot_compiler", "num_cpus")


def load_benchmarks(path):
    """(benchmark-name -> entry dict, context dict), from a
    google-benchmark JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            doc = json.load(fp)
    except (OSError, ValueError) as err:
        # Exit 2, per the contract above: callers treat "cannot even
        # read the artifact" as a harder failure than a regression.
        print(f"error: cannot parse {path}: {err}", file=sys.stderr)
        raise SystemExit(2)
    entries = {}
    for entry in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev of repeated runs): the
        # raw per-run rows carry run_type "iteration" (or no run_type in
        # older library versions).
        if entry.get("run_type", "iteration") != "iteration":
            continue
        entries[entry["name"]] = entry
    if not entries:
        print(f"error: {path} holds no benchmark entries", file=sys.stderr)
        raise SystemExit(2)
    context = doc.get("context")
    return entries, context if isinstance(context, dict) else {}


def report_contexts(baseline, candidate):
    """Prints both artifacts' run conditions; warns when they differ."""
    for label, context in (("baseline", baseline), ("candidate", candidate)):
        fields = ", ".join(f"{key} {context.get(key, '?')}"
                           for key in CONTEXT_KEYS)
        print(f"{label}: {fields}")
    differing = [key for key in CONTEXT_KEYS
                 if key in baseline and key in candidate
                 and baseline[key] != candidate[key]]
    if differing:
        details = "; ".join(
            f"{key} {baseline.get(key, '?')} vs {candidate.get(key, '?')}"
            for key in differing)
        print(f"::warning::baseline and candidate ran under different "
              f"conditions ({details}); differences may not be the code's")


def metric_of(entry, metric):
    value = entry.get(metric)
    return value if isinstance(value, (int, float)) and value > 0 else None


def main():
    parser = argparse.ArgumentParser(
        description="diff two BENCH_*.json artifacts, nonzero on regression"
    )
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=10.0,
        metavar="PCT",
        help="allowed slowdown in percent before a benchmark counts as "
        "regressed (default: %(default)s)",
    )
    parser.add_argument(
        "--metric",
        default="items_per_second",
        choices=["items_per_second", "real_time", "cpu_time"],
        help="which field to compare; benchmarks missing it fall back to "
        "real_time (default: %(default)s)",
    )
    args = parser.parse_args()
    if args.tolerance < 0:
        parser.error("--tolerance must be >= 0")

    baseline, baseline_context = load_benchmarks(args.baseline)
    candidate, candidate_context = load_benchmarks(args.candidate)
    report_contexts(baseline_context, candidate_context)

    regressions = []
    improvements = []
    compared = 0
    for name in sorted(baseline.keys() & candidate.keys()):
        metric = args.metric
        base = metric_of(baseline[name], metric)
        cand = metric_of(candidate[name], metric)
        if base is None or cand is None:
            # Not every benchmark reports items_per_second; time is
            # always there.
            metric = "real_time"
            base = metric_of(baseline[name], metric)
            cand = metric_of(candidate[name], metric)
        if base is None or cand is None:
            continue
        compared += 1
        # Normalize to "percent slower than baseline": for rates lower is
        # worse, for times higher is worse.
        if metric == "items_per_second":
            slower_pct = (base - cand) / base * 100.0
        else:
            slower_pct = (cand - base) / base * 100.0
        line = (
            f"{name}: {metric} {base:.6g} -> {cand:.6g} "
            f"({slower_pct:+.1f}% slower)"
        )
        if slower_pct > args.tolerance:
            regressions.append(line)
        elif slower_pct < -args.tolerance:
            improvements.append(line)

    only_base = sorted(baseline.keys() - candidate.keys())
    only_cand = sorted(candidate.keys() - baseline.keys())

    print(
        f"compared {compared} benchmarks "
        f"(tolerance {args.tolerance:g}%, metric {args.metric})"
    )
    for line in improvements:
        print(f"  improved:  {line}")
    for name in only_cand:
        print(f"  only in candidate: {name}")
    if only_base:
        # A series that stopped being produced is indistinguishable from
        # a series that regressed into a crash — fail loudly instead of
        # letting the gate shrink one rename at a time.
        print(f"MISSING FROM CANDIDATE ({len(only_base)}):")
        for name in only_base:
            print(f"  {name}")
    if regressions:
        print(f"REGRESSED ({len(regressions)}):")
        for line in regressions:
            print(f"  {line}")
        return 1
    if only_base:
        return 1
    if compared == 0:
        print("error: no benchmark appears in both files", file=sys.stderr)
        return 2
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
