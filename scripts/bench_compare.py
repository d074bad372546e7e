#!/usr/bin/env python3
"""Compare fresh BENCH_*.json results against committed baselines.

Every BENCH_<name>.json under the baseline directory must have a matching
fresh file in the results directory, and every benchmark series in the
baseline must still exist. All numeric metrics shared by baseline and
candidate are compared in a per-metric delta table; the pass/fail gate is
ops_per_sec (throughput must not drop more than --threshold below the
recorded value — improvements and small wobble pass). Latency metrics
(latency_ns_*) are direction-aware in the table (lower is better) but
report-only: percentile tails are too machine-noisy to gate on.

A missing file, a vanished series, or an ops_per_sec regression beyond the
threshold fails the run.

Baselines are machine-specific throughput snapshots: refresh them
(--update) whenever the benchmark machine or the intended performance
envelope changes, and commit the result so the trajectory is reviewable.

Usage:
  scripts/bench_compare.py [results_dir]
      [--baselines bench/baselines] [--threshold 0.20] [--update]

Exit codes: 0 ok, 1 regression/missing data, 2 usage or I/O error.
"""

import argparse
import json
import pathlib
import shutil
import sys

# Metrics excluded from the delta table: identity/shape fields, not
# performance measurements.
NON_METRIC_KEYS = {"name", "repetitions", "threads"}

# The only gated metric. Everything else in the table is report-only.
GATED_METRIC = "ops_per_sec"


def load_series(path):
    """Map benchmark name -> {metric: value} for one BENCH_*.json file."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    series = {}
    for bench in doc.get("benchmarks", []):
        name = bench.get("name")
        if name is None:
            continue
        metrics = {}
        for key, value in bench.items():
            if key in NON_METRIC_KEYS:
                continue
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                metrics[key] = float(value)
        series[name] = metrics
    return series


def lower_is_better(metric):
    # Latency tails and the syscalls-per-response family (sends_per_response,
    # ...) all improve downward.
    return metric.startswith("latency") or metric.endswith("_per_response")


def fmt(value):
    # Ratios like sends_per_response live well below 1.0; one decimal place
    # would round them to 0.0 and hide the signal.
    return f"{value:>14.4f}" if abs(value) < 10.0 else f"{value:>14.1f}"


def compare_series(file_name, name, base, fresh, threshold, failures):
    """Print the per-metric delta table for one series; record failures."""
    for metric in sorted(set(base) & set(fresh)):
        base_v, fresh_v = base[metric], fresh[metric]
        delta = (fresh_v - base_v) / base_v if base_v else 0.0
        improved = delta < 0.0 if lower_is_better(metric) else delta > 0.0
        gated = metric == GATED_METRIC
        regressed = gated and fresh_v < base_v * (1.0 - threshold)
        if regressed:
            verdict = "REGRESSION"
        elif not gated:
            verdict = "better" if improved and abs(delta) > 1e-9 else "info"
        else:
            verdict = "ok"
        print(f"  {name:<26} {metric:<17} {fmt(base_v)} -> "
              f"{fmt(fresh_v)}  ({delta:+7.1%})  {verdict}")
        if regressed:
            failures.append(
                f"{file_name}: '{name}' {metric} {fresh_v:.0f} is "
                f"{-delta:.1%} below baseline {base_v:.0f} "
                f"(threshold {threshold:.0%})")
    for metric in sorted(set(base) - set(fresh)):
        print(f"  {name:<26} {metric:<17} only in baseline (skipped)")
    for metric in sorted(set(fresh) - set(base)):
        print(f"  {name:<26} {metric:<17} new metric (no baseline)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results_dir", nargs="?", default="build/bench",
                        help="directory holding fresh BENCH_*.json files")
    parser.add_argument("--baselines", default="bench/baselines",
                        help="directory of committed baseline JSON files")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed fractional ops_per_sec drop (0.20 = 20%%)")
    parser.add_argument("--update", action="store_true",
                        help="copy fresh results over the baselines and exit")
    args = parser.parse_args()

    results = pathlib.Path(args.results_dir)
    baselines = pathlib.Path(args.baselines)
    if not results.is_dir():
        print(f"bench_compare: results dir {results} not found", file=sys.stderr)
        return 2
    if not baselines.is_dir():
        print(f"bench_compare: baseline dir {baselines} not found",
              file=sys.stderr)
        return 2

    if args.update:
        updated = 0
        for fresh in sorted(results.glob("BENCH_*.json")):
            shutil.copy(fresh, baselines / fresh.name)
            print(f"updated {baselines / fresh.name}")
            updated += 1
        if updated == 0:
            print(f"bench_compare: no BENCH_*.json in {results}",
                  file=sys.stderr)
            return 2
        return 0

    baseline_files = sorted(baselines.glob("BENCH_*.json"))
    if not baseline_files:
        print(f"bench_compare: no baselines in {baselines}", file=sys.stderr)
        return 2

    failures = []
    for base_path in baseline_files:
        fresh_path = results / base_path.name
        if not fresh_path.is_file():
            failures.append(f"{base_path.name}: no fresh result in {results}")
            continue
        base = load_series(base_path)
        fresh = load_series(fresh_path)
        print(f"== {base_path.name}")
        for name, base_metrics in sorted(base.items()):
            if name not in fresh:
                failures.append(f"{base_path.name}: series '{name}' vanished")
                continue
            compare_series(base_path.name, name, base_metrics, fresh[name],
                           args.threshold, failures)
        for name in sorted(set(fresh) - set(base)):
            print(f"  {name:<26} NEW SERIES (no baseline) — "
                  "run --update to adopt")

    # Whole files present in the fresh run but absent from the baselines:
    # a warning row per series, never a failure — new benchmarks must be
    # able to land before their baselines are recorded.
    known = {p.name for p in baseline_files}
    for fresh_path in sorted(results.glob("BENCH_*.json")):
        if fresh_path.name in known:
            continue
        print(f"== {fresh_path.name} (no baseline file)")
        for name in sorted(load_series(fresh_path)):
            print(f"  {name:<26} NEW SERIES (no baseline) — "
                  "run --update to adopt")

    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nall benchmarks within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
