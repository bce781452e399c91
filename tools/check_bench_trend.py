#!/usr/bin/env python3
"""Bench trend check: fail CI when a benchmark regresses hard.

Compares a freshly produced Google Benchmark JSON file against the
archived baseline from the previous run and exits non-zero when any
benchmark's wall time grew beyond the threshold (default 2x) — the
tripwire for the BENCH_*.json trajectory the bench-smoke job archives.

Registered trend files (one invocation each in the CI bench-smoke
job): BENCH_ab9_bulk_load.json (persisted indexes + executor cold start),
BENCH_ab10_catalog.json (multi-document fan-out),
BENCH_ab11_cold_start.json (image -> hot executor; guards the
columnar decode, the zero-copy view-mode open — the
BM_DocumentDecodeDoc2View / BM_ExecutorFromImageDoc2View /
BM_CatalogOpenView series — and the parallel catalog-open wins) and
BENCH_ab12_service.json (the meetxmld closed-loop: throughput and
p50/p99 latency vs. client count over the shared catalog; the
BM_ServiceClosedLoop series is load-bearing — losing it would mean
the service dispatch path silently left the trend) and
BENCH_ab13_open_scaling.json (O(directory) catalog open and the
incremental in-place save; the BM_CatalogOpenLazy and
BM_CatalogSaveInPlace series are load-bearing) and
BENCH_ab14_obs_overhead.json (instrumented vs. uninstrumented
service dispatch; the BM_ObsOverhead series is load-bearing — the
observability layer's <2% overhead claim rides on this trend) and
BENCH_ab15_topk.json (the k-bounded merge, latency vs. k and vs.
document count; the BM_TopKStreaming series is load-bearing — it
carries the top-k pruning win, 3.3x at k=10 over the materialized
merge it replaced).

Usage:
    check_bench_trend.py CURRENT.json BASELINE.json [--threshold 2.0]
        [--expect SUBSTRING ...] [--counters-out FILE]

Skips cleanly (exit 0, with a note) when the baseline file does not
exist or cannot be parsed — first runs and cache evictions must not
fail the job. Benchmarks present on only one side are reported but
never fatal: adding or renaming a benchmark is not a regression.
--expect makes a series load-bearing: the check fails when no current
benchmark name contains the given substring, so a guarded series
(e.g. the ab11 view-mode cold-start numbers) cannot silently vanish
from the trend — that guard holds even on runs with no baseline.
--counters-out archives every benchmark's user counters (the ab12
latency percentiles, the ab14 observe flag and traced-query counts —
values that come out of the obs histogram summaries, not wall time)
to a compact JSON file the CI job uploads next to the raw GBench
output, so the latency trajectory is greppable without re-parsing.
"""

import argparse
import json
import sys

# Everything is compared in nanoseconds.
_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


# Standard GBench per-run fields; everything else in a benchmark row is
# a user counter (ab12's p50_us/p99_us, ab14's observe/traced_queries).
_BUILTIN_FIELDS = {
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads",
    "iterations", "real_time", "cpu_time", "time_unit",
    "items_per_second", "bytes_per_second", "label",
    "error_occurred", "error_message",
}


def load_times(path, counters=None):
    """Returns {benchmark name: real_time in ns} for a GBench JSON file.

    With `counters` (a dict), also collects each benchmark's user
    counters plus items_per_second into counters[name].
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    times = {}
    for bench in data.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev of --benchmark_repetitions).
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        real_time = bench.get("real_time")
        unit = bench.get("time_unit", "ns")
        if name is None or real_time is None or unit not in _UNIT_NS:
            continue
        times[name] = float(real_time) * _UNIT_NS[unit]
        if counters is not None:
            extra = {
                key: value
                for key, value in bench.items()
                if key not in _BUILTIN_FIELDS
                and isinstance(value, (int, float))
            }
            if "items_per_second" in bench:
                extra["items_per_second"] = bench["items_per_second"]
            if extra:
                counters[name] = extra
    return times


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="freshly produced GBench JSON")
    parser.add_argument("baseline", help="previous run's GBench JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="fail when current wall time exceeds threshold * baseline",
    )
    parser.add_argument(
        "--expect",
        action="append",
        default=[],
        metavar="SUBSTRING",
        help="fail when no current benchmark name contains SUBSTRING "
        "(guards a load-bearing series against silent removal)",
    )
    parser.add_argument(
        "--counters-out",
        metavar="FILE",
        help="archive each benchmark's user counters (latency "
        "percentiles, histogram-derived values) as JSON to FILE",
    )
    args = parser.parse_args()

    counters = {} if args.counters_out else None
    current = load_times(args.current, counters)
    if args.counters_out:
        with open(args.counters_out, "w", encoding="utf-8") as fh:
            json.dump(counters, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(
            f"archived counters for {len(counters)} benchmark(s) "
            f"to {args.counters_out}"
        )
    missing = [
        expected
        for expected in args.expect
        if not any(expected in name for name in current)
    ]
    if missing:
        for expected in missing:
            print(f"  expected series missing from current run: {expected}")
        return 1

    try:
        baseline = load_times(args.baseline)
    except (OSError, ValueError) as error:
        print(f"trend check skipped: no usable baseline ({error})")
        return 0
    if not baseline or not current:
        print("trend check skipped: empty benchmark list")
        return 0

    regressions = []
    for name in sorted(current):
        if name not in baseline:
            print(f"  new benchmark (no baseline): {name}")
            continue
        before, after = baseline[name], current[name]
        ratio = after / before if before > 0 else float("inf")
        marker = "REGRESSION" if ratio > args.threshold else "ok"
        print(
            f"  {marker:>10}  {name}: {before / 1e6:.3f} ms -> "
            f"{after / 1e6:.3f} ms ({ratio:.2f}x)"
        )
        if ratio > args.threshold:
            regressions.append((name, ratio))
    for name in sorted(set(baseline) - set(current)):
        print(f"  benchmark disappeared: {name}")

    if regressions:
        print(
            f"{len(regressions)} benchmark(s) regressed beyond "
            f"{args.threshold}x:"
        )
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x")
        return 1
    print(f"trend check passed ({len(current)} benchmark(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
