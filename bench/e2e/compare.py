#!/usr/bin/env python3
"""Compares two sets of meetxml end-to-end benchmark runs.

    python3 bench/e2e/compare.py A B [--layers]

A and B are each a run record written by run.py (bench/e2e/out/<run>.json),
a directory of them (for example bench/e2e/baseline/), or several of either
joined by commas. A is the reference, B the candidate. For every
(workload, end-to-end metric) pair it prints one row with both medians, the
change, the run-to-run spread and the bound from BENCHMARK.json, labelled:

  improved    B's median is better by more than either side's spread
              (and by more than 1%)
  unchanged   B's median is within the bound of A's
  worse       B's median is worse than A's by more than the bound
  unresolved  the spread of A or B exceeds the bound, unless every run of
              B is better (improved) or worse (worse) than every run of A

The spread of a side is the distance between the first and third quartile
of its runs (statistics.quantiles, n=4) as a share of their median; one run
has no spread. Failed operations are an error_rate row with bound 0.
--layers adds the per-layer medians side by side, without labels. The exit
code is 1 when any row is worse or unresolved.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_runs(spec):
    """Run records named by a file, a directory, or a comma list."""
    records = []
    for part in spec.split(","):
        paths = (sorted(glob.glob(os.path.join(part, "*.json")))
                 if os.path.isdir(part) else [part])
        for path in paths:
            with open(path) as f:
                record = json.load(f)
            if "workloads" in record:
                records.append(record)
    if not records:
        sys.exit("no run records in " + spec)
    return records


def values(records, workload, metric_set, name):
    out = []
    for record in records:
        result = record["workloads"].get(workload)
        if result and name in result.get(metric_set, {}):
            out.append(result[metric_set][name]["value"])
    return out


def spread(vals):
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    median = statistics.median(vals)
    return (q3 - q1) / abs(median) if median else 0.0


def label(a, b, better, bound):
    """(label, change) for one metric; change > 0 means B is worse."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1 if better == "lower" else -1
    change = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    noise = max(spread(a), spread(b))
    b_better = all(sign * (y - x) < 0 for x in a for y in b)
    b_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if noise > bound:
        if b_better:
            return "improved", change
        if b_worse:
            return "worse", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if -change > max(noise, 0.01):
        return "improved", change
    return "unchanged", change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--layers", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    workloads = [w["name"] for w in config["workloads"]
                 if any(w["name"] in r["workloads"] for r in runs_a)
                 and any(w["name"] in r["workloads"] for r in runs_b)]

    print("A: %d run(s)   B: %d run(s)" % (len(runs_a), len(runs_b)))
    header = "%-12s %-26s %14s %14s %8s %7s %6s  %s" % (
        "workload", "metric", "A median", "B median", "change", "spread",
        "bound", "label")
    print(header)
    print("-" * len(header))
    bad = False
    for workload in workloads:
        for metric in config["end_to_end"]:
            a = values(runs_a, workload, "end_to_end", metric["name"])
            b = values(runs_b, workload, "end_to_end", metric["name"])
            if not a or not b:
                continue
            verdict, change = label(a, b, metric["better"], metric["bound"])
            bad = bad or verdict in ("worse", "unresolved")
            print("%-12s %-26s %14.6g %14.6g %+7.2f%% %6.2f%% %5.0f%%  %s" % (
                workload, metric["name"], statistics.median(a),
                statistics.median(b), 100 * change,
                100 * max(spread(a), spread(b)), 100 * metric["bound"],
                verdict))
        failed = [int(r["workloads"][workload]["failed"]) for r in runs_b
                  if workload in r["workloads"]]
        attempted = [int(r["workloads"][workload]["attempted"])
                     for r in runs_b if workload in r["workloads"]]
        rate = sum(failed) / max(1, sum(attempted))
        verdict = "worse" if sum(failed) else "unchanged"
        bad = bad or sum(failed) > 0
        print("%-12s %-26s %14s %14.6g %8s %7s %5.0f%%  %s" % (
            workload, "error_rate", "", rate, "", "", 0, verdict))

    if args.layers:
        print()
        print("%-12s %-30s %14s %14s %8s" % ("workload", "per-layer metric",
                                              "A median", "B median",
                                              "change"))
        for workload in workloads:
            for metric in config["per_layer"]:
                a = values(runs_a, workload, "per_layer", metric["name"])
                b = values(runs_b, workload, "per_layer", metric["name"])
                if not a or not b:
                    continue
                med_a, med_b = statistics.median(a), statistics.median(b)
                change = (med_b - med_a) / abs(med_a) if med_a else 0.0
                print("%-12s %-30s %14.6g %14.6g %+7.2f%%" % (
                    workload, metric["name"], med_a, med_b, 100 * change))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
