#!/usr/bin/env python3
"""meetxml end-to-end benchmark: query text in, rows out.

    python3 bench/e2e/run.py [--seed N] [--workloads a,b] [--duration S]
                             [--trace 0|1] [--smoke]

Builds bench/e2e in Release into bench/e2e/build-bench, then for each
workload writes its seeded inputs (`meetxml_e2e --generate`, a process
of its own, so the measured program sees only XML files) and runs the
workload in its own process, so peak RSS is per workload. Every metric
is printed as `workload metric value unit`; the whole run is written to
bench/e2e/out/<run>.json and each traced pass to
bench/e2e/out/trace_<workload>.json. The last line of output is one JSON
object with the keys correct, attempted, failed and metrics. The exit
code is non-zero on any wrong answer or failed paper-shape check.

--trace 0 runs only the measured window and reports the end-to-end
metrics; --trace 1 adds the traced pass and reports the per-layer ones.
Without --trace a run does both and reports everything. --smoke runs
each workload for 1 s with one set-up and no traced pass: the oracles
only.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(HERE, "build-bench")
WORK = os.path.join(HERE, "work")
OUT = os.path.join(HERE, "out")
BINARY = os.path.join(BUILD, "meetxml_e2e")
WORKLOADS = ["fig7_icde", "fig6_scan", "fanout_topk", "store_churn"]

BUILD_TIMEOUT_S = 900
GENERATE_TIMEOUT_S = 120
# A run must finish within 180 s; a traced run of one workload takes
# about a minute.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def benchmark_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "meetxml_e2e"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("build timed out: " + " ".join(step))
            return False
        if done.returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return True


def run_program(args, timeout):
    """Runs meetxml_e2e; returns its stdout, or None on failure."""
    try:
        done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("timed out: meetxml_e2e " + " ".join(args))
        return None
    if done.returncode != 0:
        log("failed (exit %d): meetxml_e2e %s" % (done.returncode,
                                                  " ".join(args)))
        return None
    return done.stdout


def run_workload(workload, seed, seconds, trace, smoke):
    """Generates inputs and runs one workload; returns its JSON or None."""
    inputs = os.path.join(WORK, "inputs-%d" % seed, workload)
    scratch = os.path.join(WORK, "scratch-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    try:
        if run_program(["--generate", "--workload", workload,
                        "--seed", str(seed), "--out", inputs],
                       GENERATE_TIMEOUT_S) is None:
            return None
        args = ["--workload", workload, "--inputs", inputs,
                "--scratch", scratch, "--seconds", str(seconds),
                "--trace", "1" if trace else "0"]
        if smoke:
            args += ["--warmup", "0.2", "--setups", "1"]
        if trace:
            args += ["--trace-file",
                     os.path.join(OUT, "trace_%s.json" % workload)]
        stdout = run_program(args, RUN_TIMEOUT_S)
        if stdout is None or not stdout.strip():
            return None
        return json.loads(stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.rmtree(os.path.join(WORK, "inputs-%d" % seed),
                      ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=[],
                        choices=WORKLOADS, help="a workload to run "
                        "(repeatable)")
    parser.add_argument("--workloads", default="",
                        help="comma-separated workloads (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", "--duration", dest="seconds",
                        type=float, default=None,
                        help="measured window per workload (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--run-name", default=None,
                        help="name of bench/e2e/out/<run>.json")
    args = parser.parse_args()

    workloads = list(args.workload)
    workloads += [w for w in args.workloads.split(",") if w]
    for workload in workloads:
        if workload not in WORKLOADS:
            parser.error("unknown workload " + workload)
    workloads = workloads or WORKLOADS

    config = benchmark_config()
    seconds = args.seconds if args.seconds is not None else config[
        "run_seconds"]
    traced = args.trace != 0 and not args.smoke
    if args.smoke:
        seconds = 1
    if not build():
        return 2

    started = time.time()
    results = {}
    for workload in workloads:
        log("running %s (seed %d, %g s)" % (workload, args.seed, seconds))
        result = run_workload(workload, args.seed, seconds, traced,
                              args.smoke)
        if result is None:
            return 2
        results[workload] = result

    # Which metric sets the final line carries: --trace picks one, a
    # plain run reports both.
    sets = ["end_to_end", "per_layer"]
    if args.trace == 0 or args.smoke:
        sets = ["end_to_end"]
    elif args.trace == 1:
        sets = ["per_layer"]
    metrics = {}
    correct = True
    attempted = failed = 0
    for workload, result in results.items():
        correct = correct and result["correct"]
        attempted += int(result["attempted"])
        failed += int(result["failed"])
        for metric_set in ("end_to_end", "per_layer"):
            for name, item in result.get(metric_set, {}).items():
                print("%s %s %r %s" % (workload, name, item["value"],
                                       item["unit"]))
                if metric_set in sets:
                    key = name if len(results) == 1 else workload + "." + name
                    metrics[key] = item
        info = result["info"]
        print("%s samples %d count" % (workload, info["samples"]))
        print("%s error_rate %r fraction" % (workload, info["error_rate"]))
        for check in result["checks"]:
            print("# %s %s: %s — %s" % (workload, check["name"],
                                         "ok" if check["ok"] else "FAILED",
                                         check["detail"]))

    run_name = args.run_name or time.strftime("%Y%m%d-%H%M%S") + (
        "-seed%d" % args.seed)
    record = {
        "run": run_name,
        "seed": args.seed,
        "seconds": seconds,
        "traced": traced,
        "smoke": args.smoke,
        "wall_s": time.time() - started,
        "workloads": results,
    }
    with open(os.path.join(OUT, run_name + ".json"), "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
