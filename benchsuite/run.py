#!/usr/bin/env python3
"""Builds the aqe_bench program from source and runs workloads.

Run from the repository root:

  python3 benchsuite/run.py --workload NAME [--seed N] [--trace 0|1]
      One workload. The last stdout line is the result JSON. A traced run
      also writes its spans to .bench_build/trace_NAME.json.
  python3 benchsuite/run.py --workload all
      Every workload in BENCHMARK.json, untraced, one after another.
  python3 benchsuite/run.py --smoke
      Every workload at SF 0.01 with ~100 queries, untraced and traced.
      Exits non-zero unless every run checked correct and reported every
      metric BENCHMARK.json names. Makes no timing assertion.

Each workload measures a fixed number of queries, the same on every commit,
sized to take about run_seconds. --seconds is accepted, as the benchmark
interface passes it, and does not change the run.

The build (CMake, Release) goes to .bench_build/ in the repository root.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "aqe_bench")
# The benchmark must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "engine", "query_engine.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: the benchmark builds the engine from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = max(1, min(len(os.sched_getaffinity(0)), 4))
    steps.append(["cmake", "--build", BUILD, "--target", "aqe_bench", "-j", str(jobs)])
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed; full log in " + log_path)


def run(workload, seed, trace, smoke=False):
    """Runs one workload; echoes its stdout and returns (exit code, result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result


def smoke_problems(result, trace, benchmark):
    """Why a smoke run's result is unacceptable; empty when it is fine."""
    if result is None:
        return ["last stdout line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{result.get('failed')} of {result.get('attempted')} queries failed")
    if not result.get("attempted", 0) >= 1:
        problems.append("no query attempted")
    expected = benchmark["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    for metric in expected:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append(f"metric {metric['name']} missing")
        elif got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)) \
                or not math.isfinite(got["value"]):
            problems.append(f"metric {metric['name']} reads {got}")
    return problems


def main():
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="accepted and unused; see above")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("give --workload or --smoke")

    build()
    if args.smoke:
        problems = []
        for workload in names:
            for trace in (0, 1):
                code, result = run(workload, args.seed, trace, smoke=True)
                found = smoke_problems(result, trace, benchmark)
                if code != 0:
                    found.append(f"exit code {code}")
                if trace and not os.path.exists(os.path.join(BUILD, f"trace_{workload}.json")):
                    found.append("no trace file")
                problems += [f"{workload} trace={trace}: {p}" for p in found]
        for p in problems:
            print("SMOKE FAIL: " + p, file=sys.stderr)
        sys.exit(1 if problems else 0)

    workloads = names if args.workload == "all" else [args.workload]
    for workload in workloads:
        code, result = run(workload, args.seed, args.trace)
        if code != 0 or result is None:
            fail(f"{workload} exited with code {code}")
    sys.exit(0)


if __name__ == "__main__":
    main()
