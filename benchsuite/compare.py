#!/usr/bin/env python3
"""Compares two sets of benchmark runs against BENCHMARK.json's bounds.

  python3 benchsuite/compare.py BASE_DIR NEW_DIR

The metrics and bounds come from the repository's BENCHMARK.json.

Each directory holds run results named WORKLOAD.runN.json, each file the
last stdout line of one untraced run, e.g.

  python3 benchsuite/run.py --workload repeat-sf0.1 | tail -n 1 > new/repeat-sf0.1.run1.json

Every workload needs at least 3 runs per side. One row is printed per
workload and end-to-end metric: each side's median and quartiles, the
change of the median in the metric's worse direction, and a status:

  unresolved  either side's interquartile spread (as a share of its median)
              exceeds the bound, and not every NEW run reads better than
              every BASE run;
  regressed   NEW's median is worse than BASE's by more than the bound;
  ok          otherwise.

Exits 1 when any metric regressed or any run failed its correctness check.
"""
import argparse
import json
import os
import re
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")
RUN_FILE = re.compile(r"^(?P<workload>.+)\.run\d+\.json$")
MIN_RUNS = 3


def load_runs(directory):
    """{workload: [result, ...]} from the WORKLOAD.runN.json files."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        match = RUN_FILE.match(name)
        if match:
            with open(os.path.join(directory, name)) as f:
                runs.setdefault(match["workload"], []).append(json.load(f))
    return runs


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()
    with open(BENCHMARK) as f:
        benchmark = json.load(f)
    sides = {"base": load_runs(args.base), "new": load_runs(args.new)}

    bad = False
    for side, runs in sides.items():
        for workload, results in runs.items():
            failed = [r for r in results if r.get("correct") is not True or r.get("failed")]
            if failed:
                print(f"{side} {workload}: {len(failed)} run(s) failed the correctness check")
                bad = True

    print(f"{'workload':18} {'metric':18} {'base q1/med/q3':>30} {'new q1/med/q3':>30} "
          f"{'worse':>8} {'bound':>6}  status")
    for workload in (w["name"] for w in benchmark["workloads"]):
        counts = [len(runs.get(workload, [])) for runs in sides.values()]
        if min(counts) < MIN_RUNS:
            print(f"{workload:18} needs >= {MIN_RUNS} runs per side, has {counts[0]} and {counts[1]}")
            bad = True
            continue
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = {side: [r["metrics"][name]["value"] for r in runs[workload]]
                      for side, runs in sides.items()}
            base, new = summary(values["base"]), summary(values["new"])
            lower_is_better = metric["better"] == "lower"
            worse = (new[1] - base[1]) / base[1] * (1 if lower_is_better else -1)
            spreads = [(q3 - q1) / med for q1, med, q3 in (base, new)]
            if lower_is_better:
                all_better = max(values["new"]) < min(values["base"])
            else:
                all_better = min(values["new"]) > max(values["base"])
            if max(spreads) > bound and not all_better:
                status = "unresolved"
            elif worse > bound:
                status = "regressed"
                bad = True
            else:
                status = "ok"
            cols = ["/".join(f"{v:.4g}" for v in side) for side in (base, new)]
            print(f"{workload:18} {name:18} {cols[0]:>30} {cols[1]:>30} "
                  f"{worse * 100:7.2f}% {bound * 100:5.0f}%  {status}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
