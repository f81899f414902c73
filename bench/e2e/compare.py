#!/usr/bin/env python3
"""Compare two sets of cesm_bench runs, metric by metric.

    python3 bench/e2e/compare.py --base A/*-bench.json --change B/*-bench.json

Each file is the JSON cesm_bench writes with --out (run.py keeps them in
build/e2e/runs). Runs are grouped by workload and paired by seed. For each
workload x end-to-end metric of BENCHMARK.json it prints both sides'
median and quartiles, the change of the median, and a verdict:

  better        the change wins at least 9 of 10 paired runs (ties count
                for neither; at least 10 pairs), and the medians differ by
                more than the base's interquartile range;
  worse         the change's median is worse than the base's by more than
                the metric's bound, and the base's spread is within the
                bound or every change run is worse than every base run;
  unresolved    the base's spread (IQR over median) is wider than the
                bound, so "within bound" cannot be claimed, or the median
                moved past the bound inside that spread;
  within bound  otherwise.

Run the two sides alternately (base, change, base, ...) with the same
seeds. Exits 1 when any metric is worse.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(patterns):
    runs = {}
    for pattern in patterns:
        paths = sorted(glob.glob(os.path.join(pattern, "*-bench.json"))) \
            if os.path.isdir(pattern) else sorted(glob.glob(pattern))
        for path in paths:
            with open(path) as f:
                run = json.load(f)
            if run.get("tool") != "cesm_bench" or run.get("smoke"):
                continue
            runs.setdefault(run["workload"], {})[run["seed"]] = run
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, change, pairs, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    mb = statistics.median(base)
    mc = statistics.median(change)
    q1, q3 = quartiles(base)
    spread = (q3 - q1) / abs(mb) if mb else float("inf")
    worse_by = sign * (mc - mb) / abs(mb) if mb else 0.0
    wins = sum(1 for a, c in pairs if sign * (c - a) < 0)
    all_worse = all(sign * (c - a) > 0 for c in change for a in base)
    all_better = all(sign * (c - a) < 0 for c in change for a in base)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(mc - mb) > (q3 - q1) \
            and worse_by < 0:
        return "better"
    if worse_by > bound:
        return "worse" if spread <= bound or all_worse else "unresolved"
    if spread > bound and not all_better:
        return "unresolved"
    return "within bound"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True, help="base run JSONs or directories")
    parser.add_argument("--change", nargs="+", required=True, help="change run JSONs or directories")
    parser.add_argument("--benchmark", default=os.path.join(HERE, "..", "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    base_runs = load_runs(args.base)
    change_runs = load_runs(args.change)

    header = "%-16s %-19s %12s %25s %7s %12s %25s %7s %8s %6s %7s  %s" % (
        "workload", "metric", "base", "base q1..q3", "spread", "change", "change q1..q3",
        "spread", "delta", "bound", "wins", "verdict")
    print(header)
    print("-" * len(header))
    worse = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        base = base_runs.get(workload, {})
        change = change_runs.get(workload, {})
        if not base or not change:
            print("%-16s (no runs on %s side)" % (workload, "base" if not base else "change"))
            continue
        seeds = sorted(set(base) & set(change))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["end_to_end"][name]["value"] for r in base.values()]
            c = [r["end_to_end"][name]["value"] for r in change.values()]
            pairs = [(base[s]["end_to_end"][name]["value"], change[s]["end_to_end"][name]["value"])
                     for s in seeds]
            v = verdict(b, c, pairs, metric["better"], metric["bound"])
            worse += v == "worse"
            mb, mc = statistics.median(b), statistics.median(c)
            bq, cq = quartiles(b), quartiles(c)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
            print("%-16s %-19s %12.6g %12.6g..%-12.6g %6.2f%% %12.6g %12.6g..%-12.6g %6.2f%% %+7.2f%% %5.0f%% %3d/%-3d  %s" % (
                workload, name, mb, bq[0], bq[1], 100 * (bq[1] - bq[0]) / abs(mb) if mb else 0,
                mc, cq[0], cq[1], 100 * (cq[1] - cq[0]) / abs(mc) if mc else 0,
                100 * (mc - mb) / abs(mb) if mb else 0, 100 * metric["bound"],
                wins, len(pairs), v))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
