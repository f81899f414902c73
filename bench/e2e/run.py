#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds cesm_bench and cesm_trace from source into build/e2e (the first
run configures and compiles the library; later runs are a no-op build),
then runs the workload from the repository root:

  --trace 0  cesm_bench; prints every end-to-end metric of BENCHMARK.json.
  --trace 1  cesm_bench for the always-on layer counters, then cesm_trace
             for the per-layer ledger; prints every per-layer metric.

The last line of standard output is
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Tool output goes to standard error. Exits non-zero without a result when
the tools cannot be built or a tool dies without writing its JSON.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build", "e2e")
RUN_DEADLINE_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target", "cesm_bench", "cesm_trace"],
                   stdout=sys.stderr, check=True, timeout=850)


def run_tool(argv, out_path, deadline):
    """Run one tool; return its JSON result, or None when it wrote none."""
    if os.path.exists(out_path):
        os.remove(out_path)
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(argv + ["--out=" + out_path], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout)
    sys.stderr.write(proc.stdout)
    if proc.returncode not in (0, 1) or not os.path.exists(out_path):
        log("%s exited with status %d" % (os.path.basename(argv[0]), proc.returncode))
        return None
    with open(out_path) as f:
        return json.load(f)


def select(available, names, what):
    missing = [n for n in names if n not in available]
    if missing:
        raise SystemExit("%s metrics missing from the tool output: %s" % (what, ", ".join(missing)))
    return {n: {"value": available[n]["value"], "unit": available[n]["unit"]} for n in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit("unknown workload %r" % args.workload)

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log("build failed: %s" % e)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    runs = os.path.join(BUILD, "runs")
    work = os.path.join(BUILD, "work")
    os.makedirs(runs, exist_ok=True)
    stem = os.path.join(runs, "%s-seed%d" % (args.workload, args.seed))
    common = ["--workload=" + args.workload, "--seed=%d" % args.seed, "--work-dir=" + work]

    bench = run_tool([os.path.join(BUILD, "cesm_bench"), "--seconds=%g" % args.seconds] + common,
                     stem + "-bench.json", deadline)
    if bench is None:
        return 1
    correct = bool(bench["correct"])
    attempted = int(bench["attempted"])
    failed = int(bench["failed"])

    if args.trace == 0:
        metrics = select(bench["end_to_end"], [m["name"] for m in spec["end_to_end"]], "end-to-end")
    else:
        traced = run_tool([os.path.join(BUILD, "cesm_trace"), "--expect-csv-fnv=" + bench["csv_fnv"],
                           "--spans=" + stem + "-spans.json"] + common,
                          stem + "-trace.json", deadline)
        if traced is None:
            return 1
        correct = correct and bool(traced["correct"])
        attempted += int(traced["attempted"])
        failed += int(traced["failed"])
        layers = dict(bench["layers"])
        layers.update(traced["layers"])
        metrics = select(layers, [m["name"] for m in spec["per_layer"]], "per-layer")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
