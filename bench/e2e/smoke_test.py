#!/usr/bin/env python3
"""Smoke test of the benchmark tools (registered with ctest as e2e_smoke).

Runs every workload of BENCHMARK.json through cesm_bench --smoke and
cesm_trace --smoke, and checks that both succeed, that the traced CSV
matches the timed one, that the ledger adds up, and that the metric names
each workload emits are exactly the names BENCHMARK.json lists.
"""

import argparse
import json
import os
import subprocess
import sys


def run(argv):
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                          timeout=120)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise SystemExit("%s exited with status %d" % (" ".join(argv), proc.returncode))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bin-dir", required=True)
    parser.add_argument("--benchmark", required=True)
    args = parser.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    out = os.path.join(args.bin_dir, "smoke")
    os.makedirs(out, exist_ok=True)
    common = ["--smoke", "--seed=1", "--work-dir=" + out]

    for workload in [w["name"] for w in spec["workloads"]]:
        bench_json = os.path.join(out, workload + "-bench.json")
        trace_json = os.path.join(out, workload + "-trace.json")
        run([os.path.join(args.bin_dir, "cesm_bench"), "--workload=" + workload,
             "--out=" + bench_json] + common)
        with open(bench_json) as f:
            bench = json.load(f)
        run([os.path.join(args.bin_dir, "cesm_trace"), "--workload=" + workload,
             "--expect-csv-fnv=" + bench["csv_fnv"], "--out=" + trace_json] + common)
        with open(trace_json) as f:
            traced = json.load(f)

        problems = []
        if not bench["correct"] or bench["failed"] != 0:
            problems.append("cesm_bench reported %d failed operations" % bench["failed"])
        if set(bench["end_to_end"]) != end_to_end:
            problems.append("end-to-end names %s != BENCHMARK.json %s"
                            % (sorted(bench["end_to_end"]), sorted(end_to_end)))
        overlap = set(bench["layers"]) & set(traced["layers"])
        if overlap:
            problems.append("both tools emit %s" % sorted(overlap))
        if set(bench["layers"]) | set(traced["layers"]) != per_layer:
            problems.append("per-layer names differ from BENCHMARK.json: %s"
                            % sorted((set(bench["layers"]) | set(traced["layers"])) ^ per_layer))
        if not traced["correct"] or abs(traced["ledger_sum_error"]) > 0.01:
            problems.append("ledger does not add up (error %g)" % traced["ledger_sum_error"])
        if problems:
            raise SystemExit("%s: %s" % (workload, "; ".join(problems)))
        print("%s: ok (%d end-to-end, %d per-layer metrics)"
              % (workload, len(end_to_end), len(per_layer)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
