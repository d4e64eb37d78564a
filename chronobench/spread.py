#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 chronobench/spread.py --workloads tpce-wan,wiki-wire --seeds 1-10

For every workload and end-to-end metric it prints the median of the runs
and the distance between the first and third quartile as a share of the
median (statistics.quantiles(values, n=4)), next to the metric's bound in
BENCHMARK.json and a third of it, the level a steady metric stays under.
Raw results are appended as JSON lines to --out (default
.bench_build/spread.jsonl). Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace, extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    result["exit"] = proc.returncode
    result["workload"] = workload
    result["seed"] = seed
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", default=os.path.join(".bench_build",
                                                      "spread.jsonl"))
    parser.add_argument("extra", nargs="*",
                        help="further arguments for the benchmark, after --")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    worst = 0.0
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds(args.seeds):
            r = run(workload, seed, args.seconds, 0, args.extra)
            with open(args.out, "a") as f:
                f.write(json.dumps(r) + "\n")
            print("%s seed %d: exit %d correct %s" %
                  (workload, seed, r["exit"], r.get("correct")), flush=True)
            results.append(r)
        print("%-10s %-26s %12s %8s %8s %8s" %
              ("workload", "metric", "median", "iqr/med", "bound/3", "bound"))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results
                      if "metrics" in r]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else float("inf")
            if name != "setup_s":
                worst = max(worst, share / bound)
            print("%-10s %-26s %12.5g %8.4f %8.4f %8.4f%s" %
                  (workload, name, med, share, bound / 3, bound,
                   "" if share < bound / 3 or name == "setup_s" else "  WIDE"),
                  flush=True)
    print("widest spread as a share of its bound: %.3f" % worst)


if __name__ == "__main__":
    main()
