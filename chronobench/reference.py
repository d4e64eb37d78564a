#!/usr/bin/env python3
"""Records the reference arm and the wiki-wire rate sweep in reference.json.

    python3 chronobench/reference.py --seeds 1-3

Reference arm: every workload (the gated ones of BENCHMARK.json and the
ungated seats-cpu) is run with learning and combining off (--mode lru, the
LRU-equivalent configuration) and with the default ChronoCache
configuration, alternating which runs first per seed; the file keeps each
side's medians and the ChronoCache/LRU ratios of goodput, mean latency and
WAN round trips per transaction. Rate sweep: wiki-wire at
several open-loop arrival rates, showing where the fixed rate sits against
the node's capacity. This is a record, not a gate. Run from the root of a
checkout; with --seconds 20 it takes about a quarter of an hour.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RATIO_METRICS = ["goodput_txn_per_s", "txn_mean_ms", "wan_round_trips_per_txn"]
UNGATED_WORKLOADS = ["seats-cpu"]
SWEEP_RATES = [50, 100, 200, 300, 400, 500]


def seeds(text):
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run(workload, seed, seconds, extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"] + extra
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("output checks failed: %s" % " ".join(cmd))
    return {k: v["value"] for k, v in result["metrics"].items()}


def medians(rows):
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-3")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    doc = {
        "recorded": datetime.date.today().isoformat(),
        "host": "%s, %d cpus" % (platform.machine(), os.cpu_count() or 0),
        "command": "python3 chronobench/reference.py --seeds %s --seconds %d"
                   % (args.seeds, args.seconds),
        "reference_arm": {},
        "wiki_wire_rate_sweep": [],
    }
    for name in [w["name"] for w in bench["workloads"]] + UNGATED_WORKLOADS:
        arms = {"chrono": [], "lru": []}
        for i, seed in enumerate(seeds(args.seeds)):
            order = ["chrono", "lru"] if i % 2 == 0 else ["lru", "chrono"]
            for mode in order:
                arms[mode].append(run(name, seed, args.seconds,
                                      ["--mode", mode]))
                print(name, seed, mode, arms[mode][-1], flush=True)
        chrono, lru = medians(arms["chrono"]), medians(arms["lru"])
        doc["reference_arm"][name] = {
            "chrono_median": chrono,
            "lru_median": lru,
            "chrono_over_lru": {m: chrono[m] / lru[m] for m in RATIO_METRICS},
        }
    for rate in SWEEP_RATES:
        rows = [run("wiki-wire", seed, args.seconds, ["--rate", str(rate)])
                for seed in seeds(args.seeds)[:2]]
        row = {"rate_txn_per_s": rate}
        row.update(medians(rows))
        doc["wiki_wire_rate_sweep"].append(row)
        print("rate", row, flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
