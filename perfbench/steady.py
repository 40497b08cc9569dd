#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

Usage, from the root of the repository:

    python3 perfbench/steady.py [--first-seed 1] [--out FILE]

Runs every workload in BENCHMARK.json once on each of ten seeds, starting
at --first-seed, for run_seconds (each run a fresh process, workloads one
after another, as a harness measuring the benchmark would). It then prints
and writes, for each end-to-end metric, the median and quartiles of its
values and the spread: the distance between the first and third quartile
as a share of the median (statistics.quantiles(values, n=4)). It exits 0
when every spread stays within a third of the metric's bound in
BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summarize(results, bounds):
    metrics = {}
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med
        metrics[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bounds[name],
            "values": values,
        }
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + SEEDS))

    record = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for w in workloads:
        results = [run_once(w, s, seconds) for s in seeds]
        metrics = summarize(results, bounds)
        record["workloads"][w] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
        print(f"{w}: correct={record['workloads'][w]['correct']} "
              f"failed={record['workloads'][w]['failed']}")
        for name, m in metrics.items():
            ok = m["spread"] <= m["bound"] / 3
            steady = steady and ok
            print(f"  {name:18s} median {m['median']:12.6g} {m['unit']:8s} "
                  f"q1 {m['q1']:12.6g} q3 {m['q3']:12.6g} "
                  f"spread {m['spread']:.4f} bound {m['bound']}"
                  f"{'' if ok else '  (over a third of the bound)'}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
