#!/usr/bin/env python3
"""Runs the benchmark several times per workload, each run with its own
seed, and records every end-to-end metric's median, quartiles and spread.

Run from the repository root:

    python3 atrbench/steadiness.py --runs 10 --out atrbench/steadiness.json

Seeds are first_seed, first_seed+1, ...; a workload's runs are
consecutive, then the next workload's. The spread of a metric is
(Q3 - Q1) / median, with quartiles as statistics.quantiles(values, n=4)
gives them; BENCHMARK.json's bounds are chosen from it.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated subset (default: all)")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {n: [] for n in names}
    for name in names:
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.time()
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            res["seed"], res["wall_s"] = seed, round(time.time() - t0, 1)
            runs[name].append(res)
            print(name, seed, res["wall_s"], "s",
                  " ".join("%s=%.4g" % (k, v["value"]) for k, v in sorted(res["metrics"].items())),
                  file=sys.stderr, flush=True)

    record = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for name, rs in runs.items():
        summary = {}
        for metric in bounds:
            vals = [r["metrics"][metric]["value"] for r in rs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary[metric] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": bounds[metric],
                "values": vals,
            }
        record["workloads"][name] = {
            "seeds": [r["seed"] for r in rs],
            "all_correct": all(r["correct"] and r["failed"] == 0 for r in rs),
            "attempted": [r["attempted"] for r in rs],
            "wall_s": [r["wall_s"] for r in rs],
            "metrics": summary,
        }
        for metric, s in summary.items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- above a third of its bound"
            print("%-13s %-13s median %10.4g  spread %.3f  bound %.2f%s"
                  % (name, metric, s["median"], s["spread"], s["bound"], flag))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
