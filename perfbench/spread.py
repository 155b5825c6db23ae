#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs BENCHMARK.json's command on several seeds per workload and prints,
for each metric, the median and the interquartile distance as a share of
the median (statistics.quantiles(values, n=4)), next to the metric's
bound. Run from the root of a checkout, after one build:

    python3 perfbench/spread.py [--seeds 10] [--trace 0] [workload ...]

A run that exits non-zero or reports correct=false stops the script.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    specs = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    for name in names:
        values = {m["name"]: [] for m in specs}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"{name} seed {seed}: correct=false\n{out.stderr}")
            for m, v in result["metrics"].items():
                values[m].append(v["value"])
        print(f"== {name} ({args.seeds} seeds from {args.first_seed})")
        for m in specs:
            vs = values[m["name"]]
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
            print(f"  {m['name']:<40} median {med:<16.6g} spread {spread:8.4f}"
                  f"  bound {bound if bound is not None else '-'}{flag}")


if __name__ == "__main__":
    main()
