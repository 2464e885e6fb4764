#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarize each metric.

Run from the root of a source checkout:

    python3 e2ebench/spread.py --workloads fattree-suite --seeds 1-10
    python3 e2ebench/spread.py --seeds 1-10 --out spread.json

For every workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread, i.e. the
distance between the quartiles as a share of the median. A later change
that moves a median by less than this spread cannot tell "unchanged" from
"unresolved". Each end-to-end spread is also compared with a third of its
bound in BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["fattree-report", "fattree-suite", "regional-churn"]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: output checks failed")
    return result, wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0,
            "min": min(values), "max": max(values), "n": len(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    summary = {}
    over = []
    for workload in args.workloads.split(","):
        runs = {}
        walls = []
        for seed in parse_seeds(args.seeds):
            result, wall = run_once(workload, seed, args.seconds)
            walls.append(wall)
            for name, m in result["metrics"].items():
                runs.setdefault(name, ([], m["unit"]))[0].append(m["value"])
            print(f"# {workload} seed {seed}: {wall:.1f}s", file=sys.stderr)
        summary[workload] = {"wall_s_per_run": summarize(walls) if len(walls) > 1 else walls}
        print(f"{workload}  ({len(walls)} runs, {sum(walls):.0f}s wall)")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}  unit")
        for name, (values, unit) in runs.items():
            if len(values) < 2:
                continue
            s = summarize(values)
            s["unit"] = unit
            s["values"] = values
            summary[workload][name] = s
            flag = ""
            if name in bounds and name != "setup_s":
                flag = "  OK" if s["spread"] <= bounds[name] / 3 else "  WIDE"
                if flag == "  WIDE":
                    over.append(f"{workload}/{name}")
            print(f"  {name:28s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.2%}  {unit}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    if over:
        print("spread above a third of the bound: " + ", ".join(over))
    return 0


if __name__ == "__main__":
    sys.exit(main())
