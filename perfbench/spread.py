#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
                                [--seconds S] [--workload W ...] [--trace 0|1]

For every workload and metric it prints the median of the runs and the
distance between the first and third quartiles as a share of the
median (statistics.quantiles(values, n=4)), next to the metric's bound
from BENCHMARK.json. A spread above a third of the bound is flagged
with '!', above the bound with '!!'; the values follow in run order,
so a drift of the machine over the runs shows. Every run must succeed. Runs go
through run.py, one after another, from the root of a checkout, in rounds:
run k of every workload comes before run k+1 of any, so each workload's set
spans the whole session and sees the host's drift over it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    failed = False
    values = {w: {} for w in workloads}
    for k in range(args.runs):
        seed = args.first_seed + k
        for w in workloads:
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            if r.returncode != 0:
                print(f"{w} seed {seed}: run failed (exit {r.returncode})")
                failed = True
                continue
            result = json.loads(r.stdout.splitlines()[-1])
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
    for w in workloads:
        print(f"== {w} ({args.runs} runs, {seconds}s each)")
        for name, vs in values[w].items():
            med = statistics.median(vs)
            if len(vs) >= 2 and med != 0:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / abs(med)
            else:
                spread = 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = " !!"
            elif bound is not None and spread > bound / 3:
                flag = " !"
            btxt = f" bound {bound}" if bound is not None else ""
            print(f"  {name:28s} median {med:<14.6g} spread {spread:.4f}"
                  f"{btxt}{flag}")
            print("    runs: " + " ".join(f"{v:.5g}" for v in vs))
        sys.stdout.flush()
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
