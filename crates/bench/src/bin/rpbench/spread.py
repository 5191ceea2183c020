#!/usr/bin/env python3
"""Run-to-run spread of rpbench, and agreement between two sets of runs.

Runs every workload once per seed (seeds 1..RUNS), for SETS interleaved
sets, through run.sh from the repository root. For each metric it prints
the median of each set, the spread (Q3 - Q1) / median of each set with
quartiles from statistics.quantiles(values, n=4), and how much worse the
last set's median is than the first's. A metric is flagged when a spread
exceeds a third of its bound in BENCHMARK.json, or when the shift between
sets exceeds the bound.

    python3 crates/bench/src/bin/rpbench/spread.py --sets 2 --runs 10

Per-layer metrics (--trace 1) have no bound and are only summarized.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", "..", "..", "..", ".."))


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        ["bash", os.path.join(HERE, "run.sh"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: checks failed\n{out.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--workload", action="append")
    p.add_argument("--raw", action="store_true", help="print every run's value")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    flagged = 0
    for w in workloads:
        sets = [[] for _ in range(args.sets)]
        for seed in range(1, args.runs + 1):
            for s in sets:
                s.append(run(w, seed, bench["run_seconds"], args.trace))
        print(f"\n{w}")
        for name in sets[0][0]:
            stats = [spread([r[name] for r in s]) for s in sets]
            bound, better = bounds.get(name, (None, "lower"))
            first, last = stats[0][0], stats[-1][0]
            worse = (last - first) / first if first else 0.0
            if better == "higher":
                worse = -worse
            line = "  ".join(f"median {m:.6g} spread {sp:.4f}" for m, sp in stats)
            flag = ""
            if bound is not None:
                wide = any(sp > bound / 3 for _, sp in stats) and name != "setup_s"
                if wide or worse > bound:
                    flag, flagged = "  <-- over", flagged + 1
                line += f"  worse {worse:+.4f}  bound {bound}"
            print(f"  {name:32} {line}{flag}")
            if args.raw:
                for i, s in enumerate(sets):
                    print(f"    set {i + 1}: " + " ".join(f"{r[name]:.6g}" for r in s))
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
