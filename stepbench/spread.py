#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the command from BENCHMARK.json once per seed on one workload and
prints, for every metric, the median and quartiles of its values across
the runs and their interquartile distance as a share of the median, next
to the metric's bound. Run from the repository root:

    python3 stepbench/spread.py --workload fpdt_long --seeds 1-5
    python3 stepbench/spread.py --workload ulysses_dense --seeds 11-20 --trace 1

A spread below a third of the bound is steady; above the bound, the
benchmark cannot resolve a regression of that size on that workload.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", type=int, help="defaults to run_seconds")
    ap.add_argument("--verbose", action="store_true", help="also print every run's value")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        run = subprocess.run(cmd, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.stderr.write(run.stdout + run.stderr)
            sys.exit(f"seed {seed}: exit {run.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect run: {lines[-1]}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: ok", file=sys.stderr)

    print(f"{'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "steady" if spread < bound / 3 else ("within" if spread <= bound else "WIDE")
        shown = "" if bound is None else f"{bound:.2f}"
        print(f"{name:<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {shown:>6} {flag}")
        if args.verbose:
            print("    " + " ".join(f"{v:.6g}" for v in vals))


if __name__ == "__main__":
    main()
