#!/usr/bin/env python3
"""Runs the benchmark repeatedly and reports how steady each metric is.

    python3 tklusbench/steady.py [--workload NAME ...] [--runs 10]
                                 [--first-seed 1] [--trace 0|1]

Run from the repository root. Each run uses the next seed. For every
workload and metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and,
for end-to-end metrics, the bound from BENCHMARK.json and whether the
spread is under it and under a third of it. It also prints each
workload's share of failed operations and whether every run was correct.
The bounds in BENCHMARK.json are set with this tool.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, elapsed


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in workloads:
        values = {}
        attempted = failed = 0
        all_correct = True
        for i in range(args.runs):
            seed = args.first_seed + i
            code, result, elapsed = run_once(bench["command"], workload,
                                             seed, args.seconds, args.trace)
            if result is None or code != 0 or not result["correct"]:
                all_correct = False
            shown = " ".join(f"{k}={v['value']:.5g}" for k, v in
                             (result or {}).get("metrics", {}).items()
                             if k in bounds)
            print(f"{workload} seed {seed}: exit {code} in {elapsed:.1f} s "
                  f"{shown}", file=sys.stderr)
            if result is None:
                continue
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n== {workload}: {args.runs} runs, correct={all_correct}, "
              f"failed {failed}/{attempted} operations")
        print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], 0, vals[0]))
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and args.trace == 0:
                steady = spread <= bound / 3
                verdict = ("steady" if steady else
                           "within bound" if spread <= bound else "TOO WIDE")
                ok &= spread <= bound or name == "setup_s"
            print(f"{name:36} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6} "
                  f"{verdict}")
        ok &= all_correct
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
