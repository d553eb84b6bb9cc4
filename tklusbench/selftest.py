#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 tklusbench/selftest.py

Run from the repository root. Builds like run.py, then:
  1. runs tklusbench_selftest: the tie-aware comparator must fail a
     planted score change and pass two swapped equal-score users, and no
     tail percentile may come from fewer than ten samples beyond it;
  2. runs a short serve-small run with --plant-fault, which perturbs one
     checked answer: the command must print correct=false and exit
     non-zero;
  3. runs the same short run without it, which must pass.
Exits 0 only when all three hold.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def short_run(out, extra):
    argv = [os.path.join(out, "tklusbench"), "--workload", "serve-small",
            "--seed", "1", "--seconds", "2", "--trace", "0",
            "--workdir", os.path.join(out, "selftest-work")] + extra
    proc = subprocess.run(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main():
    out = run.build_dir()
    if not run.build(out):
        print("selftest: build failed")
        return 1
    failures = 0
    unit = subprocess.call([os.path.join(out, "tklusbench_selftest")])
    if unit != 0:
        failures += 1
    code, result = short_run(out, ["--plant-fault"])
    planted_fails = code != 0 and result is not None and not result["correct"]
    print(f"{'ok  ' if planted_fails else 'FAIL'}: a planted wrong answer "
          f"fails the command (exit {code})")
    failures += not planted_fails
    code, result = short_run(out, [])
    clean_passes = code == 0 and result is not None and result["correct"]
    print(f"{'ok  ' if clean_passes else 'FAIL'}: the same run without it "
          f"passes (exit {code})")
    failures += not clean_passes
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
