#!/usr/bin/env python3
"""Builds the TkLUS benchmark from source and runs one workload.

    python3 tklusbench/run.py --workload serve-small --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and compiles the
repository's libraries and the benchmark under .bench_build/tklusbench
(CARGO_TARGET_DIR names the build root when set); later runs reuse it.
All arguments go to the benchmark binary, whose last line of output is
the result. The exit code is the binary's, or 1 when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "tklusbench")


def build(out):
    """Configures (once) and builds; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "tklusbench", "tklusbench_selftest"])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        print("tklusbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--workdir" not in args:
        args += ["--workdir", os.path.join(out, "work")]
    return subprocess.call([os.path.join(out, "tklusbench")] + args)


if __name__ == "__main__":
    sys.exit(main())
