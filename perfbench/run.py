#!/usr/bin/env python3
"""End-to-end benchmark of the block-parallel compiler, simulator and runtime.

Builds the benchmark driver (perfbench/main.cpp, linked against the
library sources in src/) into .bench_build/perfbench, runs one workload and
prints the driver's result as the last line of standard output:

    python3 perfbench/run.py --workload fig1 --seed 1 --seconds 40 --trace 0

Workloads (see kWorkloads in main.cpp):
    fig1       the paper's Fig. 1(b) app: 1x1-pixel firings, histogram merge
    analytics  the video-analytics flagship: feedback loop, two sinks

--trace 0 reports the end-to-end metrics (host ms/frame, simulator
firings/s, paced multi-tenant frame lag p50/p90, set-up time); --trace 1 runs the
same phases with tracing on and reports per-layer metrics instead, writing
benchmark-side spans to .bench_build/perfbench/spans-<workload>-<seed>.json.
Exits non-zero without a result when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configure once, then bring the driver up to date. Build output goes
    to stderr so that stdout carries only the result."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD_DIR, f"spans-{args.workload}-{args.seed}.json")]
    try:
        # subprocess.run kills and reaps the driver if it overruns.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=3 * args.seconds + 60)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"perfbench: driver exited with {proc.returncode}", file=sys.stderr)
        return 4

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
    except (IndexError, ValueError, AssertionError):
        print("perfbench: driver printed no valid result", file=sys.stderr)
        return 5
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
