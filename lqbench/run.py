#!/usr/bin/env python3
"""Builds lqbench from source and runs one workload.

    python3 lqbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is built (Release) under
.bench_build/lqbench; its stdout is passed through, and its last line is the
result JSON. Build output goes to stderr. The exit code is the program's,
or 3 when the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "lqbench"
WORKLOADS = ("join-heavy", "service-mix")


def build():
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", str(BUILD), "--target", "lqbench",
           "-j", str(min(4, os.cpu_count() or 1))]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not build():
        print("lqbench: build failed", file=sys.stderr)
        return 3
    cmd = [str(BUILD / "lqbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace,
           "--out-dir", str(ROOT / ".bench_build" / "lqbench-out")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
