#!/usr/bin/env python3
"""Repeat runner: runs each workload many times and reports, per metric, the
median, the quartiles and the relative spread (interquartile range over the
median, from statistics.quantiles(values, n=4)).

    python3 lqbench/repeat.py [--workloads A,B] [--runs 10] [--seed-base 1]
                              [--seconds S] [--trace 0|1] [--out FILE]

Seeds are seed-base, seed-base + 1, ... (one per run); the holdout seeds,
never used for tuning, start at 900001 (--seed-base 900001). The spread of
every end-to-end metric is compared with a third of its bound in
BENCHMARK.json, the steadiness target the bounds were chosen against.
Workloads take turns seed by seed. Run from the root of a checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, elapsed


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--out", help="write every run's result JSON here")
    args = ap.parse_args()
    base = args.seed_base
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")

    raw = {}
    values = {w: {} for w in workloads}
    status = 0
    # Seed by seed, every workload in turn, so that drift in the host's
    # speed over the series of runs reaches every workload alike.
    for i in range(args.runs):
        seed = base + i
        for workload in workloads:
            code, result, elapsed = run_once(workload, seed, args.seconds,
                                             args.trace)
            raw.setdefault(workload, []).append(
                {"seed": seed, "exit": code, "elapsed_s": elapsed,
                 "result": result})
            ok = code == 0 and result and result["correct"]
            print(f"{workload} seed={seed} exit={code} correct={bool(ok)} "
                  f"{elapsed:.1f}s", flush=True)
            if not ok:
                status = 1
                continue
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
    for workload in workloads:
        print(f"\n== {workload} (trace={args.trace}, {args.runs} runs, "
              f"seeds {base}..{base + args.runs - 1})")
        print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound/3':>8}")
        for name, vals in sorted(values[workload].items()):
            med, q1, q3, spread = summarize(vals)
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s":
                mark = "ok" if spread < bound / 3 else "WIDE"
            third = f"{bound / 3:8.3f}" if bound is not None else " " * 8
            print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.3f} {third} {mark}")
    print(flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(raw, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
