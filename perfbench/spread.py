#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload link --seeds 1-10 [--seconds 20] [--trace 0]

For each metric: the median of the runs and the distance between the
first and third quartiles (statistics.quantiles(values, n=4)) as a share
of that median — the figure the benchmark's bounds are checked against.
Run from the root of a checkout; every run goes through perfbench/run.py.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", default="20")
    p.add_argument("--trace", default="0")
    p.add_argument("--raw", action="store_true", help="also print every run's value")
    a = p.parse_args()
    values = {}
    units = {}
    for seed in a.seeds:
        start = time.monotonic()
        run = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", a.workload,
             "--seed", str(seed), "--seconds", a.seconds, "--trace", a.trace],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        wall = time.monotonic() - start
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print(f"seed {seed}: exit {run.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: {wall:.1f} s, attempted {result['attempted']}, "
              f"failed {result['failed']}", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print(f"{'metric':<28} {'median':>14} {'iqr/median':>10}  unit")
    for name, vs in values.items():
        med = statistics.median(vs)
        spread = float("nan")
        if len(vs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
        print(f"{name:<28} {med:>14.6g} {spread:>10.4f}  {units[name]}"
              + (f"  {' '.join(f'{v:.4g}' for v in vs)}" if a.raw else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
