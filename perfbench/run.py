#!/usr/bin/env python3
"""Builds the benchmark and the shipped `dmc` binary, then runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload weblog --seed 1 --seconds 20 --trace 0

Both builds are release builds into $CARGO_TARGET_DIR (default
`.bench_build`); results and traces go under `<target dir>/perfbench`.
Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. A failed build exits non-zero without a result.
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "dmc-cli"],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return built.returncode or 1
    out = os.path.join(target, "perfbench")
    os.makedirs(out, exist_ok=True)
    bench = os.path.join(target, "release", "perfbench")
    dmc = os.path.join(target, "release", "dmc")
    return subprocess.run([bench, *sys.argv[1:], "--dmc", dmc, "--out", out]).returncode


if __name__ == "__main__":
    sys.exit(main())
