#!/usr/bin/env python3
"""Builds the live-stack benchmark from source and runs one workload.

Usage (from the repository root):

    python3 livebench/run.py --workload bin_small --seed 1 --seconds 10 --trace 0

The first run configures and compiles the program's libraries and the
benchmark binary under .bench_build/livebench; later runs only rebuild what
changed. Build output goes to stderr. The binary's stdout is passed through,
so its last line is the JSON result. Exits non-zero, without a result, when
the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "livebench")
BINARY = os.path.join(BUILD_DIR, "livebench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("livebench: no program sources under src/ next to livebench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "livebench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit(f"livebench: build step failed: {' '.join(step)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--spans",
                    os.path.join(BUILD_DIR, f"spans-{args.workload}.csv")]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"livebench: run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"livebench: benchmark binary exited with code {done.returncode}")
    json.loads(lines[-1])  # the result line must parse
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
