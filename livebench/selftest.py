#!/usr/bin/env python3
"""Self-test of the live-stack benchmark.

Runs every workload briefly, untraced and traced, and checks that
  * the last stdout line is the JSON result, with correct=true and no
    failed call (error_rate 0);
  * the untraced run emits exactly the end_to_end metrics of BENCHMARK.json
    and the traced run exactly its per_layer metrics, each with its unit and
    a finite value, end-to-end values non-zero;
  * the traced breakdown (client self + front + server handle) is within
    10% of the client call span.

Usage (from the repository root):  python3 livebench/selftest.py [seconds]
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900, check=False)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n"
                             f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def check(result, expected, label, nonzero):
    problems = []
    if result["correct"] is not True:
        problems.append("correct is not true")
    if result["attempted"] < 1 or result["failed"] != 0:
        problems.append(f"attempted={result['attempted']} failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, want {unit!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        elif nonzero and value == 0:
            problems.append(f"{name}: end-to-end value is 0")
    return [f"{label}: {p}" for p in problems]


def main():
    seconds = float(sys.argv[1]) if len(sys.argv) > 1 else 2.0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        problems += check(run(workload, 0, seconds), end_to_end,
                          f"{workload} untraced", nonzero=True)
        traced = run(workload, 1, seconds)
        problems += check(traced, per_layer, f"{workload} traced", nonzero=False)
        m = traced["metrics"]
        if m.get("error_rate", {}).get("value") != 0:
            problems.append(f"{workload}: error_rate is not 0")
        ratio = m.get("trace.breakdown_ratio", {}).get("value", 0)
        if not 0.9 <= ratio <= 1.1:
            problems.append(f"{workload}: breakdown ratio {ratio:.3f} outside 0.9..1.1")
        print(f"{workload}: ok" if not problems else f"{workload}: checked", flush=True)

    for p in problems:
        print("FAIL", p)
    if problems:
        sys.exit(1)
    print("selftest passed")


if __name__ == "__main__":
    main()
