#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds
perfbench (and the library from src/) under .bench_build/; later runs only
rebuild what changed.  The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}; its metric names are
checked against BENCHMARK.json before it is printed.  Any failure exits
with a nonzero code and prints no result.
"""
import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then rebuilds; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    make = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, \
        {w["name"] for w in spec["workloads"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    metrics, workloads = expected_metrics(args.trace == 1)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"perfbench exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(proc.stdout)
        fail("the last line is not a result object")
    got = result.get("metrics", {})
    problems = [f"missing {n}" for n in metrics if n not in got]
    problems += [f"unexpected {n}" for n in got if n not in metrics]
    problems += [f"{n} has unit {v.get('unit')!r}, expected {metrics[n]!r}"
                 for n, v in got.items()
                 if n in metrics and v.get("unit") != metrics[n]]
    problems += [f"{n} is not a finite number" for n, v in got.items()
                 if not isinstance(v.get("value"), (int, float))
                 or not math.isfinite(v["value"])]
    if problems:
        sys.stderr.write("\n".join(lines[:-1]) + "\n")
        fail("result does not match BENCHMARK.json: " + "; ".join(problems))
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
