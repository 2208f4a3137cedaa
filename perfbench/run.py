#!/usr/bin/env python3
"""Runs one workload of the Oscar benchmark and prints its result.

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. It builds the benchmark, together with
the program's own library from the sources beside this directory, into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload in its own process and prints the workload's JSON result as the
last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones (the traced run also writes its spans to
$CARGO_TARGET_DIR/perfbench-out/spans-<workload>-seed<n>.jsonl). Build
output and check failures go to stderr. When the build or the run fails,
or the result does not name exactly the metrics BENCHMARK.json lists, it
exits non-zero and prints no result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-zipf", "sim-churn-repair", "sim-flash-traced")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    def step(cmd):
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=BUILD_TIMEOUT_S)

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    step(["cmake", "--build", build_dir, "-j", "4"])
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = build_root()
    try:
        binary = build(os.path.join(root, "perfbench"))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    out_dir = os.path.join(root, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} ran over {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: {args.workload} exited {run.returncode}",
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        names = list(result["metrics"])
    except (ValueError, KeyError, TypeError) as e:
        print(f"perfbench: unreadable result: {e}", file=sys.stderr)
        return 1
    want = expected_metrics(args.trace == 1)
    if sorted(names) != sorted(want):
        print(f"perfbench: result names {sorted(set(names) ^ set(want))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
