#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload kv-small --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default: .bench_build) under the
current directory. The driver binary prints one line per metric; this script
passes those through and then prints, as its last line, one JSON object with
the keys correct, attempted, failed and metrics. For a workload listed in
BENCHMARK.json the metrics are exactly its end_to_end metrics (--trace 0) or
its per_layer metrics (--trace 1). Any build, run or format error exits
non-zero without a result line.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for step in steps:
        try:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                    timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {' '.join(step)} failed: {err}")
        if result.returncode != 0:
            fail(f"build step {' '.join(step)} exited with {result.returncode}")
    binary = os.path.join(build_dir, "copier_perfbench")
    if not os.path.isfile(binary):
        fail("build produced no copier_perfbench binary")
    return binary


def expected_metrics(workload, trace):
    """The metric names BENCHMARK.json requires, or None for unlisted workloads."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if workload not in {w["name"] for w in spec["workloads"]}:
        return None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["kv-small", "ipc-bulk", "kv-threaded"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    expected = expected_metrics(args.workload, args.trace)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(os.path.join(build_dir, "perfbench"))

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.tsv")]
    started = time.monotonic()
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                                text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if result.returncode != 0:
        fail(f"driver exited with {result.returncode}")
    lines = result.stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError as err:
        fail(f"last line is not JSON: {err}")
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(report)}")
    if report["attempted"] < 1:
        fail("no operations attempted")

    metrics = report["metrics"]
    if expected is not None:
        missing = sorted(set(expected) - set(metrics))
        if missing:
            fail(f"driver did not report {missing}")
        for name, unit in expected.items():
            if metrics[name]["unit"] != unit:
                fail(f"{name} has unit {metrics[name]['unit']}, expected {unit}")
        metrics = {name: metrics[name] for name in expected}

    for line in lines[:-1]:
        print(line)
    print(f"  {'run_host_s':<36} {time.monotonic() - started:18.3f} s")
    print(json.dumps({"correct": bool(report["correct"]), "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
