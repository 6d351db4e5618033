#!/usr/bin/env python3
"""Builds the benchmark from source, runs one workload, and passes its output on.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
with CMake, optimized (RelWithDebInfo). The last line of standard output is the
benchmark's JSON result; perfbench/README.md explains every field. Traced runs
(--trace 1) also write their spans to <build dir>/traces/<workload>-seed<n>.json.
`--workload all` runs every workload, each in its own process so that set-up
and memory figures stay per workload, and ends with one combined JSON line
whose metric names are prefixed with the workload.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "tableau_perfbench"
RUN_TIMEOUT_S = 170
WORKLOADS = ("plan_full", "plan_churn", "fleet_steady", "fleet_adaptive", "fleet_parallel")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the library sources (src/) are missing; "
                 "run from a repository checkout")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        # Build logs go to stderr so stdout carries only the benchmark.
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out_dir, "--target", BINARY, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(out_dir, BINARY)


def run_workload(binary, out_dir, workload, args):
    """Runs one workload, passing its output through; returns (exit code, result)."""
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, f"{workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        # run() kills the child and waits for it if the timeout expires.
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                                stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.stdout.write(result.stdout)
    lines = result.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        summary = None
    return result.returncode, summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if args.workload != "all":
        return run_workload(binary, out_dir, args.workload, args)[0]

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        code, summary = run_workload(binary, out_dir, workload, args)
        if code != 0 or summary is None:
            status = code or 1
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        for name, metric in summary["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
