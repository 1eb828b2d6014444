#!/usr/bin/env python3
"""Benchmark of record for sndr.

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles
the library from ../src with optimization) and runs one workload:

    python3 perfbench/run.py --workload single_large --seed 1 --seconds 10

Run it from the repository root. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
above it are the human-readable report. `--workload all` runs every
workload, each in its own process, and prints one table.

Build output goes to .bench_build/ and workload files to .bench_work/,
both under the repository root. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
WORKLOADS = ["single_large", "anneal_medium", "serve_mix", "dse_sweep"]
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no sndr sources under " + ROOT + "/src", 2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench", "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def run_one(program, workload, seed, seconds, trace, capture):
    cmd = [program, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(WORK_DIR, workload)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        fail(workload + ": no result within %d s" % RUN_TIMEOUT_S)
    return proc


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    program = build()
    if args.workload != "all":
        proc = run_one(program, args.workload, args.seed, args.seconds,
                       args.trace, capture=False)
        sys.exit(proc.returncode)

    # Every workload in its own process (peak RSS is per process).
    status = 0
    rows = []
    for workload in WORKLOADS:
        proc = run_one(program, workload, args.seed, args.seconds, args.trace,
                       capture=True)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        rows.append((workload, result))
    print()
    print("%-14s %-34s %20s  %s" % ("workload", "metric", "value", "unit"))
    for workload, result in rows:
        attempted = result.get("attempted", 0)
        failed = result.get("failed", 0)
        for name, m in result.get("metrics", {}).items():
            print("%-14s %-34s %20.6g  %s" % (workload, name, m["value"],
                                               m["unit"]))
        print("%-14s %-34s %20.6g  %s" % (
            workload, "failed_frac",
            failed / attempted if attempted else 1.0, "frac"))
    sys.exit(status)


if __name__ == "__main__":
    main()
