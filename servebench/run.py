#!/usr/bin/env python3
"""Builds and runs the GeoGrid serving benchmark (see README.md).

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree.  The benchmark binary is built from
the tree's sources into .bench_build/servebench (or $CARGO_TARGET_DIR).
The last line of standard output is the result as one JSON object.

--trace 0: the binary runs twice more with --setup-only, and setup_s is the
median of the three set-ups.
--trace 1: one traced run; its spans go to
servebench-traces/<workload>-seed<n>.tsv in the build directory.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_BUDGET_S = 170  # all binary runs of one invocation, after the build


def fail(msg):
    print(f"servebench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "serve", "server.h")):
        fail("the GeoGrid sources are not beside servebench/; nothing to build")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "servebench")
    binary = os.path.join(build_dir, "servebench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "servebench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return binary, os.path.join(ROOT, target)


def run(binary, args, deadline):
    """Runs the binary; returns (exit code, result object, output lines)."""
    try:
        proc = subprocess.run([binary] + args, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)}: no result within the {RUN_BUDGET_S} s budget")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"{' '.join(args)}: exited {proc.returncode} without a result")
    return proc.returncode, result, lines[:-1]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--seconds", required=True)
    p.add_argument("--trace", default="0", choices=["0", "1"])
    a = p.parse_args()

    binary, out_dir = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ["--workload", a.workload, "--seed", a.seed, "--seconds", a.seconds]

    if a.trace == "0":
        setups = []
        for _ in range(2):
            code, res, _ = run(binary, base + ["--setup-only"], deadline)
            if code:
                fail("set-up run failed")
            setups.append(res["metrics"]["setup_s"]["value"])
        code, res, lines = run(binary, base + ["--trace", "0"], deadline)
        setups.append(res["metrics"]["setup_s"]["value"])
        res["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print("\n".join(lines))
        print(f"  set-ups (s): {', '.join(f'{s:.4f}' for s in setups)}")
    else:
        trace_dir = os.path.join(out_dir, "servebench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_file = os.path.join(trace_dir, f"{a.workload}-seed{a.seed}.tsv")
        code, res, lines = run(binary, base + ["--trace", "1", "--trace-out",
                                               trace_file], deadline)
        print("\n".join(lines))
        print(f"  spans in {trace_file}")
    print(json.dumps(res))
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
