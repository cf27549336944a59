#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <catalog|catalog_x4|hub_cohort> \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; the first run configures and
compiles, later runs only check that the build is current. Each run first
runs the benchmark's self-tests, then the workload in its own process. The
last line of stdout is the workload's JSON result; build and progress
output go to stderr. With --trace 1 the spans are written to
<build dir>/traces/<workload>-seed<N>.json (open it in ui.perfetto.dev).
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("catalog", "catalog_x4", "hub_cohort")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 1


def build(build_dir):
    """Configures (once) and builds the benchmark; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    os.makedirs(build_dir, exist_ok=True)
    # Concurrent runs in one checkout build one at a time.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", build_dir, "-j4", "--target",
                      "perfbench", "perfbench_selftest"])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                print("perfbench: build timed out", file=sys.stderr)
                return False
            if done.returncode != 0:
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, target)
    build_dir = os.path.join(build_root, "perfbench")
    if not build(build_dir):
        return fail("build failed")

    try:
        selftest = subprocess.run(
            [os.path.join(build_dir, "perfbench_selftest")],
            stdout=sys.stderr, stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
            check=False)
    except subprocess.TimeoutExpired:
        return fail("self-tests timed out")
    if selftest.returncode != 0:
        return fail("self-tests failed")

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--span-file", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return fail("workload timed out")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
