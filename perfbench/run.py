#!/usr/bin/env python3
"""Builds and runs the GRFusion benchmark.

    python3 perfbench/run.py --workload reach|paths|wire --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and compiles the
engine sources (src/) together with the benchmark driver into the build
directory ($CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench);
later runs only rebuild what changed. The benchmark's arithmetic test runs
before every measurement. The driver's last stdout line is the JSON result;
build output goes to stderr. Exits non-zero if the build, the arithmetic
test or an answer check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: engine sources (src/) not found\n")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["reach", "paths", "wire"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    out = build_dir()
    if not build(out):
        return 2
    test = subprocess.run([os.path.join(out, "perfbench_stats_test")],
                          stdout=sys.stderr, stderr=sys.stderr)
    if test.returncode:
        return 3
    cmd = [os.path.join(out, "grf_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(out, "work")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 4


if __name__ == "__main__":
    sys.exit(main())
