#!/usr/bin/env python3
"""Builds and runs the GENIE end-to-end benchmark.

Run from the root of a source tree:

    python3 perfbench/run.py --workload ann|online|writes|scatter \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test    # the checks' own test

The library is compiled from the tree's src/ by perfbench/CMakeLists.txt
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the
first run builds, later runs reuse the build. The last line of standard
output is the run's JSON result. A traced run (--trace 1) also writes its
spans to <build>/traces/<workload>-seed<N>.jsonl.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "perfbench"))


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        done = subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    done = subprocess.run(["cmake", "--build", out, "--target", target,
                           "-j", jobs], stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        return None
    return os.path.join(out, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["ann", "online", "writes", "scatter"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the test of the checks")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_checks_test")
        if binary is None:
            return 1
        return subprocess.run([binary]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("genie_perfbench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
