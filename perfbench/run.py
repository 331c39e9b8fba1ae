#!/usr/bin/env python3
"""Build and run the time-to-train benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload resnet-t4 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the benchmark (perfbench/CMakeLists.txt,
which builds the repository's libraries from source) under the directory named
by $CARGO_TARGET_DIR, or .bench_build when unset; later calls rebuild only
what changed. The benchmark's output is passed through unchanged: its last
line is the JSON result. Exits non-zero, without a result, when the build or
the run fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build(targets):
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target", *targets],
                   stdout=sys.stderr, check=True)
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["resnet-t4", "transformer-t1", "minigo-t4"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workload-seed", type=int, default=42,
                        help="training seed of every session (default 42, as quickstart)")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the self-test of the benchmark's helpers")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    try:
        build_dir = build(["perfbench_selftest" if args.selftest else "perfbench_ttt"])
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    if args.selftest:
        cmd = [os.path.join(build_dir, "perfbench_selftest")]
    else:
        cmd = [os.path.join(build_dir, "perfbench_ttt"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workload-seed", str(args.workload_seed)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
