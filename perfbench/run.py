#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
library and the measuring program into the build directory ($CARGO_TARGET_DIR,
else .bench_build) and trains the two checkpoints once, always with
min(4, cores) OpenMP threads; later runs reuse both.
The measuring program's standard output is passed through unchanged: its last
line is the JSON result. Build output goes to standard error.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("offline_float", "offline_int8", "serve_sharded")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    source = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
                   check=True, stdout=sys.stderr, timeout=800)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} not found next to perfbench/: not a source checkout")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(root, ".bench_build"))
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as err:
        fail(f"build failed: {err}")

    # The serving workload's thread budget is generator + 2 workers x 1
    # OpenMP thread; the offline workloads and checkpoint preparation use up
    # to 4 OpenMP threads. The variable must be set before the OpenMP runtime
    # starts.
    work_dir = os.path.join(build_dir, "work")
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(min(4, os.cpu_count() or 1))
    prepared = subprocess.run([binary, "--workload", "prepare", "--work-dir", work_dir],
                              env=env, stdout=sys.stderr, timeout=900)
    if prepared.returncode != 0:
        fail("checkpoint preparation failed")
    if args.workload == "serve_sharded":
        env["OMP_NUM_THREADS"] = "1"
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    result = subprocess.run(command, env=env, timeout=900)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
