#!/usr/bin/env python3
"""Build the perfbench harness from this checkout and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the checkout root. The harness and the simulator library are
compiled (Release) into .bench_build/ at the root on first use; later calls
only rebuild what changed. The last line of stdout is the JSON result; build
output goes to stderr. See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# A workload measures for --seconds plus at most one rep; this caps a hang.
RUN_TIMEOUT_S = 170


def run(cmd, timeout=None, **kwargs):
    """Run cmd to completion (killing it on timeout); return its exit code."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: {cmd[0]} timed out after {timeout} s",
                  file=sys.stderr)
            return 1


def build(target):
    """Configure once, then build `target`; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "scenario.h")):
        print(f"perfbench: no simulator sources under {ROOT}/src",
              file=sys.stderr)
        return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if run(["cmake", "-S", HERE, "-B", BUILD,
                "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr) != 0:
            return False
    return run(["cmake", "--build", BUILD, "-j", jobs, "--target", target],
               stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness self-tests")
    args = parser.parse_args()

    if args.selftest:
        if not build("perfbench_selftest"):
            return 1
        return run([os.path.join(BUILD, "perfbench_selftest")], cwd=ROOT)
    if not args.workload:
        parser.error("--workload is required")
    if not build("perfbench"):
        return 1
    return run([os.path.join(BUILD, "perfbench"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", args.trace,
                "--root", ROOT],
               timeout=RUN_TIMEOUT_S, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
