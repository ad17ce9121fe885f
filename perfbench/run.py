#!/usr/bin/env python3
"""Builds perfbench_driver from this checkout's sources and runs one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. perfbench_driver and the `ssresf` library it
links are built with CMake (Release) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; build output goes to stderr. The
program's stdout is passed through: its last line is the result object.
Traced runs (--trace 1) also write a Chrome trace-event file under
<build root>/traces/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign-large", "sweep-shipped")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "session.h")):
        fail("no SSRESF sources next to perfbench/ (expected ../src)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", build_dir, "--target", "perfbench_driver",
              "-j", jobs]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_root()
    binary = build(os.path.join(out, "perfbench"))
    tag = "%s-%d-%d" % (args.workload, args.seed, args.trace)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--scenarios", os.path.join(HERE, "scenarios"),
               "--work-dir", os.path.join(out, "work", "%s-%d" % (tag, os.getpid()))]
    if args.trace:
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        command += ["--trace-out", os.path.join(out, "traces", tag + ".json")]
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
