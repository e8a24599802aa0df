#!/usr/bin/env python3
"""Build the end-to-end benchmark and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_fig2 --seed 1 --seconds 20 --trace 0

The first call configures and compiles perfbench/ (which compiles the
library from src/) into .bench_build/perfbench; later calls only rebuild
what changed. Build output goes to stderr. The benchmark binary then runs
the workload; the last line of stdout is its JSON result. With --trace 1
the spans and raw counters of the traced run are also written to
.bench_build/perfbench/spans/<workload>_s<seed>.json.

Exit status: the binary's (0 = ran and every check passed), or 2 when the
library sources are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        print("perfbench: library sources not found at %s/src" % REPO, file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr)
    return step.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny horizons, every check on (self-check)")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [os.path.join(BUILD, "e2e"), "--workload", args.workload,
               "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace,
               "--scratch", os.path.join(BUILD, "scratch", str(os.getpid()))]
    if args.trace == "1":
        command += ["--spans-out", os.path.join(
            BUILD, "spans", "%s_s%s.json" % (args.workload, args.seed))]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
