#!/usr/bin/env python3
"""Builds ndss_bench (and the ndss tools it starts) from source, then runs
one workload of it.

    python3 ndss_bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to .bench_build, scratch
data to .bench_run, and with --trace 1 the span file to
.bench_out/trace-<workload>-<seed>.json. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    commands = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "ndss_bench"), "-B",
                     BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        commands.append(configure)
    commands.append(["cmake", "--build", BUILD, "--target", "ndss_bench",
                     "-j", "4"])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for command in commands:
        if subprocess.run(command, stdout=sys.stderr, env=env).returncode != 0:
            sys.exit(2)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    command = [os.path.join(BUILD, "ndss_bench"),
               "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%d" % args.seconds,
               "--work=" + os.path.join(ROOT, ".bench_run", args.workload)]
    if args.trace:
        out = os.path.join(ROOT, ".bench_out")
        os.makedirs(out, exist_ok=True)
        command.append("--trace=" + os.path.join(
            out, "trace-%s-%d.json" % (args.workload, args.seed)))
    sys.stdout.flush()
    os.execv(command[0], command)


if __name__ == "__main__":
    main()
