#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/ (its own CMake package, compiling the engine libraries from
../src) into .bench_build/perfbench; later calls only re-check the
build. Each workload's fixed parameters (arrival rates, ladder, latency
limit, input sizes) are compiled into the benchmark, so the program
under test receives only generated inputs and the seed. `all` runs
every workload BENCHMARK.json lists, one result line each.

The last line of stdout is the result object. Exit status is the
benchmark binary's: 0 ok, 3 a correctness check failed; anything else
(including a build failure or a missing source tree) exits non-zero
without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no engine sources at %s/src; run from a full checkout" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr, check=False)
    done = subprocess.run(
        ["cmake", "--build", BUILD, "--parallel", jobs],
        stdout=sys.stderr, stderr=sys.stderr, check=False)
    if done.returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        fail("--workload is required")

    build()
    if args.self_test:
        sys.exit(subprocess.run(
            [os.path.join(BUILD, "perfbench_test")], cwd=ROOT).returncode)

    names = [args.workload]
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
    status = 0
    for name in names:
        cmd = [os.path.join(BUILD, "perfbench"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("%s exceeded %d s" % (name, RUN_TIMEOUT_S))
        lines = done.stdout.rstrip("\n").split("\n")
        try:
            result = json.loads(lines[-1])
            ok = sorted(result) == ["attempted", "correct", "failed",
                                    "metrics"]
        except (ValueError, IndexError):
            ok = False
        if done.returncode not in (0, 3) or not ok:
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            fail("%s exited %d without a result" % (name, done.returncode))
        sys.stdout.write(done.stdout)
        status = max(status, done.returncode)
    sys.exit(status)


if __name__ == "__main__":
    main()
