#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 chronobench/run.py --workload tpce-wan --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/chronobench (default
.bench_build/chronobench); a traced run (--trace 1) writes its Chrome
trace-event file to .bench_build/traces/ unless --trace-out is given. All
build output goes to standard error, so the last line of standard output is
the benchmark's JSON result. The exit code is the benchmark's: 0 when every
output check passed, 1 when one failed or the build failed, 2 on a usage
error.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_root):
    build_dir = os.path.join(build_root, "chronobench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", build_dir, "-j", jobs,
                        "--target", "chronobench"], stdout=sys.stderr) != 0:
        return None
    return os.path.join(build_dir, "chronobench")


def option(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
    binary = build(build_root)
    if binary is None:
        print("chronobench: build failed", file=sys.stderr)
        return 1
    if option(args, "--trace") == "1" and option(args, "--trace-out") is None:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (option(args, "--workload") or "run",
                                   option(args, "--seed") or "1")
        args += ["--trace-out", os.path.join(traces, name)]
    sys.stdout.flush()
    try:
        return subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("chronobench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
