#!/usr/bin/env python3
"""Build and run the RAMP benchmark from a checkout of the repository.

    python3 rampbench/run.py --workload serve_direct --seed 1 \
        --seconds 8 --trace 0

Configures and builds rampbench/ (which compiles the repository's src/
from source) into $CARGO_TARGET_DIR, or .bench_build when that is unset,
then replaces itself with ramp_bench. Build output goes to stderr, so the
last line on stdout is ramp_bench's one-line JSON result. Each run also
leaves its run JSON (the input of bench_compare) under <build>/runs/ and,
when traced, a Chrome trace under <build>/traces/.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "ramp_bench",
                    "-j", jobs], stdout=sys.stderr, env=env, check=True)
    return os.path.join(cmake_dir, "ramp_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no RAMP sources at %s/src; run it from a checkout"
                 % ROOT)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               os.path.join(ROOT,
                                                            ".bench_build")))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("run.py: build failed: %s" % e)

    tag = "%s-s%s-t%s" % (args.workload, args.seed, args.trace)
    runs = os.path.join(build_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    argv = [binary, "--workload", args.workload, "--seed", args.seed,
            "--seconds", args.seconds, "--trace", args.trace,
            "--json", os.path.join(runs, tag + ".json"),
            "--scratch", os.path.join(build_dir, "scratch-%d" % os.getpid())]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        argv += ["--trace-json", os.path.join(traces, tag + ".json")]
    sys.stdout.flush()
    os.execv(binary, argv)


if __name__ == "__main__":
    main()
