#!/usr/bin/env python3
"""Builds the UCTR stack from source and runs one end-to-end benchmark run.

Usage (from the repository root):

    python3 e2ebench/run.py --workload ref_1k --seed 1 --seconds 12 --trace 0

The build lands in .bench_build/e2ebench (incremental after the first run);
scratch files of a run (server logs, store and state directories, span
dumps) land in .bench_out/. Both are ignored by git. The last line of
standard output is the run's JSON result; build output goes to stderr.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "e2ebench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to e2ebench/: run from a repository checkout")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    if subprocess.call(["cmake", "--build", BUILD_DIR, "-j", jobs],
                       stdout=sys.stderr) != 0:
        fail("build failed")


def main():
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    driver = os.path.join(BUILD_DIR, "e2ebench")
    argv = [driver, "--bin-dir", os.path.join(BUILD_DIR, "uctr"),
            "--out-dir", OUT_DIR,
            "--config", os.path.join(BENCH_DIR, "workloads.json")]
    sys.stdout.flush()
    os.execv(driver, argv + sys.argv[1:])


if __name__ == "__main__":
    main()
