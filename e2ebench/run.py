#!/usr/bin/env python3
"""Build e2e_bench from source, then run it with the arguments given.

Run from the repository root:

    python3 e2ebench/run.py --workload fig16 --seed 7 --seconds 55 --trace 0

The build is an optimised CMake build of ../src plus e2e_bench, kept in
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench) and rebuilt
incrementally on every call. Build output goes to stderr, so the last line on
stdout is e2e_bench's JSON result. A failed build exits 1 and prints no
result. e2e_bench validates the arguments (exit 2 on a bad one); see
README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    commands = [["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))]]
    # Once configured, the build step re-runs CMake itself when a CMake file changes.
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        commands.insert(0, ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    for command in commands:
        result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.stderr.write("e2ebench: build failed: %s\n" % " ".join(command))
            return False
    return True


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "e2ebench"))
    if not build(build_dir):
        return 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(build_dir, "e2e_bench")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
