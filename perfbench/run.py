#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload read-spill --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark binary (perfbench/main.ml); see
perfbench/README.md. Build output goes to stderr; the benchmark's own output,
ending in one JSON result line, goes to stdout. Exits non-zero without a
result line when the build fails.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "--display", "quiet",
         "./perfbench/main.exe"],
        stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    try:
        return subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
