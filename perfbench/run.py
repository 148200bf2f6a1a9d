#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The OCaml executable is built with dune into _build/ (the dune cache is
disabled so nothing is written outside the checkout), then run with the
same arguments; its last line of output is the JSON result.  A failed
build or run exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet",
         "./perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        sys.exit(1)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
