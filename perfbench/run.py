#!/usr/bin/env python3
"""Build and run the benchmark from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe from source with dune (build messages go to
stderr, the dune cache stays off so nothing is written outside the
checkout), then runs it with the same arguments. Its last line of
standard output is the result; see perfbench/main.ml.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main() -> int:
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run me from the repository root "
                         "(no dune-project or lib/ here)\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/main.exe"],
        stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode


if __name__ == "__main__":
    sys.exit(main())
