#!/usr/bin/env python3
"""Build and run the simulator's benchmark.

From the repository root:

    python3 perfbench/run.py --workload chat-paper --seed 1 --seconds 55 --trace 0

perfbench/ is a Go module of its own that uses the simulator's packages
from the repository root. This script builds it into .bench_build/, with
the Go build cache and the go command's configuration directory kept
there as well, so nothing is written outside the repository, then runs it
from the repository root with the arguments given. The benchmark's output
passes through unchanged; its last line is the JSON result. A failed
build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
