#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload fig6-cold --seed 1 --seconds 40 --trace 0

Every argument is passed to the benchmark binary (see perfbench/main.go).
The binary is built from source into .bench_build/ with a build cache and
temporary directory of its own there, so nothing is written outside the
checkout. The last line of standard output is the JSON result.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    binary = os.path.join(build, "perfbench")

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
        # One process on at most two hardware threads: the load shape does
        # not depend on the host's core count.
        "GOMAXPROCS": str(min(2, len(os.sched_getaffinity(0)))),
    })
    built = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=os.path.join(root, "perfbench"), env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed (run from the root of a full checkout)", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
