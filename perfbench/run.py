#!/usr/bin/env python3
"""Build perfbench from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

The Go build cache, the binary, the run's store files and its reports all
live under .bench_build/perfbench in the checkout. The last line of
standard output is the run's JSON result. The exit code is perfbench's:
non-zero when the build fails, a run cannot be carried out, or a result
is wrong.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    # Everything the go command writes (build cache, module cache,
    # telemetry under the user config directory) stays in the checkout.
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([exe, "--dir", build] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
