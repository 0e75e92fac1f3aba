#!/usr/bin/env python3
"""Build the serving benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-open --seed 1 --seconds 20 --trace 0

The Go build cache, the binary and every file the benchmark writes live
under .bench_build/ in the checkout, so nothing outside it is touched.
All arguments are passed through to the benchmark binary.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(
        os.path.join(root, "internal")
    ):
        sys.stderr.write("perfbench: run from the root of a ppamcp checkout\n")
        return 2
    build = os.path.join(root, ".bench_build")
    home = os.path.join(build, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTOOLCHAIN="local",
        GOENV="off",
        GOTELEMETRY="off",
        GOFLAGS="",
        CGO_ENABLED="0",
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return built.returncode or 1
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
