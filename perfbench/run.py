#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 15 --trace 0

The Go package in this directory is built into .bench_build/ (its build
cache too, so nothing is written outside the checkout), then run with the
arguments given here. Its standard output passes through unchanged; the
last line is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def commit():
    """The checkout's git revision, or "unknown" outside a git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def main():
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(BUILD, "gocache"),
               GOMODCACHE=os.path.join(BUILD, "gomodcache"),
               GOPATH=os.path.join(BUILD, "gopath"),
               GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off",
               GOFLAGS="-mod=readonly", CGO_ENABLED="0")
    exe = os.path.join(BUILD, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-buildvcs=false", "-o", exe, "."],
                               cwd=HERE, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        ran = subprocess.run([exe, "--commit", commit()] + sys.argv[1:],
                             cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
