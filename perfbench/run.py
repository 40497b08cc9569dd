#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is a Go program in its own module (perfbench/go.mod) that
imports the simulator's packages from the enclosing checkout. Each call
builds it from source into .bench_build/ (the Go build cache lives there
too, so nothing is read from or written to outside the checkout beyond the
Go toolchain itself), then runs it in a fresh process. The program prints
its metrics as one JSON object on the last line of standard output.

A build failure -- for example a directory holding only the benchmark and
not the simulator's sources -- exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("paper-np228", "manytask-16k", "fleet-flash-crash")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "perfbench")
    env = dict(os.environ)
    # Keep every file the go command writes -- build cache, module cache,
    # and the telemetry counters it keeps under the user config directory --
    # inside the checkout, and never reach for the network.
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    built = subprocess.run(
        ["go", "build", "-trimpath", "-o", binary, "."],
        cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    ran = subprocess.run(
        [binary,
         "-workload", args.workload,
         "-seed", str(args.seed % (1 << 64)),  # any integer, as a uint64
         "-seconds", str(args.seconds),
         "-trace", str(args.trace),
         "-spans", os.path.join(build, "spans")],
        cwd=root)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
