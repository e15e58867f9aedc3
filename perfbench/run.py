#!/usr/bin/env python3
"""Build and run SQPeer's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fanout_small --seed 1 --seconds 10 --trace 0

It builds the Go program in this directory against the repository's
module, into .bench_build/perfbench/ (the Go build cache goes there too),
then runs it with the given arguments. The program's standard output,
whose last line is the JSON result, passes through unchanged. A failed
build exits 1 without a result line. See README.md for the workloads
and metrics.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(os.getcwd(), ".bench_build", "perfbench")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    # Build under a private name and rename, so runs that overlap never
    # execute a half-written binary.
    fresh = "%s.%d" % (binary, os.getpid())
    build = subprocess.run(["go", "build", "-o", fresh, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.replace(fresh, binary)
    sys.stdout.flush()
    return subprocess.run([binary, *sys.argv[1:], "--spans", out], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
