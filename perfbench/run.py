#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload stream-timing --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare old.out new.out

The benchmark is its own Go module (perfbench/go.mod) that imports the
simulator from the enclosing checkout. Every build product, the Go build
cache included, stays under .bench_build/ in the checkout. All arguments are
passed to the benchmark binary; its exit code is this script's exit code.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"


def go_env():
    env = dict(os.environ)
    home = BUILD / "go"
    env.update(
        GOCACHE=str(home / "cache"),
        GOPATH=str(home / "path"),
        GOMODCACHE=str(home / "mod"),
        GOTMPDIR=str(home / "tmp"),
        XDG_CONFIG_HOME=str(home / "config"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
    )
    (home / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def build():
    env = go_env()
    cmd = ["go", "build", "-o", str(BINARY), "."]
    done = subprocess.run(cmd, cwd=MODULE, env=env, capture_output=True, text=True)
    if done.returncode != 0 and "VCS" in done.stderr:
        # VCS stamping records the revision in the result's provenance;
        # where the checkout is not a usable repository, build without it.
        done = subprocess.run(cmd[:2] + ["-buildvcs=false"] + cmd[2:], cwd=MODULE,
                              env=env, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    return done.returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([str(BINARY)] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
