#!/usr/bin/env python3
"""Builds the wall-clock benchmark from source and runs one workload.

Run from the repository root:

    python3 wallbench/run.py --workload adhoc_core --seed 1 --seconds 10 --trace 0

The benchmark is a Cargo package of its own (wallbench/Cargo.toml) that
builds against the repository's crates by path. It is built in release
mode into $CARGO_TARGET_DIR (default: .bench_build), then run with the
given arguments. Build output goes to stderr, so the last line on stdout
is the run's JSON result. A failed build exits non-zero and prints no
result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("wallbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "wallbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
