#!/usr/bin/env python3
"""Build the benchmark and the pool worker from source, then run one measurement.

Run from the repository root:

    python3 rvbench/run.py --threads 2 --workers 2 --connections 2 \
        --workload sweep_aur --seed 1 --seconds 12 --trace 0

Every argument is passed on to the `rvbench` binary (see src/main.rs).
Build output goes to $CARGO_TARGET_DIR (default `.bench_build`), and the
last line of standard output is the result object.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(here, "Cargo.toml"),
        "-p", "rvbench", "-p", "rv-experiments",
        "--bin", "rvbench", "--bin", "rv-shard",
    ]
    if subprocess.run(build, env=env, stdout=sys.stderr).returncode != 0:
        print("rvbench: build failed", file=sys.stderr)
        return 2
    release = os.path.abspath(os.path.join(target, "release"))
    cmd = [
        os.path.join(release, "rvbench"),
        *sys.argv[1:],
        "--worker-bin", os.path.join(release, "rv-shard"),
    ]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
