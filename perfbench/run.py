#!/usr/bin/env python3
"""Build wfspeak from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Builds `repro` (the server the serve workloads start) and the benchmark
binary in release mode under $CARGO_TARGET_DIR (default `.bench_build`), then
runs the benchmark with the given arguments. Build output goes to stderr; the
benchmark's last line of standard output is the result. Exits 2 without a
result when the tree cannot be built.
"""

import os
import subprocess
import sys


def main() -> int:
    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "bench"))):
        sys.stderr.write("perfbench: run from the wfspeak repository root\n")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--quiet", "-p", "wfspeak-bench", "--bin", "repro"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for command in builds:
        if subprocess.run(command, env=env, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(command))
            return 2
    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--repro",
        os.path.join(release, "repro"),
        "--out",
        os.path.join(target, "perfbench"),
    ]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
