#!/usr/bin/env python3
"""Build the daemon and the benchmark from source, then run the benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload align-long --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Both builds go to $CARGO_TARGET_DIR (default: .bench_build). Build output
goes to stderr, so the last line on stdout is the benchmark's JSON result.
"""

import os
import subprocess
import sys


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--quiet", "--offline",
         "--manifest-path", "Cargo.toml", "-p", "upmem-nw-cli", "--bin", "upmem-nw"],
        ["cargo", "build", "--release", "--quiet", "--offline",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    args = [os.path.join(release, "perfbench"), *sys.argv[1:],
            "--daemon", os.path.join(release, "upmem-nw"),
            "--config", os.path.join("perfbench", "config.json")]
    sys.stdout.flush()
    os.execv(args[0], args)


if __name__ == "__main__":
    sys.exit(main())
