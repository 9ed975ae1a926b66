#!/usr/bin/env python3
"""Builds the host-time benchmark from source and runs it.

Usage, from the root of a checkout:

    python3 hostbench/run.py --workload <figures|whatif|observe> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build`). Build output
goes to standard error; the benchmark's last line of standard output is
its JSON result. The exit code is non-zero when the build or the run
fails, and no result is printed then.
"""

import os
import subprocess
import sys

# A run ends well inside the 180 s a caller allows for it.
RUN_TIMEOUT_S = 170


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("hostbench", "Cargo.toml")],
        stdout=sys.stderr, env=env, check=False)
    if build.returncode != 0:
        print("hostbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "hostbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"hostbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
