#!/usr/bin/env python3
"""Build and run the flexsched benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload metro-paper --seed 1 --seconds 20 --trace 0

The script builds the `perfbench` binary from source in release mode
(into `$CARGO_TARGET_DIR`, default `.bench_build`), then runs it with the
same arguments. The binary's last line of standard output is the result:
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. Build output goes to standard error, so that line stays last.
The exit code is the binary's, or 2 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
