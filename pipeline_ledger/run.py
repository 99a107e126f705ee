#!/usr/bin/env python3
"""Build the pipeline ledger from source, then run it.

Usage (from the repository root):

    python3 pipeline_ledger/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR, or `.bench_build` in the current
directory when that is unset. Cargo's own output goes to stderr, so the
ledger's result stays the last line of stdout. Exits nonzero without a
result when the build fails (for example when the repository's crates
are not beside this directory).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(os.getcwd(), ".bench_build")
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
            "--bins",
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("pipeline_ledger: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "pipeline-ledger")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
