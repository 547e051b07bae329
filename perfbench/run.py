#!/usr/bin/env python3
"""Build the HarmonyBC replica benchmark and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload smallbank_hot --seed 1 --seconds 10 --trace 0

The benchmark is built in release mode from the sources of this checkout
(into $CARGO_TARGET_DIR when set, else perfbench/target). The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones. Records, span dumps and the state the run
keeps between runs go to perfbench/out/.

Exits non-zero without a result if the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# The benchmark itself stops starting rounds after 120 s; this is the
# backstop that keeps one run under three minutes.
RUN_TIMEOUT_S = 170


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(os.path.abspath(target), "release", "perfbench")
    out = os.path.join(HERE, "out")
    try:
        run = subprocess.run([exe, *sys.argv[1:], "--out", out], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark ran over {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
