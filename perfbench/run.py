#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Cargo builds offline into $CARGO_TARGET_DIR (default: perfbench/target);
its output goes to stderr so the benchmark's JSON stays the last line of
stdout. The process is then pinned to at most two CPUs, the load the
workloads are defined for, and replaced by the benchmark binary.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode or 1
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    binary = os.path.join(target, "release", "perfbench")
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:2])
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
