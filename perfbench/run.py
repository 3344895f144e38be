#!/usr/bin/env python3
"""Builds perfbench from source and runs it.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build, relative
to the repository root); build output goes to stderr so the benchmark's JSON
result stays the last line of stdout. Exits non-zero, printing no result,
when the sources are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    base = build_dir()
    out = os.path.join(base, "perfbench")
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(out, "perfbench")
    work = os.path.join(base, "perfbench-work")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:] + ["--work-dir", work]).returncode


if __name__ == "__main__":
    sys.exit(main())
