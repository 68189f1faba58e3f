#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload explore-cold|model-verify|serve-mix \
      --seed N --seconds S --trace 0|1 [--trace-file PATH]

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; its output goes to stderr so that the last stdout line is
the benchmark's JSON result. Exits 2 without a result when the build fails,
and with the benchmark's own exit code otherwise.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
    ]
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S, env=env)


def main():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no library sources next to perfbench/", file=sys.stderr)
        return 2
    out = build_dir()
    try:
        build(out)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    try:
        done = subprocess.run([os.path.join(out, "perfbench")] + sys.argv[1:],
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
