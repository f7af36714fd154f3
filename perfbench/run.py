#!/usr/bin/env python3
"""Builds and runs one workload of the coopsim benchmark.

    python3 perfbench/run.py --workload schemes-4c --seed 42 --seconds 36 --trace 0

Run it from the repository root (or anywhere: paths resolve from this
file). It compiles perfbench/ together with the simulator sources under
src/ into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
then runs the built coopbench binary in a fresh process. Build output goes to
stderr; the last stdout line is the JSON result. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "coopbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def git_state():
    """(revision, dirty flag) of the checkout, or unknown outside git."""
    if not (ROOT / ".git").exists():
        return "unknown", "unknown"
    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            check=True, capture_output=True, text=True).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain"],
            check=True, capture_output=True, text=True).stdout
        return rev, "1" if status.strip() else "0"
    except (OSError, subprocess.CalledProcessError):
        return "unknown", "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "sim" / "executor.cpp").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as exc:
        fail(f"build failed: {exc}")

    rev, dirty = git_state()
    result = subprocess.run(
        [str(out / "coopbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--root", str(ROOT),
         "--git-rev", rev, "--git-dirty", dirty])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
