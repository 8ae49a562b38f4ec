#!/usr/bin/env python3
"""Build the atlc library and its benchmark program, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload lcc-rmat16-cached --seed 1 \
        --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/perfbench-cmake (default
.bench_build/perfbench-cmake); generated inputs and the traced run's span
files go to .../perfbench-work. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. See perfbench/NOTES.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then (re)build atlc_perfbench; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no atlc sources next to {HERE.name}/ (expected {ROOT}/src)")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir)],
                       stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "atlc_perfbench"],
                   stdout=sys.stderr, check=True)
    return build_dir / "atlc_perfbench"


def digest(path):
    """Short content hash of the atlc_perfbench binary: fingerprints of
    one build are never compared with those of another."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and not args.workload:
        fail("--workload is required")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    try:
        exe = build(target / "perfbench-cmake")
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    if args.self_test:
        cmd = [str(exe), "--self-test"]
    else:
        work = target / "perfbench-work"
        cmd = [str(exe), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work),
               "--state-dir", str(work / "fingerprints" / digest(exe))]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
