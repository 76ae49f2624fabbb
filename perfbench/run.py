#!/usr/bin/env python3
"""Builds privmark and its end-to-end benchmark from this checkout, then
runs one workload and passes its report through.

    python3 perfbench/run.py --workload stream_protect --seed 20050405 \
        --seconds 10 --trace 0

Run it from the checkout root (or anywhere: paths are resolved from this
file). The build is a Release tree in .bench_build/perfbench; results and
trace files land in .bench_build/perfbench-out. The last line of stdout is
the JSON result; the exit code is non-zero when the build fails, a check
fails, or the privmark sources are missing. BENCHMARK.json at the checkout
root describes the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "privmark_perfbench")
RUN_TIMEOUT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "privmark_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)


def git_revision():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """SHA-1 over the privmark sources and build files, in path order."""
    digest = hashlib.sha1()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base in ("src", "perfbench"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, base)):
            paths.extend(os.path.join(dirpath, f) for f in files)
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        log("error: privmark sources not found next to perfbench/ "
            "(expected CMakeLists.txt and src/ at the checkout root)")
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"error: build failed: {e}")
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    command = [
        BINARY, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", OUT_DIR, "--git-rev", git_revision(),
        "--source-sha1", source_digest(),
    ]
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"error: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 3
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
