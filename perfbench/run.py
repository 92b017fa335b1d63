#!/usr/bin/env python3
"""Build and run the apf benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload election|formation|campaign \
        [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]

The first call configures and builds perfbench/ (which compiles the
simulator from src/) in Release mode into the perfbench/ subdirectory of
$CARGO_TARGET_DIR, or of .bench_build when that is unset; later calls only
re-check the build.
Build output goes to standard error. Standard output is the benchmark's
own: metric lines, then one JSON result object as the last line.

Exit codes: 0 ok; 1 correctness/determinism failure or timeout; 2 the
sources are missing or the build failed (no result is printed then).
"""

import argparse
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def commit_of(root):
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown"
    with open(head_path) as f:
        head = f.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = os.path.join(root, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as f:
            return f.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return "unknown"


def build(root, build_dir):
    """Configures and builds into build_dir, which the benchmark owns."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                 build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if run_step(configure + generator(cache)) != 0:
        if not os.path.exists(cache):
            fail("configure failed: " + " ".join(configure))
        # A cache left by a build of another source tree: drop only the
        # CMake state of this directory and configure once more.
        os.remove(cache)
        shutil.rmtree(os.path.join(build_dir, "CMakeFiles"),
                      ignore_errors=True)
        if run_step(configure + generator(cache)) != 0:
            fail("configure failed: " + " ".join(configure))
    compile_step = ["cmake", "--build", build_dir, "-j", jobs]
    if run_step(compile_step) != 0:
        fail("build failed: " + " ".join(compile_step))


def generator(cache):
    """Ninja for a fresh build directory; an existing one keeps its own."""
    if not os.path.exists(cache) and shutil.which("ninja"):
        return ["-G", "Ninja"]
    return []


def run_step(step):
    return subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["election", "formation", "campaign"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    args = ap.parse_args()

    root = os.getcwd()
    for needed in ("perfbench/CMakeLists.txt", "src/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail("run from the repository root: %s not found" % needed)
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target_dir, "perfbench")
    build(root, build_dir)

    cmd = [os.path.join(build_dir, "apf_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out", os.path.join(build_dir, "out"),
           "--commit", commit_of(root)]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % RUN_TIMEOUT_S, code=1)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
