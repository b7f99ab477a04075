#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload rl-episodes --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
configured from perfbench/CMakeLists.txt, which compiles the library from
src/. Build output goes to stderr; the binary's report and its final JSON
line go to stdout. Exits non-zero, without a result line, when the library
sources are missing, the build fails or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_id():
    """A digest of the library and benchmark sources: the run's code identity
    whether or not the checkout is a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".h", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() or "none"


def build(build_dir):
    """Configures (once) and builds the binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            configured_for = [l.split("=", 1)[1].strip() for l in f
                              if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if configured_for != [HERE]:
            shutil.rmtree(build_dir)  # Configured for another checkout.
    if not os.path.isfile(cache):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    step = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr)
    if step.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "Registry.h")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    binary = build(os.path.join(build_root, "perfbench"))
    out_dir = os.path.join(build_root, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.relpath(out_dir, ROOT),
               "--source-id", source_id(), "--git-sha", git_sha()]
    try:
        run = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, code=3)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
