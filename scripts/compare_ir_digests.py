#!/usr/bin/env python3
"""Checks that two commits print byte-identical IR after every pass run.

Usage (from anywhere inside the repository):

    python3 scripts/compare_ir_digests.py <parent-ref> [<ref>] [--work-dir DIR]

Exports <parent-ref> and <ref> with `git archive` (without <ref>, the
tracked files of the working tree, staged or not, via `git stash create`),
builds the library of each with perfbench/CMakeLists.txt (target
cg_perfbench_lib, Release), compiles scripts/ir_digests.cpp from this
checkout against each side's headers and library, runs both programs and
diffs their digest lines. Exits 0 when every digest matches, 1 when any
differs (the first differences are printed), 2 on a setup failure.

The build directories stay under --work-dir (default: a new temporary
directory), so a second run against the same directory rebuilds only what
changed.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM = os.path.join(HERE, "ir_digests.cpp")
SHOW = 20


def fail(message):
    print("compare_ir_digests: " + message, file=sys.stderr)
    sys.exit(2)


def git(*args):
    out = subprocess.run(["git", "-C", ROOT] + list(args),
                         capture_output=True, text=True)
    if out.returncode != 0:
        fail("git %s: %s" % (" ".join(args), out.stderr.strip()))
    return out.stdout.strip()


def export(ref, tree):
    """Replaces `tree` with the files of `ref`."""
    shutil.rmtree(tree, ignore_errors=True)
    os.makedirs(tree)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", ref],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        fail("cannot export " + ref)


def build(side_dir, sha):
    """Builds side_dir's library and digest program for commit `sha`; returns
    the program's path. Re-exports and reconfigures only when `sha`
    changed."""
    tree = os.path.join(side_dir, "tree")
    build_dir = os.path.join(side_dir, "build")
    stamp = os.path.join(side_dir, "sha")
    exported = open(stamp).read() if os.path.isfile(stamp) else None
    if exported != sha:
        export(sha, tree)
        with open(stamp, "w") as f:
            f.write(sha)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(tree, "perfbench"), "-B",
                     build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed in " + build_dir)
    if subprocess.run(["cmake", "--build", build_dir, "--target",
                       "cg_perfbench_lib", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("library build failed in " + build_dir)
    program = os.path.join(side_dir, "ir_digests")
    compile_cmd = [os.environ.get("CXX", "c++"), "-std=c++20", "-O2",
                   "-I", os.path.join(tree, "src"), "-I", tree, PROGRAM,
                   os.path.join(build_dir, "libcg_perfbench_lib.a"),
                   "-lpthread", "-o", program]
    if subprocess.run(compile_cmd).returncode != 0:
        fail("digest program build failed for " + sha)
    return program


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_ref")
    parser.add_argument("ref", nargs="?")
    parser.add_argument("--work-dir")
    args = parser.parse_args()

    parent = git("rev-parse", "--verify", args.parent_ref + "^{commit}")
    if args.ref:
        change = git("rev-parse", "--verify", args.ref + "^{commit}")
    else:
        change = git("stash", "create") or git("rev-parse", "HEAD")
    work = args.work_dir or tempfile.mkdtemp(prefix="ir_digests.")
    os.makedirs(work, exist_ok=True)

    programs = [build(os.path.join(work, side), sha)
               for side, sha in (("parent", parent), ("change", change))]
    paths = [os.path.join(work, side, "digests.txt")
             for side in ("parent", "change")]
    outs = [open(p, "w") for p in paths]
    runs = [subprocess.Popen([prog], stdout=out)
            for prog, out in zip(programs, outs)]
    codes = [run.wait() for run in runs]
    for out in outs:
        out.close()
    if any(codes):
        fail("a digest program exited with an error")

    before, after = [open(p).read().splitlines() for p in paths]
    differ = [(a, b) for a, b in zip(before, after) if a != b]
    print("%d and %d digests, %d differ (parent %s, change %s)"
          % (len(before), len(after), len(differ), parent[:12], change[:12]))
    for a, b in differ[:SHOW]:
        print("- " + a)
        print("+ " + b)
    return 1 if differ or len(before) != len(after) else 0


if __name__ == "__main__":
    sys.exit(main())
