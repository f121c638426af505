#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the repository root. The first call configures and builds
perfbench/ (which compiles the repository's src/ libraries from source) into
.bench_build/; later calls rebuild only what changed. All arguments except
--selftest go to the komodo-perfbench binary, which checks them strictly.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/CMakeLists.txt under %s; run from a full checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    run_quiet(["cmake", "--build", BUILD, "--target", target, "-j", str(os.cpu_count() or 1)])
    return os.path.join(BUILD, target)


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write("\n".join(proc.stdout.splitlines()[-40:]) + "\n")
        sys.exit("perfbench: '%s' failed with status %d" % (" ".join(cmd), proc.returncode))


def main():
    args = sys.argv[1:]
    if args == ["--selftest"]:
        return subprocess.run([build("perfbench-selftest")]).returncode
    return subprocess.run([build("komodo-perfbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
