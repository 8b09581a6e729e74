#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a full checkout.  The executable is built
with dune into .bench_build/ at the checkout's root (release profile,
two build jobs, dune cache off), then run once in the foreground; its
last line of standard output is the JSON result and its exit code is
passed on.  Build output goes to standard error.  Other arguments
(--inject-bad-history) are handed to the executable unchanged.

When nothing can be built (no dune-project, no dune, or a failed
build) it prints why on standard error and exits 2, without a result;
exit 1 is left to the executable, for a run that failed its audit.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
TARGET = "./perfbench/bench.exe"


def find_dune():
    dune = shutil.which("dune")
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if dune is None and prefix:
        candidate = os.path.join(prefix, "bin", "dune")
        if os.access(candidate, os.X_OK):
            dune = candidate
    return dune


def give_up(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        give_up("no dune-project in %s, so nothing to build" % ROOT)
    dune = find_dune()
    if dune is None:
        give_up("dune not found on PATH")
    cmd = [dune, "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "-j", "2", "--display", "quiet", TARGET]
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(cmd, cwd=ROOT, env=env,
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        give_up("build failed (exit %d)" % proc.returncode)
    return os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")


def main():
    exe = build()
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
