#!/usr/bin/env python3
"""Build bench_e2e from the checkout's sources, then run it.

    python3 bench/e2e/run.py --workload factor-flan-8 --seed 7 \
        --seconds 20 --trace 0

Configures bench/e2e as its own CMake project (Release) in .bench_build/e2e
at the root of the checkout, builds the bench_e2e target, and runs it with
the arguments given. Build output goes to stderr, so the last line of
stdout is the benchmark's result object. Exits with the benchmark's exit
code, or 1 when the build fails (as it does without the solver sources).
"""
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = HERE.parent.parent / ".bench_build" / "e2e"


def run(cmd, **kwargs):
    """Runs cmd to completion; on SIGTERM or Ctrl-C stops it and waits."""
    child = subprocess.Popen(cmd, **kwargs)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.terminate()
            child.wait()


def build():
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if run(cmd, stdout=sys.stderr, env=env) != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    # SIGTERM unwinds like Ctrl-C, so run() stops the child it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not build():
        return 1
    return run([str(BUILD / "bench_e2e"), *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(main())
