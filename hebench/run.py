#!/usr/bin/env python3
"""Build and run the hebench benchmark from a source checkout.

    python3 hebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds hebench/ (and the library sources it compiles
from src/) into .bench_build/hebench at the checkout root, then runs the
binary with the same arguments. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Exits non-zero,
printing no result, when the build or the run fails.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hebench")
JOBS = "4"


def run(cmd, **kwargs):
    """Run cmd to completion. On SIGTERM/SIGINT, stop the child, wait
    for it and exit."""
    child = subprocess.Popen(cmd, **kwargs)
    stopped = []

    def stop(signum, _frame):
        stopped.append(signum)
        child.terminate()

    previous = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        code = child.wait()
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)
    if stopped:
        sys.exit(128 + stopped[0])
    return code


def build():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # keep compiler scratch files inside the checkout
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "hebench", "-j", JOBS],
    ]
    return all(run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env) == 0 for cmd in steps)


def main():
    if not build():
        print("hebench: build failed", file=sys.stderr)
        return 1
    return run([os.path.join(BUILD, "hebench")] + sys.argv[1:], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
