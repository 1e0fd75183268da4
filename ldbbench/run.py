#!/usr/bin/env python3
"""Build the debugger from this checkout and run one benchmark workload.

    python3 ldbbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds ldbbench/ldbbench.exe with dune
(nothing outside the checkout is read or written: the dune cache is off),
then runs it and passes its output through; the last line of standard
output is the result as one JSON object.  Exits non-zero without a result
when the checkout does not hold the program's sources.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "ldbbench", "ldbbench.exe")
SPANS_DIR = ".ldbbench"


def fail(msg, code=2):
    print("ldbbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, env=None, capture=True):
    """Run cmd to completion (killing it on timeout) and return it."""
    try:
        return subprocess.run(cmd, env=env, timeout=timeout, text=True,
                              stdout=subprocess.PIPE if capture else None,
                              stderr=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (cmd[0], timeout), 1)


def build():
    for needed in ("dune-project", "lib", os.path.join("ldbbench", "dune")):
        if not os.path.exists(needed):
            fail("no %s here: run from the root of a checkout of the debugger" % needed)
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("neither dune nor opam is on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    b = run(dune + ["build", "--root", ".", "./ldbbench/ldbbench.exe"], BUILD_TIMEOUT_S, env)
    if b.returncode != 0:
        sys.stderr.write(b.stdout + b.stderr)
        fail("build failed", 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    build()
    r = run([EXE, "--workload", a.workload, "--seed", str(a.seed),
             "--seconds", str(a.seconds), "--trace", str(a.trace),
             "--spans-dir", SPANS_DIR], RUN_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        fail("benchmark exited with code %d" % r.returncode, 1)
    sys.stdout.write(r.stdout)


if __name__ == "__main__":
    main()
