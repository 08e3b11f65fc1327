#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run it.

Run from the root of the repository:

    python3 e2ebench/run.py --workload paper --seed 42 --seconds 20 --trace 0

The arguments go to e2e.exe unchanged (see README.md in this directory).
The build output goes to stderr, so the last line of stdout is the
benchmark's JSON result.  If the build fails, nothing is run and the exit
code is non-zero.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

# Workloads run when no --workload is given (the list in e2e.ml).
ALL_WORKLOADS = 6
# Generous bound on one pass (set-up, legs, checks), slow host included.
PASS_S = 20
# Passes e2e.exe takes at least per workload under --seconds.
MIN_PASSES = 4
SLACK_S = 30


def timeout_s(args):
    """How long the run may take before it counts as stuck."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--workload", action="append", default=[])
    p.add_argument("--seconds", type=float)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--trace", type=int, default=0)
    a, _ = p.parse_known_args(args)
    if a.seconds is not None:
        # Passes go on until --seconds are up, then the one in flight ends.
        per_workload = max(a.seconds, 0) + MIN_PASSES * PASS_S
    else:
        per_workload = max(a.reps, 1) * (2 if a.trace == 1 else 1) * PASS_S
    return (len(a.workload) or ALL_WORKLOADS) * per_workload + SLACK_S


def main():
    root = os.getcwd()
    dune = shutil.which("dune")
    if dune is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 2
    # No shared build cache: everything the build writes stays in _build.
    build = subprocess.run(
        [dune, "build", "--root", root, "--cache=disabled", "./e2ebench/e2e.exe"],
        cwd=root,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join(root, "_build", "default", "e2ebench", "e2e.exe")
    # Own process group, so a timeout also stops the passes it spawned.
    proc = subprocess.Popen([exe] + sys.argv[1:], cwd=root, start_new_session=True)
    try:
        return proc.wait(timeout=timeout_s(sys.argv[1:]))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
