#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 10 --trace 0

The arguments go to the OCaml program (perfbench/bench.ml) unchanged;
its last line of standard output is the JSON result. Build output goes
to standard error. Exits non-zero without a result when the build fails
(for example outside a full checkout) or when an output check fails.
"""

import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run from the root of a full checkout", file=sys.stderr)
        return 2
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    # bench.exe runs each iteration in a child process: in a session of its
    # own, a timeout stops the whole group.
    bench = subprocess.Popen([EXE] + sys.argv[1:], start_new_session=True)
    try:
        return bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
