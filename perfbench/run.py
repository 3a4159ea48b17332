#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload kv-read|kv-write|map-churn \
        --seed N --seconds S --trace 0|1

Builds bin/kvd.exe and perfbench/bench.exe from this checkout with
dune, runs bench.exe in a fresh working directory under
.perfbench_run/, and relays its output.  The last line of stdout is
bench.exe's JSON result.  Exits nonzero if the checkout cannot be
built, if a run fails or times out, or if any reply was wrong.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("kv-read", "kv-write", "map-churn")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    for need in ("dune-project", "bin/kvd.ml", "lib"):
        if not os.path.exists(need):
            fail("not a checkout of the repository: %s is missing" % need)

    # No shared dune cache: the build writes only under _build here.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "./bin/kvd.exe", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed", 1)

    run_dir = os.path.join(".perfbench_run", str(os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [
        "_build/default/perfbench/bench.exe",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--kvd", "_build/default/bin/kvd.exe",
        "--dir", run_dir,
    ]
    # Own process group, so a timeout takes bench.exe's kvd children
    # down with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(run_dir, ignore_errors=True)
        fail("run timed out", 1)
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        os.rmdir(".perfbench_run")
    except OSError:
        pass

    lines = out.decode().strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("bench.exe exited with code %d" % proc.returncode, 1)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 1)
    print("\n".join(lines))
    sys.stdout.flush()
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
