#!/usr/bin/env python3
"""Output-shape check of the benchmark.

    python3 perfbench/test_shape.py [--seconds S]

Runs every workload of BENCHMARK.json briefly, untraced and traced,
and checks that the result line has exactly the keys the contract
names, that an untraced run reports every end_to_end metric and a
traced run every per_layer metric, by name and with the unit
BENCHMARK.json gives, and that every value is a finite number (and,
for end-to-end metrics, not zero).  Exits 1 on the first mismatch.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check(cond, msg):
    if not cond:
        print("FAIL: " + msg)
        sys.exit(1)


def run(workload, seconds, trace):
    out = subprocess.run(
        [
            "python3", os.path.join(ROOT, "perfbench", "run.py"),
            "--workload", workload, "--seed", "1",
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    check(out.returncode == 0, "%s trace=%d exited %d" % (workload, trace, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        for trace in (0, 1):
            r = run(w["name"], args.seconds, trace)
            tag = "%s trace=%d" % (w["name"], trace)
            check(set(r) == {"correct", "attempted", "failed", "metrics"}, tag + ": keys")
            check(r["correct"] is True, tag + ": not correct")
            check(isinstance(r["attempted"], int) and r["attempted"] >= 1, tag + ": attempted")
            check(isinstance(r["failed"], int) and r["failed"] >= 0, tag + ": failed")
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            check(got == wanted[trace], tag + ": metrics differ from BENCHMARK.json: %s" % (
                sorted(set(got.items()) ^ set(wanted[trace].items()))))
            for k, v in r["metrics"].items():
                check(set(v) == {"value", "unit"}, "%s: %s keys" % (tag, k))
                x = v["value"]
                check(isinstance(x, (int, float)) and math.isfinite(x), "%s: %s = %r" % (tag, k, x))
                check(trace == 1 or x != 0, "%s: %s is 0" % (tag, k))
            print("ok   %s (%d metrics)" % (tag, len(got)))
    print("shape ok")


if __name__ == "__main__":
    main()
