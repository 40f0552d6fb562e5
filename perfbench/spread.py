#!/usr/bin/env python3
"""Run one workload on several seeds and report each end-to-end metric's
median and its spread (interquartile distance over median).

Usage, from the root of the repository:

    python3 perfbench/spread.py --workload faulty_kv --seeds 1 2 3 4 5 [--seconds 30]
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args()
    values = {}
    for seed in args.seeds:
        res = run(args.workload, seed, args.seconds, 0)
        if not res["correct"]:
            print("seed %d: incorrect" % seed)
            return 1
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, {k: round(v["value"], 3) for k, v in res["metrics"].items()}),
              flush=True)
    for name, xs in values.items():
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4)
        print("%-16s median %14.4f  spread %.4f" % (name, med, (q[2] - q[0]) / med if med else 0.0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
