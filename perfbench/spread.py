#!/usr/bin/env python3
"""Steadiness check: run the benchmark once per seed and report, for each
end-to-end metric, its median over the seeds and the spread (distance
between first and third quartile as a share of the median) next to a third
of the metric's bound from BENCHMARK.json.

  python3 perfbench/spread.py --workload fib --seeds 1-10
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import pbstats  # noqa: E402


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    values = {}
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        steal = [ln.rsplit(" ", 1)[1] for ln in lines
                 if ln.startswith("# host CPU time stolen")]
        print("seed %d: correct %s, %d attempted, %d failed, steal %s; %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            steal[0] if steal else "?",
            " ".join("%s=%.6g" % (name, m["value"])
                     for name, m in result["metrics"].items())), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print("%-18s %14s %9s %9s" % ("metric", "median", "spread", "bound/3"))
    for m in spec["end_to_end"]:
        v = values.get(m["name"], [])
        if len(v) < 2:
            continue
        print("%-18s %14.6g %9.4f %9.4f" % (
            m["name"], pbstats.median(v), pbstats.spread(v), m["bound"] / 3))


if __name__ == "__main__":
    main()
