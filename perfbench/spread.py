#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on several seeds per workload and
prints, for every end-to-end metric, the median and the spread (distance
between the first and third quartile, as a share of the median) next to
the metric's bound from BENCHMARK.json, plus each run's host steal share.

Run from the repository root:
    python3 perfbench/spread.py [--seeds 10] [--workload NAME ...] [--first-seed N]
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    worst = {}
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed} failed:\n{out.stderr}")
            result = json.loads(lines[-1])
            steal = re.search(r"steal ([0-9.]+)%", out.stdout)
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']} "
                f"steal={steal.group(1) if steal else '?'}% "
                + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True,
            )
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            worst[(workload, name)] = spread / bounds[name]
            print(
                f"  {workload:<20} {name:<18} median {q2:<14.6g} spread {100 * spread:6.2f}% "
                f"bound {100 * bounds[name]:5.1f}% ({spread / bounds[name]:.2f} of bound)",
                flush=True,
            )
    (workload, name), share = max(worst.items(), key=lambda kv: kv[1])
    print(f"widest spread: {workload} {name} at {share:.2f} of its bound")


if __name__ == "__main__":
    main()
