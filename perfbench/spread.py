#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload solve --seeds 1-10 [--trace 1] [--out FILE]

For every metric it prints the median over the runs and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median.  With ``--out`` the JSON result line of every run is
appended to FILE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds, help="e.g. 1-10")
    parser.add_argument("--seconds", default="15")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    args = parser.parse_args()

    values = {}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = {"workload": args.workload, "seed": seed, "trace": int(args.trace), **result}
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps(record) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    for name, v in values.items():
        median = statistics.median(v)
        spread = float("nan")
        if len(v) > 1 and median:
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / median
        print(f"{args.workload:<6} {name:<26} median {median:<14.6g} iqr/median {spread:.4f}")


if __name__ == "__main__":
    main()
