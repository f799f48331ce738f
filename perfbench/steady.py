"""Steadiness self-check: run workloads repeatedly, print each metric's spread.

For every end-to-end metric it prints the median of the runs, the
distance between the first and third quartile as a share of that median,
and the metric's bound from ``BENCHMARK.json`` beside it.  A spread under
a third of the bound is marked ``ok``.  Runs go one after another, each
with its own seed::

    python3 perfbench/steady.py --workload farm-campaign --runs 5
    python3 perfbench/steady.py --runs 10          # every workload
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> tuple:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload or names:
        results = []
        for offset in range(args.runs):
            seed = args.first_seed + offset
            start = time.monotonic()
            result = run_once(workload, seed, args.seconds)
            results.append(result)
            values = " ".join(f"{name}={result['metrics'][name]['value']:.4g}"
                              for name in bounds)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"wall={time.monotonic() - start:.1f}s {values}",
                  flush=True)
            steady &= result["correct"]
        print(f"{workload}: {args.runs} runs")
        print(f"  {'metric':34s} {'median':>14s} {'spread':>8s} "
              f"{'bound':>7s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median, share = spread(values)
            ok = share < bound / 3.0
            steady &= ok
            print(f"  {name:34s} {median:14.6g} {share:8.2%} "
                  f"{bound:7.0%} {'ok' if ok else 'TOO WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
