#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs bench_e2e/run.py once per seed and prints, for every metric, the
median over the runs and the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, next to
the metric's bound from BENCHMARK.json. Run from the repository root:

    python3 bench_e2e/spread.py --workload serve-open --seeds 1-5 [--trace 1]
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = {m["name"]: [] for m in declared}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, "bench_e2e/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout else "{}"
        result = json.loads(last)
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: failed\n{proc.stderr[-2000:]}")
            return 1
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
            flush=True)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])

    print(f"\n{'metric':34s} {'median':>12s} {'iqr/median':>11s} {'bound':>6s}")
    for metric in declared:
        vals = values[metric["name"]]
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = metric.get("bound")
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  above bound/3"
        print(f"{metric['name']:34s} {median:12.5g} {spread:11.3f} "
              f"{bound if bound is not None else '-':>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
