#!/usr/bin/env python3
"""Run every workload over several seeds and print each metric's median.

    python3 bench/summary.py                       # 10 seeds, every workload
    python3 bench/summary.py --seeds 1 2 3 --workloads pg33-mutants
    python3 bench/summary.py --trace 1 --seeds 1   # per-layer metrics

Run from the root of a checkout.  For each workload and metric it prints
the unit, the number of runs, the median, the quartiles and their distance
as a share of the median (`spread`), next to the metric's bound from
BENCHMARK.json; and per workload the error rate, failed over attempted
operations.  Each run lasts BENCHMARK.json's `run_seconds`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    config = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=workloads, choices=workloads)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"] + config["per_layer"]}

    results: dict[str, list[dict]] = {}
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = config["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(config["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            result["seed"] = seed
            results.setdefault(workload, []).append(result)
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)

    for workload, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, error_rate {failed / attempted:.4f} "
              f"({failed} failed of {attempted} operations), "
              f"all correct: {all(r['correct'] for r in runs)}")
        print(f"  {'metric':<40} {'unit':<6} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, share = spread(values)
            bound = bounds.get(name)
            print(f"  {name:<40} {first['unit']:<6} {len(values):>3} {median:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g} {share:>7.3f} {'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
