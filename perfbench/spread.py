"""Run-to-run spread of the end-to-end metrics over seeds.

    python3 perfbench/spread.py --workload nnm-bound --seeds 1-10

Runs the benchmark once per seed, one run at a time, with the command and
run length from BENCHMARK.json. For each end-to-end metric it prints the
median of the runs and the distance between their first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append(values)
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)

    print(f"{'metric':<24}{'median':>14}{'spread':>10}{'bound':>8}")
    for metric in bench["end_to_end"]:
        values = [run[metric["name"]] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        print(f"{metric['name']:<24}{median:>14.6g}{spread:>10.4f}{metric['bound']:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
