"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload wide --seeds 1-10 --seconds 20

Runs the benchmark once per seed, one process after another, and prints
for each metric its median and the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", default="20")
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    for seed in seeds_of(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: {proc.stderr}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()),
            flush=True)
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        print(f"{args.workload} {name}: median {median:.4g}, IQR/median {(q3 - q1) / median:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
