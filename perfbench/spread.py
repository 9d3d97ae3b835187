"""Run the benchmark over several seeds and print each metric's median and quartile spread.

usage: python3 perfbench/spread.py [--workloads a,b] [--seeds 0,1,...] [--seconds 30] [--trace 0|1]

Runs ``run.py`` once per (workload, seed), one run at a time, and prints for
every metric the median over seeds and the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median. This is the spread that BENCHMARK.json's bounds are set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()
    run = str(Path(__file__).resolve().parent / "run.py")
    ok = True
    for w in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        failed_shares = set()
        for seed in args.seeds.split(","):
            argv = [sys.executable, run, "--workload", w, "--seed", seed, "--seconds", args.seconds, "--trace", args.trace]
            p = subprocess.run(argv, capture_output=True, text=True)
            try:
                result = json.loads(p.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{w} seed {seed}: no result (exit {p.returncode})\n{p.stderr[-2000:]}")
                ok = False
                continue
            ok &= result["correct"]
            failed_shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: correct {result['correct']} attempted {result['attempted']} failed {result['failed']} "
                  + " ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items()), flush=True)
        print(f"{w}: failed share {sorted(failed_shares)}")
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            share = (q3 - q1) / med if med else 0.0
            print(f"  {name:28s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {share:.4f}  n={len(v)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
