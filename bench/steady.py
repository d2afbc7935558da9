"""Steadiness check: run each workload k times with different seeds.

    python3 bench/steady.py [--k 10] [workload ...]

Run from the repository root.  Seeds are 1..k, and every run lasts
BENCHMARK.json's run_seconds, the length the bounds are set for.  For
every workload and end-to-end metric it prints the median over the k runs
and the quartile spread (Q3 - Q1, from statistics.quantiles(n=4)) as a
share of the median, both for the calibrated figure and for raw seconds,
plus the failed share per run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import RAW_MARK  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    ap.add_argument("--k", type=int, default=10)
    args = ap.parse_args()
    for w in args.workloads:
        ref, raw, shares = {}, {}, set()
        for seed in range(1, args.k + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            raw_line = next(line for line in lines if line.startswith(RAW_MARK))
            for name, v in json.loads(raw_line[len(RAW_MARK):]).items():
                raw.setdefault(name, []).append(v)
            for name, m in result["metrics"].items():
                ref.setdefault(name, []).append(m["value"])
            shares.add((result["failed"] / result["attempted"], result["correct"]))
            print(f"  {w} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        print(f"{w}: failed share / correct over runs: {sorted(shares)}")
        print(f"{'metric':<14}{'median':>12}{'spread':>9}{'raw median':>12}{'raw spread':>11}")
        for name in ref:
            print(f"{name:<14}{statistics.median(ref[name]):>12.5g}{spread(ref[name]):>9.2%}"
                  f"{statistics.median(raw[name]):>12.5g}{spread(raw[name]):>11.2%}", flush=True)


if __name__ == "__main__":
    main()
