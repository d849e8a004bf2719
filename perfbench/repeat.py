"""Run workloads repeatedly and report each end-to-end metric against its bound.

    python3 perfbench/repeat.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Each run gets its own seed. For every workload and end-to-end metric this
prints the median, the quartiles (statistics.quantiles, n=4), and the
spread (Q3 - Q1) / median next to the metric's bound in BENCHMARK.json, with
the spread as a share of the bound. Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()

    ok = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            print(f"{workload:16s} {metric['name']:18s} median {med:12.6g} "
                  f"Q1 {q1:12.6g} Q3 {q3:12.6g} spread {spread:7.4f} "
                  f"bound {metric['bound']:.2f} spread/bound {spread / metric['bound']:.2f}",
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload:16s} failed share over runs: {sorted(shares)}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
