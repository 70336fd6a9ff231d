"""Runs the benchmark over several seeds and summarises each metric.

    python3 bench/spread.py --workload gcr-corpus --seeds 1-10 --seconds 30

One run per seed, one after another.  For each end-to-end metric it prints
the median, the first and third quartiles (``statistics.quantiles(n=4)``)
and the spread (Q3 - Q1) as a share of the median, plus the share of failed
operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--seconds", default="30")
    args = p.parse_args(argv)
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=180, check=True,
        )
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(line)
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()),
              file=sys.stderr)
    print(f"{args.workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, "
          f"failed share: {sorted({r['failed'] / r['attempted'] for r in runs})}")
    print(f"{'metric':50s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:50s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
