#!/usr/bin/env python3
"""Check that the traced work counts repeat exactly for one seed.

    python3 bench/check_counts.py --seed 1 --seconds 10 [--workload NAME ...]

Runs ``bench/run.py --trace 1`` twice per workload with the same seed
and compares every metric whose unit is a count or a ratio of counts
(calls, node counts, table nodes, bytes written, root solves per
integral).  Prints them per workload and exits 1 if any differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
COUNT_UNITS = {"count", "bytes", "ratio"}


def traced_counts(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run failed\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} jobs failed")
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] in COUNT_UNITS}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=tuple(WORKLOADS))
    args = ap.parse_args()
    same = True
    for wl in args.workload or WORKLOADS:
        first = traced_counts(wl, args.seed, args.seconds)
        second = traced_counts(wl, args.seed, args.seconds)
        print(f"{wl} (seed {args.seed}, {args.seconds} s):")
        for key in sorted(first):
            mark = "" if first[key] == second.get(key) else \
                f"   DIFFERS: second run {second.get(key)}"
            same = same and not mark
            print(f"  {key:36s} {first[key]:.10g}{mark}")
    print("counts identical" if same else "counts differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
