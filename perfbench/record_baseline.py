"""Run the benchmark over ten seeds per workload and write ``baseline.json``.

    python3 perfbench/record_baseline.py --what "sources at commit abc123" [--seconds 30]
        [--first-seed 1] [WORKLOAD ...]

Run from the repository root.  For each workload (all three by default) it
makes one untraced run per seed, then one traced run with the first seed,
one after another.  It prints each end-to-end metric's median and spread,
(q3 - q1) / median of the per-run values, and writes every value to
``baseline.json``.  Three workloads at 30 s take about 25 minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np
import scipy

from run import HERE, ROOT, WORKLOADS

SEEDS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=180,
    )
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: {res['failed']} of {res['attempted']} calls failed")
    return res


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*", metavar="WORKLOAD", help=", ".join(WORKLOADS))
    p.add_argument("--what", required=True, help="what was measured, for the record")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        p.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    args.workloads = args.workloads or list(WORKLOADS)
    seeds = range(args.first_seed, args.first_seed + SEEDS)

    untraced, traced = {}, {}
    for workload in args.workloads:
        runs = [run(workload, seed, args.seconds, 0)["metrics"] for seed in seeds]
        untraced[workload] = {"seeds": f"{seeds[0]}..{seeds[-1]}"}
        for name in runs[0]:
            s = summary([r[name]["value"] for r in runs])
            untraced[workload][name] = s
            print(f"{workload:14s} {name:12s} median {s['median']:10.4f}  "
                  f"spread {s['spread']:.3f}", flush=True)
        traced[workload] = {"seed": seeds[0], **run(workload, seeds[0], args.seconds, 1)}

    (HERE / "baseline.json").write_text(json.dumps({
        "what": args.what,
        "machine": f"{os.cpu_count()} CPUs, {platform.machine()}, "
                   f"Python {platform.python_version()}, numpy {np.__version__}, "
                   f"scipy {scipy.__version__}, BLAS threads 1",
        "run_seconds": args.seconds,
        "untraced": untraced,
        "traced": traced,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
