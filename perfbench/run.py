"""Benchmark entry point for ctqw.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Measures set-up time (fresh interpreters
importing ``ctqw.cli``, each timed between two host-speed probes), then runs
the workload in a child process (``harness.py``) with BLAS threads capped at
one, and prints one JSON object
as its last line: end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``.  Exits non-zero, printing no result, when the package
sources are missing or the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / "out"
SETUP_RUNS = 9            # timed fresh-interpreter imports per run, after one warm-up
DEADLINE_S = 170.0        # whole run, set-up included

WORKLOADS = ("emit_series", "verify_ladder", "reduce_large")
BLAS_CAPS = {k: "1" for k in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}


# glibc moves its mmap threshold as large blocks are freed, which leaves the
# peak RSS of identical runs 6 MB apart (110.8 or 117.3 MB on reduce_large).
# A fixed threshold maps and unmaps every block of 1 MiB or more, so the peak
# follows the program's live memory.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(1 << 20)}


def child_env() -> dict:
    env = dict(os.environ, **BLAS_CAPS, **MALLOC_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env.pop("WALK_LOG", None)
    return env


def measure_setup(env: dict, deadline: float) -> tuple[list[float], list[float]]:
    """Wall times of ``python3 -c 'import ctqw.cli'`` in fresh interpreters,
    as measured and scaled to the reference speed."""
    cmd = [sys.executable, "-c", "import ctqw.cli"]
    times, ref_times = [], []
    before = calibrate.probe()
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True,
                       timeout=max(1.0, deadline - time.monotonic()))
        seconds = time.perf_counter() - start
        after = calibrate.probe()
        if i:  # the first import may still be writing bytecode caches
            times.append(seconds)
            ref_times.append(calibrate.at_reference(seconds, before, after))
        before = after
    return times, ref_times


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="ctqw benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (SRC / "ctqw" / "cli.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    try:
        setup, ref_setup = measure_setup(env, deadline)
        proc = subprocess.run(
            [sys.executable, str(HERE / "harness.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", str(WORKDIR)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.CalledProcessError as exc:
        print(f"error: importing ctqw.cli failed:\n{exc.stderr.decode()[-2000:]}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    for label, problem in sorted(res["failures"].items()):
        print(f"FAILED {label}: {problem}")
    walls, ref_walls = res["walls"], res["ref_walls"]
    print(f"{args.workload} seed {args.seed}: failed_frac {res['failed'] / res['attempted']:.4f} "
          f"({res['failed']}/{res['attempted']} calls)")
    print(f"wall_ref_s per pass: median {statistics.median(ref_walls):.4f} "
          f"max {max(ref_walls):.4f} over {len(ref_walls)} passes "
          f"(too few for a tail percentile with ten samples beyond it)")
    print(f"wall_s per pass: median {statistics.median(walls):.4f} max {max(walls):.4f}; "
          f"host probe at {res['host_factor']:.3f} x the reference time")
    print(f"setup_s: median {statistics.median(ref_setup):.4f} over {len(setup)} imports; "
          f"unscaled {statistics.median(setup):.4f}")

    if args.trace:
        layers = res["layers"]
        if res["absent"]:
            print("absent layers (function names not found): " + ", ".join(res["absent"]))
        if res["unreadable"]:
            print("counts whose return values changed shape: " + ", ".join(res["unreadable"]))
        metrics = {k: metric(v, "s" if k.endswith("_s") else "count")
                   for k, v in sorted(layers.items())}
        metrics["verify.max_err"]["unit"] = "abs"
        metrics["cli.bytes_out"]["unit"] = "bytes"
        metrics["amplitudes.serialized_bytes"]["unit"] = "bytes"
        metrics["run.wall_s"] = metric(statistics.median(walls), "s")
        metrics["run.setup_s"] = metric(statistics.median(setup), "s")
    else:
        metrics = {
            "wall_ref_s": metric(statistics.median(ref_walls), "s"),
            "setup_s": metric(statistics.median(ref_setup), "s"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        }
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
