"""Workload process: runs one workload's call list in a closed loop.

One caller, in-process through ``ctqw.cli.main(argv)``: the next call starts
only after the previous one returns.  The call list is built from the seed
before timing.  The first pass writes every output to the work directory for
the correctness checks, which run after the timed loop; later passes keep
only a sha256 digest of each output, which must match the first pass's (and,
for ``emit_series``, the first pass's must match the digest pinned in
``expected.json``).  Digests and file writes happen between calls, outside
the timed intervals.

A host-speed probe (``calibrate.py``) runs before the first call of a pass
and after every call, outside the timed intervals.  Each call's time is also
scaled by the mean of the probes on either side of it; a pass's scaled times
add up to its time at the reference machine's speed.

With ``--trace 1`` the timed passes alternate between untraced and traced;
per-layer metrics come from the traced passes and ``trace.overhead_s`` is the
difference of the two medians of scaled pass times.

Run by ``run.py``, which sets PYTHONPATH and the BLAS thread caps; prints one
JSON object as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import calibrate
import checks
import tracer as tracing
from workloads import WORKLOADS, Call

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"


def hamming_intersection_numbers() -> str:
    """Library call of ``reduce_large``: all-pairs distance work on H(3,8)."""
    import ctqw.catalog
    import ctqw.graphs

    ia = ctqw.graphs.intersection_numbers(ctqw.catalog.entry_from_spec("hamming:3,8").build())
    return json.dumps({"b": list(ia.b), "c": list(ia.c)})


@dataclass
class Outcome:
    seconds: float
    rc: int | None
    error: str
    text: str


def invoke(call: Call) -> Outcome:
    import ctqw.cli

    out, err = io.StringIO(), io.StringIO()
    error, rc = "", None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if call.library:
                out.write(globals()[call.library]())
                rc = 0
            else:
                rc = ctqw.cli.main(list(call.argv))
    except SystemExit as exc:   # argparse rejects the argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:    # a crash is a failed call, not a dead run
        where = traceback.extract_tb(exc.__traceback__)[-1]
        error = f"{type(exc).__name__}: {exc} (at {where.filename}:{where.lineno})"
    seconds = time.perf_counter() - start
    if rc not in (0, None):
        error = error or f"exit code {rc}: {err.getvalue().strip()[-300:]}"
    return Outcome(seconds, rc, error, out.getvalue())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    calls = WORKLOADS[workload](seed, workdir)
    pinned = json.loads(EXPECTED.read_text()).get(workload, {})
    failures: dict[str, str] = {}    # label -> first problem seen
    bad: dict[str, int] = {}         # label -> failed invocations
    runs: dict[str, int] = {}        # label -> invocations

    def record(call: Call, o: Outcome, want: str | None, against: str) -> str:
        h = digest(o.text)
        runs[call.label] = runs.get(call.label, 0) + 1
        problem = o.error or (f"payload differs from {against}" if want not in (None, h) else "")
        if problem:
            failures.setdefault(call.label, problem)
            bad[call.label] = bad.get(call.label, 0) + 1
        return h

    tr = tracing.Tracer() if trace else None
    first: dict[str, str] = {}       # label -> digest of the first pass's output
    walls, ref_walls, traced_ref_walls, layer_rows, spans = [], [], [], [], []
    probes = []
    t_end = time.perf_counter() + seconds
    traced = False
    while True:
        if traced:
            tr.reset()
            tr.install()
        wall, ref_wall, nbytes = 0.0, 0.0, 0
        before = calibrate.probe()
        try:
            for i, call in enumerate(calls):
                o = invoke(call)
                after = calibrate.probe()
                probes.append(after)
                wall += o.seconds
                ref_wall += calibrate.at_reference(o.seconds, before, after)
                before = after
                nbytes += len(o.text)
                if call.label in first:
                    record(call, o, first[call.label], "the first pass")
                else:
                    # the first pass keeps its outputs on disk for the checks
                    first[call.label] = record(call, o, pinned.get(call.label), "the pinned sha256")
                    (workdir / f"{workload}-{i}.out").write_text(o.text)
        finally:
            if traced:
                tr.uninstall()
        if traced:
            traced_ref_walls.append(ref_wall)
            row = tr.metrics()
            row["cli.bytes_out"] = nbytes
            layer_rows.append(row)
            spans.append(tr.dump())
        else:
            walls.append(wall)
            ref_walls.append(ref_wall)
        traced = tr is not None and not traced
        left = t_end - time.perf_counter()
        if (left <= 0 or left < 0.5 * wall) and (tr is None or traced_ref_walls):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # every timed output matched the first pass byte for byte, so a first-pass
    # output that fails its check fails every invocation of that call
    rng = np.random.default_rng(seed)
    for i, call in enumerate(calls):
        text = (workdir / f"{workload}-{i}.out").read_text()
        try:
            problem = checks.CHECKS[call.check](call, text, rng)
        except Exception as exc:    # output too malformed to check
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.setdefault(call.label, problem)
            bad[call.label] = runs[call.label]

    result = {
        "attempted": sum(runs.values()),
        "failed": sum(bad.values()),
        "failures": failures,
        "walls": walls,
        "ref_walls": ref_walls,
        "host_factor": statistics.median(probes) / calibrate.REF_S,
        "peak_rss_mb": peak_rss_mb,
    }
    if tr is not None:
        # the loop makes at least one traced pass
        layers = {k: statistics.median(r[k] for r in layer_rows) for k in layer_rows[0]}
        layers["verify.max_err"] = max(r["verify.max_err"] for r in layer_rows)
        layers["trace.overhead_s"] = (statistics.median(traced_ref_walls)
                                      - statistics.median(ref_walls))
        result["layers"] = layers
        result["absent"] = tr.absent()
        result["unreadable"] = sorted(tr.unreadable)
        spans_file = workdir / f"trace-{workload}-{seed}.json"
        spans_file.write_text(json.dumps({"labels": [c.label for c in calls], "passes": spans}))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    args = p.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
