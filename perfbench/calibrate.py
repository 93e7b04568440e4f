"""Host-speed probe, timed between workload calls.

The benchmark host is a small VM whose CPU speed shifts in phases: identical
passes of one workload differ by up to 50%, and the medians of 30 s runs
spread by up to 0.32 (README, "Scaling to the reference speed").  A probe of fixed work, timed right
before and right after a call, measures the host's speed at that moment.
Scaling the call's time by it removes most of the host's share of the spread
and none of the program's, because the probe runs no code of the package.

The probe mixes the kinds of work the workloads do: an interpreter loop,
small NumPy array operations, row and column rotations of a dense matrix,
float formatting and building CSV-like lines.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# One probe on the reference machine (2-vCPU x86-64 VM, Intel Xeon 2.1 GHz,
# Python 3.11.7, numpy 2.4.6), rounded: the median of ~3500 probes taken
# during twenty runs of two workloads was 0.83 ms.  Only ratios to it matter,
# so it stays fixed.
REF_S = 8.0e-4
REPEATS = 8

_M = np.random.default_rng(0).random((64, 64))
_R = np.random.default_rng(1).random((96, 96))


def _loop() -> int:
    s = 0
    for i in range(1500):
        s += i * i
    return s


def _arrays() -> np.ndarray:
    x = _M
    for _ in range(30):
        x = x * 0.5 + _M[0]
    return x


def _rotations() -> np.ndarray:
    """Plane rotations of rows and columns, the access pattern of a Jacobi sweep."""
    a = _R.copy()
    for p in range(20):
        q = p + 37
        row_p, row_q = a[p].copy(), a[q].copy()
        a[p, :] = 0.6 * row_p - 0.8 * row_q
        a[q, :] = 0.8 * row_p + 0.6 * row_q
        col_p, col_q = a[:, p].copy(), a[:, q].copy()
        a[:, p] = 0.6 * col_p - 0.8 * col_q
        a[:, q] = 0.8 * col_p + 0.6 * col_q
    return a


def _format() -> str:
    return ",".join(f"{v:.17g}" for v in _M[0])


def _lines() -> str:
    return "\n".join(["%d,%.6f,%.6f" % (i, i * 0.5, i * 0.25) for i in range(60)])


KERNELS = (_loop, _arrays, _rotations, _format, _lines)


def probe() -> float:
    """Seconds for one of each kernel: the sum of each kernel's median of
    ``REPEATS`` timings.  The garbage collector is paused, so that the
    program's heap does not change what the probe measures."""
    times = [[] for _ in KERNELS]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            for kernel, t in zip(KERNELS, times):
                start = time.perf_counter()
                kernel()
                t.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return sum(statistics.median(t) for t in times)


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two probes, scaled to the reference speed."""
    return seconds * REF_S * 2.0 / (before + after)
