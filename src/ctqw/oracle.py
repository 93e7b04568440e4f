"""Brute-force reference: the propagator column exp(-iAt)|origin> computed as
the action of the matrix exponential on the origin's vertex state.

The action comes from scipy's ``expm_multiply``, the truncated-Taylor method
of Al-Mohy & Higham (SIAM J. Sci. Comput. 33, 2011). It needs no
eigendecomposition, so it shares no algorithm with the pipeline's tridiagonal
reduction and measure extraction: the cross-checks compare two independent
routes.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParams
from .graphs import Graph, Stratification, vertex_state


def oracle_amplitudes(g: Graph, origin: int, t):
    """Propagator column <alpha|exp(-iAt)|origin> for every vertex alpha.

    Scalar t gives a vector over vertices; a 1-d grid gives shape (n, T).
    A grid of more than one sample must be evenly spaced and ascending, as
    ``np.linspace`` makes it; any other grid raises InvalidParams.
    """
    if not (0 <= origin < g.n):
        raise InvalidParams(f"origin {origin} out of range for n={g.n}")
    t = np.asarray(t, dtype=np.float64)
    if t.ndim > 1 or t.size == 0:
        raise InvalidParams(f"time must be a scalar or a non-empty 1-d grid, not {t.shape}")
    # expm_multiply samples start + k*h and returns wrong values for h <= 0
    if t.size > 1 and not (t[-1] > t[0] and np.allclose(
        t, np.linspace(t[0], t[-1], t.size), rtol=0.0, atol=1e-12 * max(1.0, np.abs(t).max())
    )):
        raise InvalidParams("oracle time grid must be evenly spaced and ascending")
    # imported here: only verification needs it, and it slows every CLI start
    from scipy.sparse.linalg import expm_multiply

    generator = -1j * g.adjacency
    state = vertex_state(g.n, origin)
    # expm_multiply's norm estimate (onenormest) draws from NumPy's global
    # stream; the caller's stream must come out as it went in
    rng_state = np.random.get_state()
    try:
        if t.size == 1:
            column = expm_multiply(t.item() * generator, state)
            return column if t.ndim == 0 else column[:, None]
        return expm_multiply(
            generator, state, start=t[0], stop=t[-1], num=t.size, endpoint=True
        ).T
    finally:
        np.random.set_state(rng_state)


def aggregate_to_strata(pvec: np.ndarray, strat: Stratification):
    """Fold per-vertex amplitudes into per-stratum ones.

    Returns ``(values, spread)`` with values[l] = sum over shell l divided by
    sqrt(shell size); ``spread`` is the largest deviation of any per-vertex
    amplitude from its shell mean, reporting on the equal-amplitude property
    rather than assuming it.
    """
    pvec = np.asarray(pvec)
    single = pvec.ndim == 1
    cols = pvec.reshape(pvec.shape[0], -1)
    levels = len(strat.shells)
    values = np.empty((levels, cols.shape[1]), dtype=np.complex128)
    spread = 0.0
    for l, shell in enumerate(strat.shells):
        idx = np.array(shell, dtype=np.int64)
        block = cols[idx, :]
        values[l] = block.sum(axis=0) / np.sqrt(len(shell))
        if len(shell) > 1:
            dev = np.abs(block - block.mean(axis=0, keepdims=True)).max()
            spread = max(spread, float(dev))
    return (values[:, 0], spread) if single else (values, spread)
