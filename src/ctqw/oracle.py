"""Brute-force reference: the propagator column exp(-iAt)|origin> computed as
the action of the matrix exponential on the origin's vertex state.

The action comes from scipy's ``expm_multiply``, the truncated-Taylor method
of Al-Mohy & Higham (SIAM J. Sci. Comput. 33, 2011). It needs no
eigendecomposition, so it shares no algorithm with the pipeline's tridiagonal
reduction and measure extraction: the cross-checks compare two independent
routes. The result is per vertex; ``verify.check_oracle`` compares all of it,
mapping the pipeline's level amplitudes to vertices through the Krylov basis.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParams
from .graphs import Graph, vertex_state


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

