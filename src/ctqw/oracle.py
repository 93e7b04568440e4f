"""Brute-force reference: the propagator column exp(-iAt)|origin> computed as
the action of the matrix exponential on the origin's vertex state.

The action is the Chebyshev propagator of Tal-Ezer & Kosloff (J. Chem. Phys.
81, 3967, 1984). With R the largest row sum of A, a Gershgorin bound on its
spectrum,

    exp(-iAt) v = sum_k (2 - delta_k0) (-i)^k J_k(Rt) T_k(A/R) v,

where T_k(A/R) v follows from the three-term recursion, one sparse matvec
per term, and every sample time reuses the same vectors. Each coefficient is
real (even k) or imaginary (odd k), so the table is real; its Bessel values
come from Miller's backward recurrence (Gautschi, SIAM Rev. 9, 24, 1967),
run for every sample at once. Nothing in it knows the spectrum, so it
shares no algorithm with the pipeline's tridiagonal reduction and measure
extraction: the cross-checks compare two independent routes. It takes any
time grid and draws no random numbers. The result is per vertex;
``verify.check_oracle`` compares all of it, mapping the pipeline's level
amplitudes to vertices through the Krylov basis.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .amplitudes import MAX_SERIES_CELLS, as_times
from .errors import InvalidParams
from .graphs import Graph, vertex_state

# Chebyshev vectors per block; even, so a block row's parity is its term's
_BLOCK = 64
# below this |x| the leading Taylor term gives every J_k(x) to rounding
_SERIES_BELOW = 1e-8
# rescale once a row's squares sum past this: Miller's recurrence grows by
# at most 2K/x < 1e16 per step above _SERIES_BELOW, so nothing overflows
_RESCALE_ABOVE = 1e200


def oracle_amplitudes(g: Graph, origin: int, t):
    """Propagator column <alpha|exp(-iAt)|origin> for every vertex alpha.

    Scalar t gives a vector over vertices; a 1-d grid (``as_times``) gives
    shape (n, T). The K x T coefficient table, K ~ R max|t| terms, is held to
    ``MAX_SERIES_CELLS`` cells, the bound of a series.
    """
    if not (0 <= origin < g.n):
        raise InvalidParams(f"origin {origin} out of range for n={g.n}")
    t = as_times(t)
    # Gershgorin: every eigenvalue of A lies in [-radius, radius]; radius >= 1
    # on a connected graph
    radius = float(g.adjacency.sum(axis=1).max())
    # enough terms for every sample; Python floats overflow to inf, no warning
    x_max = radius * float(np.abs(t).max())
    terms = x_max + 10.0 * float(np.cbrt(x_max)) + 40.0
    if terms * t.size > MAX_SERIES_CELLS:
        raise InvalidParams(
            f"oracle table too large ({terms:.3g} terms x {t.size} samples"
            f" > {MAX_SERIES_CELLS} cells)"
        )
    table = _coefficients(radius * t.reshape(-1), int(np.ceil(terms)))
    columns = _chebyshev_sum(g.adjacency, radius, vertex_state(g.n, origin), table)
    return columns[:, 0] if t.ndim == 0 else columns


def _coefficients(x: np.ndarray, terms: int) -> np.ndarray:
    """Real (K, T) table, K = ``terms``: row k is the real (even k) or the
    imaginary (odd k) part, the other being zero, of (2 - delta_k0) (-i)^k
    J_k(x_j), the Chebyshev coefficients of exp(-i x_j y) on y in [-1, 1].

    Miller's recurrence J_{k-1} = (2k/x) J_k - J_{k+1} starts past each
    sample's turning point k = |x| by the largest sample's margin, and is
    normalized by J_0 + 2 sum_k J_2k = 1. Below ``_SERIES_BELOW``, the
    leading Taylor term (x/2)^k / k! is exact to rounding.
    """
    size = np.abs(x)
    tiny = size < _SERIES_BELOW
    table = np.zeros((terms, x.size))
    table[0, tiny] = 1.0
    table[1:, tiny] = np.cumprod(np.multiply.outer(0.5 / np.arange(1, terms), size[tiny]), axis=0)
    size = size[~tiny]
    starts = (size + (terms - 1 - np.abs(x).max())).astype(np.int64)
    # a column is zero above its start and holds its seed 1 until reached
    f = np.zeros((terms + 2, size.size))
    f[starts, np.arange(size.size)] = 1.0
    for k in range(terms - 1, -1, -1):
        f[k] += (2.0 * (k + 1) / size) * f[k + 1] - f[k + 2]
        if f[k] @ f[k] > _RESCALE_ABOVE:
            f[k:] /= np.maximum(np.maximum(np.abs(f[k]), np.abs(f[k + 1])), 1.0)
    table[:, ~tiny] = (f / (f[0] + 2.0 * f[2::2].sum(axis=0)))[:terms]
    # J_k(-x) = (-1)^k J_k(x); (2 - delta_k0) (-i)^k has signs +, -, -, +, ...
    table[1::2, x < 0] *= -1.0
    table[1:] *= 2.0 * (-1.0) ** ((np.arange(1, terms) + 1) // 2)[:, None]
    return table


def _chebyshev_vectors(a, radius: float, state: np.ndarray):
    """T_0(A/R) state, T_1(A/R) state, ... without end, for R = ``radius``."""
    prev, cur = state, (a @ state) / radius
    yield prev
    while True:
        yield cur
        following = a @ cur
        following *= 2.0 / radius
        following -= prev
        prev, cur = cur, following


def _chebyshev_sum(a, radius: float, state: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(n, T) columns sum_k c_k(t_j) T_k(A/R) state, for R = ``radius``; the
    even rows of the real ``table`` weigh the real part, the odd rows the
    imaginary part, each block of ``_BLOCK`` vectors in one product per part.
    """
    terms = _chebyshev_vectors(a, radius, state)
    out = np.zeros((state.size, table.shape[1]), dtype=complex)
    for start in range(0, table.shape[0], _BLOCK):
        rows = table[start:start + _BLOCK]
        vectors = np.array(list(islice(terms, rows.shape[0])))
        out.real += vectors[0::2].T @ rows[0::2]
        out.imag += vectors[1::2].T @ rows[1::2]
    return out
