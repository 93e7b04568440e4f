"""Brute-force reference: the propagator column exp(-iAt)|origin> computed as
the action of the matrix exponential on the origin's vertex state.

The action is the Chebyshev propagator of Tal-Ezer & Kosloff (J. Chem. Phys.
81, 3967, 1984). With R the largest row sum of A, a Gershgorin bound on its
spectrum,

    exp(-iAt) v = sum_k (2 - delta_k0) (-i)^k J_k(Rt) T_k(A/R) v,

where T_k(A/R) v follows from the three-term recursion, one sparse matvec
per term, and every sample time reuses the same vectors. The coefficients
come from the Jacobi-Anger expansion exp(-ix cos th) = sum_k (-i)^k J_k(x)
exp(ik th), one FFT per sample. Nothing in it knows the spectrum, so it
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

# Chebyshev vectors accumulated into the result per matrix product
_BLOCK = 64
# FFT values alive at once while the coefficient table is built
_FFT_CHUNK = 1 << 12


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
    """(K, T) table of (2 - delta_k0) (-i)^k J_k(x_j), K = ``terms``: the
    Chebyshev coefficients of exp(-i x_j y) on y in [-1, 1].

    Row k is the k-th Fourier coefficient of exp(-i x cos th), from an FFT
    over N >= 2K equispaced th, so the coefficients aliased onto it are of
    order J_{N-K}(x), below the truncation error.
    """
    points = 1 << (2 * terms - 1).bit_length()
    cos_theta = np.cos(2.0 * np.pi / points * np.arange(points))
    table = np.empty((terms, x.size), dtype=np.complex128)
    chunk = max(1, _FFT_CHUNK // points)
    for start in range(0, x.size, chunk):
        values = np.exp(-1j * np.multiply.outer(x[start:start + chunk], cos_theta))
        table[:, start:start + chunk] = np.fft.fft(values, axis=1)[:, :terms].T
    table[1:] *= 2.0 / points
    table[0] *= 1.0 / points
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
    """(n, T) columns sum_k table[k, j] T_k(A/R) state, for R = ``radius``.

    Blocks of ``_BLOCK`` vectors enter through one real product with the
    table's interleaved real and imaginary parts, so no K x n array exists.
    """
    terms = _chebyshev_vectors(a, radius, state)
    weights = table.view(np.float64)  # (K, 2T): re, im, re, im, ...
    out = np.zeros((state.size, weights.shape[1]))
    for start in range(0, weights.shape[0], _BLOCK):
        rows = weights[start:start + _BLOCK]
        out += np.array(list(islice(terms, rows.shape[0]))).T @ rows
    return out.view(np.complex128)
