"""Brute-force reference: the propagator column exp(-iAt)|origin> computed as
the action of the matrix exponential on the origin's vertex state.

The action is the Chebyshev propagator of Tal-Ezer & Kosloff (J. Chem. Phys.
81, 3967, 1984). With R the largest row sum of A, a Gershgorin bound on its
spectrum,

    exp(-iAt) v = sum_k (2 - delta_k0) (-i)^k J_k(Rt) T_k(A/R) v,

where T_k(A/R) v follows from the three-term recursion and every sample
time reuses the same vectors. A term costs one vector negation and one call
of SciPy's compiled CSR product (``csr_matvec``) on a copy of A's values
scaled by 2/R, made once per call: nnz floats more, 32 MB on
``complete:2000``. Each coefficient is real (even k) or imaginary (odd k),
so the table is real; its Bessel values come from Miller's backward
recurrence (Gautschi, SIAM Rev. 9, 24, 1967), run for every sample at once.
The sum stops at the first K above x = R max|t| at which Kapteyn's
inequality |J_k(k z)| <= [z e^s / (1 + s)]^k, s = sqrt(1 - z^2),
0 <= z <= 1 (Watson, Treatise on the Theory of Bessel Functions, 8.7)
proves 2 sum_{k>=K} |J_k(x)| <= 1e-16; since every |T_k(A/R) v| <= |v|,
that bounds the truncation error of every sample.
Nothing in it knows the spectrum, so it shares no algorithm with the
pipeline's tridiagonal reduction and measure extraction: the cross-checks
compare two independent routes. It takes any time grid and draws no random
numbers. The result is per vertex; ``verify.check_oracle`` compares all of
it, mapping the pipeline's level amplitudes to vertices through the Krylov
basis.
"""

from __future__ import annotations

import math

import numpy as np

from .amplitudes import MAX_SERIES_CELLS, as_times
from .errors import InvalidParams
from .graphs import Graph, vertex_state

# Chebyshev vectors and Miller rows per block; even, so a block row's parity
# is its term's
_BLOCK = 64
# bound on 2 sum_{k>=K} |J_k(x)|, the truncation error of a unit state
_TAIL = 1e-16
# below this |x| the leading Taylor term gives every J_k(x) to rounding
_SERIES_BELOW = 1e-8
# rescale once two adjacent rows' squares sum past this (see _coefficients)
_RESCALE_ABOVE = 1e200


def oracle_amplitudes(g: Graph, origin: int, t):
    """Propagator column <alpha|exp(-iAt)|origin> for every vertex alpha.

    Scalar t gives a vector over vertices; a 1-d grid (``as_times``) gives
    shape (n, T). The K x T coefficient table, K = ``_terms(R max|t|)``, is
    held to ``MAX_SERIES_CELLS`` cells, the bound of a series.
    """
    t = as_times(t)
    # Gershgorin: every eigenvalue of A lies in [-radius, radius]; radius >= 1
    # on a connected graph
    radius = float(g.max_degree)
    # Python floats overflow to inf, no warning; K > x_max, so a grid with
    # no room for x_max terms is refused before K is sought
    x_max = radius * float(np.abs(t).max())
    terms = _terms(x_max) if x_max * t.size < MAX_SERIES_CELLS else None
    if terms is None or terms * t.size > MAX_SERIES_CELLS:
        shown = f"> {x_max:.3g}" if terms is None else f"{terms}"
        raise InvalidParams(
            f"oracle table too large ({shown} terms x {t.size} samples"
            f" > {MAX_SERIES_CELLS} cells)"
        )
    table = _coefficients(radius * t.reshape(-1), terms)
    columns = _chebyshev_sum(g.adjacency, radius, vertex_state(g.n, origin), table)
    return columns[:, 0] if t.ndim == 0 else columns


def _terms(x: float) -> int:
    """The smallest K > x at which Kapteyn's bound gives
    2 sum_{k>=K} |J_k(y)| <= ``_TAIL`` for every |y| <= x (x finite, >= 0).

    With z = x/k and s = sqrt(1 - z^2), log B_k = k (log z + s - log(1 + s))
    bounds log |J_k(x)|; its slope in k is log(z / (1 + s)), which falls as
    k grows, so B_{K+j} <= B_K rho^j with rho = z / (1 + s) at k = K and the
    tail is at most B_K / (1 - rho). The bound rises with x, so it covers
    every smaller sample, and falls with K, so K is found by bisection in
    O(log(K - x)) steps, with no array.
    """
    if x == 0.0:
        return 1  # J_k(0) = 0 for k >= 1

    def log_tail(k: int) -> float:
        z = x / k
        s = math.sqrt((1.0 - z) * (1.0 + z))
        rho = z / (1.0 + s)
        if rho >= 1.0:  # x within rounding of k: no bound
            return math.inf
        return math.log(2.0) + k * (math.log(z) + s - math.log1p(s)) - math.log1p(-rho)

    target = math.log(_TAIL)
    low = math.floor(x) + 1
    if log_tail(low) <= target:
        return low
    # log_tail(low) > target >= log_tail(high)
    step = 1
    while log_tail(low + step) > target:
        low, step = low + step, 2 * step
    high = low + step
    while high - low > 1:
        mid = (low + high) // 2
        if log_tail(mid) <= target:
            high = mid
        else:
            low = mid
    return high


def _coefficients(x: np.ndarray, terms: int) -> np.ndarray:
    """Real (K, T) table, K = ``terms``: row k is the real (even k) or the
    imaginary (odd k) part, the other being zero, of (2 - delta_k0) (-i)^k
    J_k(x_j), the Chebyshev coefficients of exp(-i x_j y) on y in [-1, 1].

    Miller's recurrence J_{k-1} = (2k/x) J_k - J_{k+1} starts at
    K - 1 - floor(max|x| - |x_j|), so each sample starts at least as far past
    its turning point k = |x_j| as the largest does, and is normalized by
    J_0 + 2 sum_k J_2k = 1. Below ``_SERIES_BELOW``, the leading Taylor term
    (x/2)^k / k! is exact to rounding; such a column runs the recurrence at
    the largest |x| and is then overwritten, so one (K + 2, T) array holds
    every column.

    No entry overflows: with k < K <= ``MAX_SERIES_CELLS`` and |x_j| >=
    ``_SERIES_BELOW``, one step grows max(|f_k|, |f_{k+1}|) of a column by at
    most 2K/|x_j| + 1 < 1e16. Every third step, rows k and k + 1 are rescaled
    once their squares sum past ``_RESCALE_ABOVE``, so after the test their
    entries are at most 1e100, and at the next test at most 1e148; the
    squares summed there, over at most 2 * ``MAX_SERIES_CELLS`` entries of at
    most 1e296 each, stay below 1.8e308.
    """
    size = np.abs(x)
    tiny = size < _SERIES_BELOW
    f = np.zeros((terms + 2, x.size))
    if not tiny.all():
        largest = size.max()
        size[tiny] = largest
        starts = terms - 1 - (largest - size).astype(np.int64)
        # a column is zero above its start and holds its seed 1 until reached
        f[starts, np.arange(size.size)] = 1.0
        _miller(f, size)
        f /= f[0] + 2.0 * f[2::2].sum(axis=0)
    table = f[:terms]
    table[0, tiny] = 1.0
    table[1:, tiny] = np.cumprod(np.multiply.outer(0.5 / np.arange(1, terms), np.abs(x[tiny])), axis=0)
    # J_k(-x) = (-1)^k J_k(x); (2 - delta_k0) (-i)^k has signs +, -, -, +, ...
    table[1::2, x < 0] *= -1.0
    table[1:] *= 2.0 * (-1.0) ** ((np.arange(1, terms) + 1) // 2)[:, None]
    return table


def _miller(f: np.ndarray, size: np.ndarray) -> None:
    """Run f_k += (2(k+1)/size) f_{k+1} - f_{k+2} in place for k = K - 1 ... 0,
    K + 2 the rows of ``f``: three array operations a step on a block of
    quotient rows computed ``_BLOCK`` at a time."""
    terms = f.shape[0] - 2
    rows = list(f)
    flat = f.reshape(-1)
    width = size.size
    quotients = np.empty((_BLOCK, width))
    for top in range(terms, 0, -_BLOCK):
        low = max(top - _BLOCK, 0)
        block = quotients[:top - low]
        np.divide.outer(2.0 * np.arange(low + 1, top + 1), size, out=block)
        for k, step in zip(range(top - 1, low - 1, -1), block[::-1]):
            step *= rows[k + 1]
            step -= rows[k + 2]
            rows[k] += step
            if k % 3 == 0:
                pair = flat[k * width:(k + 2) * width]
                if pair @ pair > _RESCALE_ABOVE:
                    f[k:] /= np.maximum(np.abs(f[k:k + 2]).max(axis=0), 1.0)


def _chebyshev_sum(a, radius: float, state: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(n, T) columns sum_k c_k(t_j) T_k(A/R) state, for R = ``radius``; the
    even rows of the real ``table`` weigh the real part, the odd rows the
    imaginary part, each block of ``_BLOCK`` vectors in one product per part.

    One compiled CSR product per term after the first, K - 1 in all, on one
    copy of the values scaled by 2/R: T_{k+1} = -T_{k-1}, then += (2A/R) T_k
    (``csr_matvec`` adds into its output), and T_1 = (2A/R) T_0 / 2.
    """
    # imported here: scipy.sparse would slow every CLI start
    from scipy.sparse._sparsetools import csr_matvec

    terms = table.shape[0]
    n = state.size
    indptr, indices = a.indptr, a.indices
    scaled = a.data * (2.0 / radius)
    out = np.zeros((n, table.shape[1]), dtype=complex)
    # row i + 2 holds the block's term i; rows 0 and 1 the two terms before it
    vectors = np.empty((_BLOCK + 2, n))
    rows = list(vectors)
    vectors[2] = state
    if terms > 1:
        rows[3][:] = 0.0
        csr_matvec(n, n, indptr, indices, scaled, state, rows[3])
        rows[3] *= 0.5
    first = 4
    for start in range(0, terms, _BLOCK):
        coefficients = table[start:start + _BLOCK]
        end = coefficients.shape[0] + 2
        for i in range(first, end):
            np.negative(rows[i - 2], out=rows[i])
            csr_matvec(n, n, indptr, indices, scaled, rows[i - 1], rows[i])
        block = vectors[2:end]
        out.real += block[0::2].T @ coefficients[0::2]
        out.imag += block[1::2].T @ coefficients[1::2]
        vectors[:2] = vectors[_BLOCK:]
        first = 2
    return out
