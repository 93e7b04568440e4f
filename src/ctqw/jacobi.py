"""Tridiagonal reduction coefficients for the walk Hamiltonian.

Three routes produce the same object. A catalog entry walked from vertex 0
states its coefficients or its intersection array, which gives them in
closed form. Every other walk, on an explicit graph or from another origin,
goes through ``reduce_walk``. It bounds the dimension of the Krylov space of
the origin's vertex state by colour refinement (``equitable_cells``). Below
half the vertex count it runs a Lanczos recursion that reorthogonalizes by
the DGKS test (``lanczos``); at or above it, LAPACK's Householder
tridiagonalization of the dense adjacency (``householder``). Both return, on
request, the orthonormal Krylov basis through which ``verify`` maps levels
to vertices. On a QD-type origin the Krylov levels are the normalized BFS
shells, so both reproduce the shell-count coefficients of the paper. The
squared off-diagonals ``omega`` are stored instead of the off-diagonals
themselves because every downstream formula consumes the squares.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EigensolverFailure, InvalidParams
from .graphs import Graph, IntersectionArray, check_vertex, stratify, vertex_state

logger = logging.getLogger(__name__)

# both graph routes end the Krylov space at the first off-diagonal below this
# fraction of the operator norm bound (the largest row sum); full
# reorthogonalization keeps ghost modes out of Lanczos.
DEFLATION_TOL = 1e-12
# a Gram-Schmidt pass that keeps less of its starting norm than this is
# repeated once (DGKS: Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 772)
REORTH_KEPT = 2.0 ** -0.5


@dataclass(frozen=True)
class JacobiCoefficients:
    """Diagonal alpha_0..alpha_d and squared off-diagonal omega_1..omega_d."""

    alpha: tuple[float, ...]
    omega: tuple[float, ...]

    def __post_init__(self):
        if len(self.alpha) != len(self.omega) + 1:
            raise InvalidParams(
                f"alpha must have one more entry than omega "
                f"({len(self.alpha)} vs {len(self.omega)})"
            )
        if not all(np.isfinite(self.alpha)) or not all(np.isfinite(self.omega)):
            raise InvalidParams("coefficients must be finite")
        for k, w in enumerate(self.omega, start=1):
            if w <= 0:
                raise InvalidParams(f"omega_{k} = {w} must be positive")

    @property
    def dim(self) -> int:
        """Dimension of the tridiagonal operator (= number of spectral atoms)."""
        return len(self.alpha)

    def betas(self) -> np.ndarray:
        return np.sqrt(np.asarray(self.omega, dtype=np.float64))

    def tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """(diagonal, off-diagonal) arrays of the reduced operator."""
        return np.asarray(self.alpha, dtype=np.float64), self.betas()


def qd_from_intersection_array(ia: IntersectionArray) -> JacobiCoefficients:
    """alpha_k = a_k = kappa - b_k - c_k, omega_k = b_{k-1} c_k."""
    return JacobiCoefficients(
        tuple(float(a) for a in ia.a),
        tuple(float(b * c) for b, c in zip(ia.b, ia.c)),
    )


def lanczos(g: Graph, origin: int) -> tuple[JacobiCoefficients, np.ndarray]:
    """Three-term recursion coefficients of the adjacency matrix on the
    Krylov space started at the vertex state of ``origin``, and that space's
    orthonormal basis, an (n, dim) array with columns in generation order.

    Each step is one sparse (CSR) matvec, O(edges), and writes the new basis
    vector into row k of a preallocated (n, n) array, so the basis is never
    copied. One Gram-Schmidt pass against the rows written so far, and a
    second where the first kept less than ``REORTH_KEPT`` of the norm, keep
    the basis orthonormal. Iteration stops when the residual norm falls below
    ``DEFLATION_TOL`` relative to the largest row sum of the adjacency, or
    when the space is exhausted.
    """
    q = vertex_state(g.n, origin)
    a = g.adjacency
    cutoff = _cutoff(g)

    # np.empty rows are not resident until written: memory follows the dimension
    basis = np.empty((g.n, g.n))
    alphas: list[float] = []
    omegas: list[float] = []
    q_prev = np.zeros(g.n)
    beta = 0.0
    second_passes = 0
    for k in range(g.n):
        basis[k] = q
        w = a @ q
        alphas.append(float(q @ w))
        w = w - alphas[-1] * q - beta * q_prev
        done = basis[: k + 1]
        before = float(np.linalg.norm(w))
        w -= done.T @ (done @ w)
        beta = float(np.linalg.norm(w))
        if beta < REORTH_KEPT * before:
            second_passes += 1
            w -= done.T @ (done @ w)
            beta = float(np.linalg.norm(w))
        if beta <= cutoff or k == g.n - 1:
            break
        omegas.append(beta * beta)
        q_prev = q
        q = w / beta

    jc = JacobiCoefficients(tuple(alphas), tuple(omegas))
    logger.debug("lanczos dimension %d, %d steps with a second Gram-Schmidt pass, "
                 "final residual %.3e", jc.dim, second_passes, beta)
    return jc, basis[: jc.dim].T


def _cutoff(g: Graph) -> float:
    return DEFLATION_TOL * max(1.0, float(g.max_degree))


def householder(g: Graph, origin: int, basis: bool) -> tuple[JacobiCoefficients, np.ndarray | None]:
    """The coefficients of ``lanczos`` by LAPACK's blocked Householder
    tridiagonalization (``dsytrd``) of the dense adjacency with ``origin``
    moved to index 0, and, when ``basis`` is set, the (n, dim) Krylov basis
    with rows in vertex order.

    No reflector touches index 0, so the tridiagonal matrix's leading block,
    up to its first off-diagonal at or below the cutoff of ``lanczos``, is the
    Jacobi matrix of the origin's Krylov space with off-diagonals of either
    sign. The basis is the first dim columns of the reflectors' product
    (``dorgqr``), each column's sign chosen so that every off-diagonal is
    positive. Costs O(n^3) time and one n x n array, however small the space.
    """
    # imported here: scipy.linalg would slow every CLI start
    from scipy.linalg.lapack import dorgqr, dsytrd, dsytrd_lwork

    n = g.n
    check_vertex(n, origin)
    a = g.adjacency.toarray()
    swap = [origin, 0]
    a[[0, origin]] = a[swap]
    a[:, [0, origin]] = a[:, swap]
    # a is symmetric, so a.T is the same matrix in Fortran order: dsytrd
    # overwrites it instead of a copy
    lwork, _ = dsytrd_lwork(n, lower=1)
    c, d, e, tau, info = dsytrd(a.T, lower=1, lwork=int(lwork), overwrite_a=1)
    if info != 0:
        raise EigensolverFailure(f"Householder tridiagonalization failed (LAPACK info {info})")
    small = np.flatnonzero(np.abs(e) <= _cutoff(g))
    dim = int(small[0]) + 1 if small.size else n
    jc = JacobiCoefficients(tuple(d[:dim].tolist()), tuple((e[: dim - 1] ** 2).tolist()))
    if not basis:
        return jc, None

    q = np.zeros((n, dim))
    q[0, 0] = 1.0
    if dim > 1:
        # reflector k lies below the diagonal of column k of c[1:], copied
        # once; the default lwork would take LAPACK's unblocked path
        reflectors, taus = np.asfortranarray(c[1:, : dim - 1]), tau[: dim - 1]
        lwork = int(dorgqr(reflectors, taus, lwork=-1, overwrite_a=1)[1][0])
        tail, _, info = dorgqr(reflectors, taus, lwork=lwork, overwrite_a=1)
        if info != 0:
            raise EigensolverFailure(f"Householder basis failed (LAPACK info {info})")
        q[1:, 1:] = tail
    # column k times the signs of e_0 .. e_{k-1}
    q *= np.cumprod(np.sign(np.concatenate(([1.0], e[: dim - 1]))))
    q[[0, origin]] = q[swap]
    return jc, q


def equitable_cells(g: Graph, origin: int) -> int:
    """Cell count of the coarsest equitable partition with ``{origin}`` as
    a cell.

    The cell indicators span an adjacency-invariant space that holds the
    origin's vertex state, so the count bounds the dimension of its Krylov
    space (Krovi & Brun, PRA 75, 062332, 2007). Colour refinement (Cardon &
    Crochemore, Theor. Comput. Sci. 19, 85, 1982) starts from each vertex's
    BFS distance and degree, which every such partition separates, and splits
    each colour by the sum of fixed integer weights of a vertex's neighbours'
    colours, one sparse matvec per round, until a round splits nothing. Two
    weight sums that collide would merge two colours; the count then only
    picks a slower route in ``reduce_walk``, never other coefficients.
    """
    a, n = g.adjacency, g.n
    # below 2^40, and a vertex has fewer than 2^11 neighbours (MAX_VERTICES
    # is 2000): a neighbour sum is exact in float64 and below 2^51, so equal
    # neighbour colours give equal sums and sum * n + colour fits in int64
    weights = np.random.default_rng(0).integers(1, 2**40, size=n).astype(np.float64)
    key = stratify(g, origin) * n + np.diff(a.indptr)
    cells = 0
    while True:
        _, colour = np.unique(key, return_inverse=True)
        count = int(colour.max()) + 1
        if count == cells:
            return count
        cells = count
        key = (a @ weights[colour]).astype(np.int64) * n + colour


class Reduction(NamedTuple):
    route: str                # "lanczos" or "householder"
    cells: int                # the refinement's count that chose the route
    jc: JacobiCoefficients
    basis: np.ndarray | None  # (n, dim) and orthonormal, when asked for


def reduce_walk(g: Graph, origin: int, basis: bool) -> Reduction:
    """The walk's coefficients from ``origin``, and its Krylov basis when
    ``basis`` is set, by the cheaper route for the graph. Where refinement
    reaches half the vertex count the Krylov space may fill the graph, and
    the blocked Householder route takes about a third of the time of
    memory-bound full-reorthogonalization Lanczos; below it, Lanczos costs
    dim matvecs while the dense route still costs n^3."""
    cells = equitable_cells(g, origin)
    if 2 * cells >= g.n:
        return Reduction("householder", cells, *householder(g, origin, basis))
    jc, q = lanczos(g, origin)
    return Reduction("lanczos", cells, jc, q if basis else None)
