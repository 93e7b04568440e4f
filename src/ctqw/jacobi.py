"""Tridiagonal reduction coefficients for the walk Hamiltonian.

Two routes produce the same object. A catalog entry walked from vertex 0
states its coefficients or its intersection array, which gives them in
closed form. Every other walk, on an explicit graph or from another origin,
goes through ``reduce_walk``. Colour refinement (``equitable_cells``) finds
the coarsest equitable partition with the origin in a cell of its own,
which ``equitable_quotient`` checks exactly while it counts the edges
between cells. That quotient holds the origin's Krylov space (Krovi & Brun,
PRA 75, 062332, 2007); LAPACK's Householder tridiagonalization of it
(``reduce_partition``) gives the coefficients and, on request, the
orthonormal Krylov basis through which ``verify`` maps levels to vertices.
The origin is QD type exactly when the cells are its BFS shells, and the
coefficients are then the paper's shell-count ones. The squared
off-diagonals ``omega`` are stored instead of the off-diagonals themselves
because every downstream formula consumes the squares.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import EigensolverFailure, InvalidParams
from .graphs import Graph, IntersectionArray, stratify

logger = logging.getLogger(__name__)

# the Krylov space ends at the first off-diagonal below this fraction of the
# operator norm bound (the largest row sum)
DEFLATION_TOL = 1e-12


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


def equitable_cells(g: Graph, origin: int) -> tuple[np.ndarray, np.ndarray]:
    """The colour of each vertex in the coarsest equitable partition with
    ``{origin}`` as a cell, the origin's colour 0, and its integer quotient,
    from ``equitable_quotient``: the walk's partition.

    Colour refinement (Cardon & Crochemore, Theor. Comput. Sci. 19, 85, 1982)
    starts from each vertex's BFS distance and degree, which every such
    partition separates, and splits each colour by the sum of fixed integer
    weights of a vertex's neighbours' colours, one sparse matvec per round,
    until a round splits nothing. Each round numbers its colours in the order
    of the last round's, so the origin, alone at distance 0, keeps colour 0.
    Two weight sums that collide would merge two colours into a cell that is
    not equitable, which ``equitable_quotient`` finds.
    """
    a, n = g.adjacency, g.n
    # below 2^40, and a vertex has fewer than 2^11 neighbours (MAX_VERTICES
    # is 2000): a neighbour sum is exact in float64 and below 2^51, so equal
    # neighbour colours give equal sums, and colour * 2^51 + sum, with fewer
    # than 2^11 colours, fits in int64
    weights = np.random.default_rng(0).integers(1, 2**40, size=n).astype(np.float64)
    key = stratify(g, origin) * n + np.diff(a.indptr)
    cells = 0
    while True:
        _, colour = np.unique(key, return_inverse=True)
        count = int(colour.max()) + 1
        if count == cells:
            return equitable_quotient(g, origin, colour)
        cells = count
        key = (colour << 51) + (a @ weights[colour]).astype(np.int64)


def reduce_walk(g: Graph, origin: int, basis: bool) -> tuple[JacobiCoefficients, np.ndarray | None]:
    """The walk's coefficients from ``origin`` and, when ``basis`` is set,
    its orthonormal Krylov basis, an (n, dim) array with rows in vertex
    order: ``reduce_partition`` of ``equitable_cells``."""
    return reduce_partition(g, origin, equitable_cells(g, origin), basis)


def equitable_quotient(g: Graph, origin: int, colour: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``colour``, with the origin alone in colour 0, and its read-only int32
    quotient, e_ij = edges from cell i to cell j; the discrete
    partition's when ``colour`` is not equitable. One sparse product, each
    vertex's neighbours per cell, gives e and the exact check: every count
    times its vertex's cell size s_i is e_ij, a sum of s_i counts, only when
    those counts are equal. Costs O(m) and one k x k array for k cells.
    """
    # imported here: scipy.sparse would slow every CLI start
    from scipy.sparse import csr_array

    n = g.n
    k = int(colour.max()) + 1
    counts = g.adjacency @ csr_array((np.ones(n), colour, np.arange(n + 1)), shape=(n, k))
    row_colour = np.repeat(colour, np.diff(counts.indptr))
    # int32, half the memory: e_ij <= 2m < 2^31, exact in the reduction's float64
    e = np.bincount(row_colour * k + counts.indices, counts.data, k * k).astype(np.int32).reshape(k, k)
    sizes = np.bincount(colour)
    if not np.array_equal(counts.data * sizes[row_colour], e[row_colour, counts.indices]):
        discrete = np.arange(n)
        discrete[[0, origin]] = discrete[[origin, 0]]
        return equitable_quotient(g, origin, discrete)
    e.setflags(write=False)
    return colour, e


def reduce_partition(
    g: Graph, origin: int, partition: tuple[np.ndarray, np.ndarray], basis: bool
) -> tuple[JacobiCoefficients, np.ndarray | None]:
    """``reduce_walk`` on ``partition``, a colouring and its quotient e from
    ``equitable_quotient``, which it leaves as they are.

    For cell sizes s, the vectors 1_i / sqrt(s_i) of the cells are
    orthonormal, the first is the origin's vertex state, and the adjacency
    acts on them as E_ij = e_ij / sqrt(s_i s_j) does. LAPACK's blocked
    Householder tridiagonalization (``dsytrd``) of E touches no index 0, so
    the tridiagonal matrix's leading block, up to its first off-diagonal at
    or below ``DEFLATION_TOL`` times the largest degree, is the Jacobi matrix
    of the origin's Krylov space with off-diagonals of either sign. The basis
    is the first dim columns of the reflectors' product (``dorgqr``), each
    column's sign chosen so that every off-diagonal is positive, lifted to
    vertices as ``q[colour] / sqrt(s[colour])``. Costs O(k^3) time and one
    k x k array.
    """
    # imported here: scipy.linalg would slow every CLI start
    from scipy.linalg.lapack import dorgqr, dsytrd, dsytrd_lwork

    colour, e = partition
    k = e.shape[0]
    root = np.sqrt(np.bincount(colour))
    # E, a copy of e; it is symmetric, so E.T is the same matrix in Fortran
    # order: dsytrd overwrites it instead of a copy
    e = e / root
    e /= root[:, None]
    lwork, _ = dsytrd_lwork(k, lower=1)
    c, d, off, tau, info = dsytrd(e.T, lower=1, lwork=int(lwork), overwrite_a=1)
    if info != 0:
        raise EigensolverFailure(f"Householder tridiagonalization failed (LAPACK info {info})")
    small = np.flatnonzero(np.abs(off) <= DEFLATION_TOL * max(1.0, float(g.max_degree)))
    dim = int(small[0]) + 1 if small.size else k
    jc = JacobiCoefficients(tuple(d[:dim].tolist()), tuple((off[: dim - 1] ** 2).tolist()))
    logger.info("origin %d: %d cells, dimension %d", origin, k, dim)
    if not basis:
        return jc, None

    q = np.zeros((k, dim))
    q[0, 0] = 1.0
    if dim > 1:
        # reflector j lies below the diagonal of column j of c[1:], copied
        # once; the default lwork would take LAPACK's unblocked path
        reflectors, taus = np.asfortranarray(c[1:, : dim - 1]), tau[: dim - 1]
        lwork = int(dorgqr(reflectors, taus, lwork=-1, overwrite_a=1)[1][0])
        tail, _, info = dorgqr(reflectors, taus, lwork=lwork, overwrite_a=1)
        if info != 0:
            raise EigensolverFailure(f"Householder basis failed (LAPACK info {info})")
        q[1:, 1:] = tail
    # column j times the signs of off_0 .. off_{j-1}
    q *= np.cumprod(np.sign(np.concatenate(([1.0], off[: dim - 1]))))
    q /= root[:, None]
    return jc, q[colour]
