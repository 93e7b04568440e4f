"""Tridiagonal reduction coefficients for the walk Hamiltonian.

Two routes produce the same object: closed-form coefficients from an
intersection array, for catalog entries walked from vertex 0, and a
Lanczos recursion from any reference state, for every explicit graph and
origin; it reorthogonalizes by the DGKS test and returns the orthonormal
Krylov basis with the coefficients, through which ``verify`` maps levels to
vertices. On a QD-type origin the Krylov levels are the normalized BFS
shells, so Lanczos reproduces the shell-count coefficients of the paper.
The squared off-diagonals ``omega`` are stored instead of the off-diagonals
themselves because every downstream formula consumes the squares.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, ZeroReference
from .graphs import Graph, IntersectionArray

logger = logging.getLogger(__name__)

# Lanczos stops when the residual norm drops below this fraction of the
# operator norm bound (the largest row sum); full reorthogonalization keeps
# ghost modes out.
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


def lanczos(g: Graph, reference: np.ndarray) -> tuple[JacobiCoefficients, np.ndarray]:
    """Three-term recursion coefficients of the adjacency matrix on the
    Krylov space generated from ``reference``, and that space's orthonormal
    basis, an (n, dim) array with columns in generation order.

    Each step is one sparse (CSR) matvec, O(edges), and writes the new basis
    vector into row k of a preallocated (n, n) array, so the basis is never
    copied. One Gram-Schmidt pass against the rows written so far, and a
    second where the first kept less than ``REORTH_KEPT`` of the norm, keep
    the basis orthonormal. Iteration stops when the residual norm falls below
    ``DEFLATION_TOL`` relative to the largest row sum of the adjacency, or
    when the space is exhausted.
    """
    ref = np.asarray(reference, dtype=np.float64).reshape(-1)
    if ref.shape[0] != g.n:
        raise InvalidParams(f"reference has length {ref.shape[0]}, expected {g.n}")
    norm = float(np.linalg.norm(ref))
    if norm < 1e-300:
        raise ZeroReference("reference vector has zero norm")
    q = ref / norm

    a = g.adjacency
    anorm = max(1.0, float(a.sum(axis=1).max()))
    cutoff = DEFLATION_TOL * anorm

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
