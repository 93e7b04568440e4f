"""Tridiagonal reduction coefficients for the walk Hamiltonian.

Three routes produce the same object: closed-form coefficients from an
intersection array, shell-count coefficients for stratification-invariant
(QD) graphs, and a Lanczos recursion for arbitrary reference states. The
squared off-diagonals ``omega`` are stored instead of the off-diagonals
themselves because every downstream formula consumes the squares.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NotQDType, ZeroReference
from .graphs import Graph, IntersectionArray, Stratification, classify_qd

logger = logging.getLogger(__name__)

# Lanczos stops when the residual norm drops below this fraction of the
# operator norm bound (the largest row sum); full reorthogonalization keeps
# ghost modes out.
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
    def depth(self) -> int:
        return len(self.omega)

    @property
    def dim(self) -> int:
        """Dimension of the tridiagonal operator (= number of spectral atoms)."""
        return len(self.alpha)

    def betas(self) -> np.ndarray:
        return np.sqrt(np.asarray(self.omega, dtype=np.float64))

    def tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """(diagonal, off-diagonal) arrays of the reduced operator."""
        return np.asarray(self.alpha, dtype=np.float64), self.betas()

    def truncated(self, dim: int) -> "JacobiCoefficients":
        """Leading principal block of the given dimension."""
        if not (1 <= dim <= self.dim):
            raise InvalidParams(f"truncation dim {dim} outside [1, {self.dim}]")
        return JacobiCoefficients(self.alpha[:dim], self.omega[: dim - 1])

    def as_dict(self) -> dict:
        return {"alpha": list(self.alpha), "omega": list(self.omega)}

    def to_json(self) -> str:
        return json.dumps(self.as_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "JacobiCoefficients":
        try:
            alpha = tuple(float(x) for x in data["alpha"])
            omega = tuple(float(x) for x in data["omega"])
        except (KeyError, TypeError, ValueError):
            raise InvalidParams("expected {'alpha': [...], 'omega': [...]}") from None
        return cls(alpha=alpha, omega=omega)

    @classmethod
    def from_json(cls, text: str) -> "JacobiCoefficients":
        return cls.from_dict(json.loads(text))


def qd_from_intersection_array(ia: IntersectionArray) -> JacobiCoefficients:
    """alpha_k = kappa - b_k - c_k (alpha_0 = 0), omega_k = b_{k-1} c_k."""
    kappa = ia.valency
    d = ia.diameter
    alpha = [0.0]
    omega = []
    for k in range(1, d + 1):
        b_k = ia.b[k] if k < d else 0
        c_k = ia.c[k - 1]
        alpha.append(float(kappa - b_k - c_k))
        omega.append(float(ia.b[k - 1] * c_k))
    return JacobiCoefficients(tuple(alpha), tuple(omega))


def jacobi_from_strata(g: Graph, strat: Stratification) -> JacobiCoefficients:
    """Coefficients from per-shell neighbor counts of a QD-type stratification.

    alpha_k is the within-shell neighbor count of shell k; omega_k is the
    product of the up-count of shell k-1 and the down-count of shell k,
    which equals the squared cross-shell matrix element.
    """
    cls = classify_qd(g, strat)
    if not cls:
        raise NotQDType(
            f"stratification from origin {strat.origin} is not QD type; "
            f"witness {cls.witness}"
        )
    levels = len(strat.shells)
    alpha = tuple(float(cls.within_counts[k]) for k in range(levels))
    omega = tuple(
        float(cls.up_counts[k - 1] * cls.down_counts[k]) for k in range(1, levels)
    )
    return JacobiCoefficients(alpha, omega)


def lanczos(
    g: Graph,
    reference: np.ndarray,
    *,
    deflation_tol: float = DEFLATION_TOL,
    return_basis: bool = False,
):
    """Three-term recursion coefficients of the adjacency matrix on the
    Krylov space generated from ``reference``.

    Each step is one sparse (CSR) matvec, O(edges), and writes the new basis
    vector into row k of a preallocated (n, n) array, so the basis is never
    copied. Full reorthogonalization (applied twice per step, against the
    rows written so far) keeps the basis orthonormal at desk scale; iteration
    stops when the residual norm falls below ``deflation_tol`` relative to
    the largest row sum of the adjacency, or when the space is exhausted.
    With ``return_basis`` the orthonormal Krylov basis is returned as the
    second element, an (n, dim) array with columns in generation order.
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
    cutoff = deflation_tol * anorm

    # np.empty rows are not resident until written: memory follows the dimension
    basis = np.empty((g.n, g.n))
    alphas: list[float] = []
    omegas: list[float] = []
    q_prev = np.zeros(g.n)
    beta = 0.0
    for k in range(g.n):
        basis[k] = q
        w = a @ q
        alphas.append(float(q @ w))
        w = w - alphas[-1] * q - beta * q_prev
        done = basis[: k + 1]
        for _ in range(2):
            w = w - done.T @ (done @ w)
        beta = float(np.linalg.norm(w))
        if beta <= cutoff or k == g.n - 1:
            if beta <= cutoff and k < g.n - 1:
                logger.debug("lanczos deflated at dimension %d (residual %.3e)", k + 1, beta)
            break
        omegas.append(beta * beta)
        q_prev = q
        q = w / beta

    jc = JacobiCoefficients(tuple(alphas), tuple(omegas))
    if return_basis:
        return jc, basis[: jc.dim].T
    return jc
