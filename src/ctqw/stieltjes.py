"""Orthogonal polynomial recursions, continued-fraction Stieltjes function,
and extraction of the atomic spectral measure (poles and residues).

The measure nodes come from a symmetric tridiagonal eigensolve and the
weights from the squared first eigenvector components; evaluating the monic
polynomial at its own roots is avoided everywhere because monic values
overflow well before depth 30.
"""

from __future__ import annotations

import cmath
import json
import logging
from dataclasses import dataclass

import numpy as np

from .errors import EigensolverFailure, InvalidParams, PoleProximity
from .jacobi import JacobiCoefficients

logger = logging.getLogger(__name__)

# both resolvent routes reject z when |1/G(z)| < POLE_TOL * (1 + |z|): for a
# probability measure that puts z within about POLE_TOL of a node
POLE_TOL = 1e-9
MERGE_TOL = 1e-9            # near-degenerate nodes closer than this x width merge


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite atomic measure: ascending nodes with positive weights summing to 1."""

    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    renormalization_defect: float = 0.0

    def __post_init__(self):
        if len(self.nodes) != len(self.weights) or not self.nodes:
            raise InvalidParams("nodes and weights must be equal-length and non-empty")
        if any(w <= 0 for w in self.weights):
            raise InvalidParams("weights must be positive")
        if any(b <= a for a, b in zip(self.nodes, self.nodes[1:])):
            raise InvalidParams("nodes must be strictly increasing")
        total = float(sum(self.weights))
        if abs(total - 1.0) > 1e-9:
            raise InvalidParams(f"weights sum to {total}, expected 1")

    @property
    def size(self) -> int:
        return len(self.nodes)

    def nodes_array(self) -> np.ndarray:
        return np.asarray(self.nodes, dtype=np.float64)

    def weights_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=np.float64)

    def as_dict(self) -> dict:
        return {"nodes": list(self.nodes), "weights": list(self.weights)}

    def to_json(self) -> str:
        return json.dumps(self.as_dict())


def _finite_point(z) -> complex:
    """``z`` as a complex number; both resolvent routes refuse a non-finite one."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise InvalidParams(f"z={z} is not finite")
    return z


def stieltjes_continued_fraction(jc: JacobiCoefficients, z: complex) -> complex:
    """Finite continued fraction 1/(z - alpha_0 - omega_1/(z - alpha_1 - ...)),
    evaluated bottom-up for stability.

    Raises PoleProximity when |1/G| < POLE_TOL (1 + |z|).
    """
    z = _finite_point(z)
    v = z - jc.alpha[jc.dim - 1]
    for j in range(jc.dim - 2, -1, -1):
        if abs(v) < 1e-150:
            v = 1e-150  # intermediate root of a trailing block; value stays finite
        v = z - jc.alpha[j] - jc.omega[j] / v
    if abs(v) < POLE_TOL * (1.0 + abs(z)):
        raise PoleProximity(f"z={z} is too close to a spectral node")
    return 1.0 / v


def stieltjes_pole_sum(measure: SpectralMeasure, z: complex) -> complex:
    """Partial-fraction form: sum of weight/(z - node).

    Raises PoleProximity when z is a node, and under the continued
    fraction's rule |1/G| < POLE_TOL (1 + |z|).
    """
    z = _finite_point(z)
    nodes = measure.nodes_array()
    if (nodes == z).any():
        raise PoleProximity(f"z={z} is a spectral node")
    g = complex(np.sum(measure.weights_array() / (z - nodes)))
    # the rule multiplied through by |G|, so that a vanishing G needs no division
    if abs(g) * POLE_TOL * (1.0 + abs(z)) > 1.0:
        raise PoleProximity(f"z={z} is too close to a spectral node")
    return g


def spectral_measure(jc: JacobiCoefficients) -> SpectralMeasure:
    """Nodes and weights of the measure attached to the tridiagonal operator.

    Nodes are the eigenvalues; weights are squared first components of the
    normalized eigenvectors. Weights are renormalized to unit mass and the
    defect is kept on the result. Nodes closer than ``MERGE_TOL`` times the
    spectral width are merged with their weights summed.
    """
    import scipy.linalg  # imported here: it would slow every CLI start

    diag, off = jc.tridiagonal()
    if jc.dim == 1:
        return SpectralMeasure(nodes=(float(diag[0]),), weights=(1.0,))
    try:
        vals, vecs = scipy.linalg.eigh_tridiagonal(diag, off)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise EigensolverFailure(f"tridiagonal eigensolve failed: {exc}") from None
    weights = vecs[0, :] ** 2
    defect = abs(float(weights.sum()) - 1.0)
    if defect > 1e-8:
        logger.warning("weight renormalization defect %.3e", defect)
    weights = weights / weights.sum()

    width = float(vals[-1] - vals[0])
    gap_tol = MERGE_TOL * width
    nodes_out: list[float] = []
    weights_out: list[float] = []
    i = 0
    n = len(vals)
    while i < n:
        j = i
        while j + 1 < n and vals[j + 1] - vals[j] < gap_tol:
            j += 1
        w = float(weights[i : j + 1].sum())
        x = float((vals[i : j + 1] * weights[i : j + 1]).sum() / w)
        nodes_out.append(x)
        weights_out.append(w)
        i = j + 1
    if len(nodes_out) < n:
        logger.debug("merged %d near-degenerate nodes", n - len(nodes_out))
    return SpectralMeasure(
        nodes=tuple(nodes_out),
        weights=tuple(weights_out),
        renormalization_defect=defect,
    )


def orthonormal_values(jc: JacobiCoefficients, xs: np.ndarray) -> np.ndarray:
    """Matrix P with P[l, i] = p_l(xs[i]) for the orthonormal polynomials.

    p_l = Q_l / sqrt(omega_1 ... omega_l); evaluated by the normalized
    recursion beta_{j+1} p_{j+1} = (x - alpha_j) p_j - beta_j p_{j-1} so no
    overflow-prone monic values or explicit products appear. Levels run
    0..dim-1 (one per spectral atom).
    """
    xs = np.asarray(xs, dtype=np.float64)
    betas = jc.betas()
    out = np.empty((jc.dim, xs.size), dtype=np.float64)
    out[0] = 1.0
    if jc.dim == 1:
        return out
    out[1] = (xs - jc.alpha[0]) / betas[0]
    for j in range(1, jc.dim - 1):
        out[j + 1] = ((xs - jc.alpha[j]) * out[j] - betas[j - 1] * out[j - 1]) / betas[j]
    return out
