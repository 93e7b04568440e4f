"""Orthogonal polynomial recursions, continued-fraction Stieltjes function,
and extraction of the atomic spectral measure (poles and residues).

The measure nodes come from a symmetric tridiagonal eigensolve and the
weights from the squared first eigenvector components, with near-degenerate
nodes merged in one ``np.add.reduceat`` pass; evaluating the monic
polynomial at its own roots is avoided everywhere because monic values
overflow well before depth 30.

The continued fraction runs point by point in CPython's complex arithmetic
below ``_CF_POINTS`` points, and from there on as one recurrence over all
points in float64 arrays. The array route does CPython's own real operations
in CPython's order: ``z - alpha`` is ``(zr - alpha, zi - 0.0)``, ``w / v`` is
Smith's division as CPython's ``_Py_c_quot`` writes it, its branch chosen by
``|vr| >= |vi|``, and every modulus is C ``hypot``, which both ``abs`` and
``np.hypot`` call. The two routes therefore give the same bits at every
point whose value is not NaN (a NaN needs coefficients near the largest
double). The array route costs ~12 us per level however few the points, the
per-point route ~0.15 us per level and point.
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
# points x nodes per block of stieltjes_pole_sum: bounds its (points, nodes) arrays
_POLE_TERMS = 1 << 16
# from this many points on, the continued fraction runs as one array recurrence
_CF_POINTS = 80


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite atomic measure: ascending nodes with positive weights summing to 1."""

    nodes: tuple[float, ...]
    weights: tuple[float, ...]

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


def _refuse(points: np.ndarray, refused: np.ndarray, at_node=None) -> None:
    """Raise for the first refused point, if any: InvalidParams when it is
    not finite, else PoleProximity. The error's ``index`` is its position."""
    for i in np.flatnonzero(refused)[:1]:
        point = complex(points[i])
        if not cmath.isfinite(point):
            exc = InvalidParams(f"z={point} is not finite")
        elif at_node is not None and at_node[i]:
            exc = PoleProximity(f"z={point} is a spectral node")
        else:
            exc = PoleProximity(f"z={point} is too close to a spectral node")
        exc.index = int(i)
        raise exc


def _modulus(v: complex) -> float:
    """|v| by C hypot; inf where ``abs`` raises OverflowError instead."""
    try:
        return abs(v)
    except OverflowError:
        return np.inf


def _cf_point(alpha: list, omega: list, z: complex) -> complex | None:
    """G at one finite point in CPython's complex arithmetic, or None when
    the pole rule refuses the point."""
    v = z - alpha[-1]
    for a, w in zip(alpha[-2::-1], omega[::-1]):
        try:
            if abs(v) < 1e-150:
                v = 1e-150  # intermediate root of a trailing block; value stays finite
        except OverflowError:  # |v| beyond the largest double is not small
            pass
        v = z - a - w / v
    if _modulus(v) < POLE_TOL * (1.0 + _modulus(z)):
        return None
    return 1.0 / v


def _quot(w: float, vr: np.ndarray, vi: np.ndarray):
    """(w + 0j) / (vr + i vi) as ``_Py_c_quot`` computes it, divided through
    by the larger part of v (Smith). With a finite ratio, its ``w + 0.0 *
    ratio`` is w and ``0.0 * ratio - w`` is -w, bit for bit. A v of modulus
    below 1e-150 is first taken as 1e-150, as the per-point route does (w /
    1e-150 and a zero imaginary part); in the final 1 / v that touches only
    points the pole rule refuses, since 1e-150 < POLE_TOL."""
    avr, avi = np.abs(vr), np.abs(vi)
    big = avr >= avi
    # max(|vr|, |vi|) <= |v|: hypot runs only where a point may be clamped
    if np.fmin.reduce(np.maximum(avr, avi)) < 1e-150:
        small = np.hypot(vr, vi) < 1e-150
        vr, vi, big = np.where(small, 1e-150, vr), np.where(small, 0.0, vi), big | small
    p, s = np.where(big, vr, vi), np.where(big, vi, vr)
    ratio = s / p
    denom = p + s * ratio
    wr = w * ratio
    return np.where(big, w, wr + 0.0) / denom, np.where(big, 0.0 - wr, -w) / denom


def stieltjes_continued_fraction(jc: JacobiCoefficients, z):
    """Finite continued fraction 1/(z - alpha_0 - omega_1/(z - alpha_1 - ...)),
    evaluated bottom-up for stability, at a point (a complex result) or at
    each of a 1-d array of points (an array), with the same bits either way.

    Raises, at the first point that fails: InvalidParams when it is not
    finite, PoleProximity when |1/G| < POLE_TOL (1 + |z|). The error's
    ``index`` is that point's position.
    """
    z = np.asarray(z, dtype=np.complex128)
    points = z.reshape(-1)
    alpha = np.asarray(jc.alpha, dtype=np.float64).tolist()
    omega = np.asarray(jc.omega, dtype=np.float64).tolist()
    g = np.empty_like(points)
    if points.size < _CF_POINTS:
        refused = np.zeros(points.size, dtype=bool)
        for i, point in enumerate(points.tolist()):
            value = _cf_point(alpha, omega, point) if cmath.isfinite(point) else None
            if value is None:
                refused[i] = True
                break
            g[i] = value
    else:
        zr, zi = points.real.copy(), points.imag.copy()
        vr, vi = zr - alpha[-1], zi  # zi - 0.0 is zi
        # a huge z overflows moduli and denominators to inf, as in CPython
        with np.errstate(all="ignore"):
            for a, w in zip(alpha[-2::-1], omega[::-1]):
                qr, qi = _quot(w, vr, vi)
                vr, vi = (zr - a) - qr, zi - qi
            refused = ~np.isfinite(points) | (
                np.hypot(vr, vi) < POLE_TOL * (1.0 + np.hypot(zr, zi))
            )
            g.real, g.imag = _quot(1.0, vr, vi)
    _refuse(points, refused)
    return complex(g[0]) if z.ndim == 0 else g


def stieltjes_pole_sum(measure: SpectralMeasure, z):
    """Partial-fraction form: sum of weight/(z - node), at a point (a
    complex result) or at each of a 1-d array of points (an array, one row
    sum per point, bit-identical to a sum at each point), in blocks of
    about ``_POLE_TERMS`` terms.

    Raises, at the first point that fails: InvalidParams when it is not
    finite, PoleProximity when it is a node, and PoleProximity under the
    continued fraction's rule |1/G| < POLE_TOL (1 + |z|). The error's
    ``index`` is that point's position.
    """
    z = np.asarray(z, dtype=np.complex128)
    points, nodes, weights = z.reshape(-1), measure.nodes_array(), measure.weights_array()
    g, at_node = np.empty_like(points), np.empty(points.size, dtype=bool)
    step = max(1, _POLE_TERMS // nodes.size)  # points per block
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # node, inf or huge z
        for k in range(0, points.size, step):
            block = points[k : k + step, None]
            at_node[k : k + step] = (block == nodes).any(axis=1)
            g[k : k + step] = (weights / (block - nodes)).sum(axis=1)
        # the rule multiplied through by |G|, so that a vanishing G needs no division
        near = np.abs(g) * POLE_TOL * (1.0 + np.abs(points)) > 1.0
    _refuse(points, ~np.isfinite(points) | at_node | near, at_node)
    return complex(g[0]) if z.ndim == 0 else g


def spectral_measure(jc: JacobiCoefficients) -> SpectralMeasure:
    """Nodes and weights of the measure attached to the tridiagonal operator.

    Nodes are the eigenvalues; weights are squared first components of the
    normalized eigenvectors. Weights are renormalized to unit mass, and a
    mass defect above 1e-8 is logged as a warning. Nodes closer than
    ``MERGE_TOL`` times the spectral width are merged with their weights
    summed, and a merged node of mass exactly 0.0 is dropped.
    """
    import scipy.linalg  # imported here: it would slow every CLI start

    diag, off = jc.tridiagonal()
    try:
        vals, vecs = scipy.linalg.eigh_tridiagonal(diag, off)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise EigensolverFailure(f"tridiagonal eigensolve failed: {exc}") from None
    weights = vecs[0, :] ** 2
    defect = abs(float(weights.sum()) - 1.0)
    if defect > 1e-8:
        logger.warning("weight renormalization defect %.3e", defect)
    weights = weights / weights.sum()

    # a group of merged nodes starts where the gap below reaches the tolerance
    starts = np.flatnonzero(np.diff(vals, prepend=-np.inf) >= MERGE_TOL * (vals[-1] - vals[0]))
    if starts.size < vals.size:
        logger.debug("merged %d near-degenerate nodes", vals.size - starts.size)
    # each group's sum starts from a 0.0 put in front of it, as np.sum's does:
    # the same rounding as one np.sum per group, and a -0.0 node comes out +0.0
    at = starts + np.arange(starts.size)
    mass, moment = (
        np.add.reduceat(np.insert(v, starts, 0.0), at) for v in (weights, vals * weights)
    )
    # a group whose weights all underflow to 0.0 lies outside the support and
    # adds nothing to G
    mass, moment = mass[mass > 0.0], moment[mass > 0.0]
    return SpectralMeasure(tuple((moment / mass).tolist()), tuple(mass.tolist()))


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
