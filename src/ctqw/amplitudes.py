"""Walk amplitudes from a spectral measure.

The inverse Laplace transform is carried out analytically: the measure is
finite and atomic, so the return amplitude is an exact exponential sum
sum_i A_i exp(-i x_i t) and the stratum amplitudes add the orthonormal
polynomial values at the nodes. The Laplace-domain form exists only for
validation against tabulated s-domain expressions; it is never inverted
numerically.

``AmplitudeSeries.to_csv`` formats its rows at ``%.17g`` in blocks of whole
samples, one ``%`` operation per block, and writes each block to its stream;
the bytes are those of formatting each cell on its own. ``MAX_SERIES_CELLS``
bounds the strata x samples of one series.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .errors import InvalidParams
from .jacobi import JacobiCoefficients
from .stieltjes import SpectralMeasure, orthonormal_values, stieltjes_pole_sum

# bounds strata x samples of one series, and terms x samples of the oracle's
# table, so that a huge grid is refused before either is allocated
MAX_SERIES_CELLS = 2**24

# CSV rows formatted by one % operation (whole samples, at least one); bounds
# the argument tuple and the row text held per block
_CSV_BLOCK = 1 << 14


def as_times(t) -> np.ndarray:
    """``t`` as a float array after checking it: a scalar or a non-empty 1-d
    grid of finite times, in any order and spacing."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim > 1 or t.size == 0:
        raise InvalidParams(f"time must be a scalar or a non-empty 1-d grid, not {t.shape}")
    if not np.isfinite(t).all():
        raise InvalidParams("time must be finite")
    return t


def _exponential_sum(coeffs: np.ndarray, rates: np.ndarray, t) -> np.ndarray:
    """sum_k coeffs[k] exp(-i rates[k] t), shaped like ``t``: a scalar gives
    a 0-d value."""
    t = np.asarray(t, dtype=np.float64)
    return (coeffs[:, None] * np.exp(-1j * np.outer(rates, t))).sum(axis=0).reshape(t.shape)


@dataclass(frozen=True)
class ExponentialSum:
    """Closed-form amplitude sum(coeff * exp(-i * rate * t)) with real terms."""

    terms: tuple[tuple[float, float], ...]  # (coefficient, rate)

    def __call__(self, t):
        coeffs = np.array([c for c, _ in self.terms])
        rates = np.array([r for _, r in self.terms])
        return _exponential_sum(coeffs, rates, t)

    @classmethod
    def build(cls, exponentials=(), cosines=(), constant=0.0) -> "ExponentialSum":
        """Assemble from exp terms (coeff, rate), cosine terms (coeff, freq)
        and a constant; cosines split into conjugate exponential pairs."""
        terms: list[tuple[float, float]] = [(float(c), float(r)) for c, r in exponentials]
        for c, f in cosines:
            terms.append((float(c) / 2.0, float(f)))
            terms.append((float(c) / 2.0, -float(f)))
        if constant:
            terms.append((float(constant), 0.0))
        return cls(terms=tuple(terms))


@dataclass(frozen=True)
class AmplitudeSeries:
    """Per-stratum amplitudes sampled on a time grid."""

    times: np.ndarray                 # shape (T,), in the caller's order
    values: np.ndarray                # complex, shape (levels, T)
    kappa: tuple[int, ...] | None     # shell sizes, when a graph stratification exists
    conservation_defect: np.ndarray   # |sum_l |q_l|^2 - 1| per sample, shape (T,)

    @property
    def levels(self) -> int:
        return self.values.shape[0]

    def to_csv(self, out: TextIO) -> None:
        """Write the header and one row ``t,stratum,re,im,prob`` per
        (sample, stratum) to ``out``, sample-major, floats at ``%.17g``;
        each block goes out as soon as it is formatted."""
        levels = self.levels
        rows = self.values.T.ravel()  # (t_0, 0), (t_0, 1), ..., (t_1, 0), ...
        re, im = rows.real, rows.imag
        prob = re * re + im * im
        l_cells = ["%d," % l for l in range(levels)]
        times = self.times.tolist()
        step = max(1, _CSV_BLOCK // levels)  # whole samples per block
        out.write("t,stratum,re,im,prob\n")
        for s0 in range(0, len(times), step):
            t_cells = ["%.17g," % t for t in times[s0 : s0 + step]]
            a, b = s0 * levels, (s0 + len(t_cells)) * levels
            cells = [None] * (4 * (b - a))
            cells[0::4] = [t + l for t in t_cells for l in l_cells]
            cells[1::4] = re[a:b].tolist()
            cells[2::4] = im[a:b].tolist()
            cells[3::4] = prob[a:b].tolist()
            out.write("%s%.17g,%.17g,%.17g\n" * (b - a) % tuple(cells))

    def as_dict(self) -> dict:
        return {
            "times": self.times.tolist(),
            "kappa": list(self.kappa) if self.kappa is not None else None,
            "values": np.stack([self.values.real, self.values.imag], -1).tolist(),
            "conservation_defect": self.conservation_defect.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict())


def return_amplitude(measure: SpectralMeasure, t):
    """q_0(t) = sum_i A_i exp(-i x_i t)."""
    return _exponential_sum(measure.weights_array(), measure.nodes_array(), t)


def laplace_return_amplitude(measure: SpectralMeasure, s: complex) -> complex:
    """Laplace transform of the return amplitude: i G(i s)."""
    return 1j * stieltjes_pole_sum(measure, 1j * s)


def amplitude_series(
    measure: SpectralMeasure,
    jc: JacobiCoefficients,
    times,
    *,
    kappa: Sequence[int] | None = None,
) -> AmplitudeSeries:
    """All stratum amplitudes q_l(t) = sum_i A_i p_l(x_i) exp(-i x_i t), with
    orthonormal p_l, over a time grid (``as_times``; a scalar is one sample).

    Every sample is evaluated independently (one matrix product per grid),
    so a reordered grid gives its columns reordered. ``kappa`` carries shell
    sizes when the coefficients came from an actual graph stratification.
    """
    times = as_times(times).reshape(-1)
    if jc.dim * times.size > MAX_SERIES_CELLS:
        raise InvalidParams(
            f"series too large ({jc.dim} strata x {times.size} samples"
            f" > {MAX_SERIES_CELLS} cells)"
        )
    nodes = measure.nodes_array()
    # a product of Python floats overflows to inf with no warning
    if not math.isfinite(float(np.abs(nodes).max()) * float(np.abs(times).max())):
        raise InvalidParams("phases overflow: max|node| x max|t| is not finite")
    if kappa is not None:
        kappa = tuple(int(k) for k in kappa)
        if len(kappa) != jc.dim:
            raise InvalidParams(
                f"kappa has {len(kappa)} entries for {jc.dim} strata"
            )

    weighted = orthonormal_values(jc, nodes) * measure.weights_array()[None, :]
    phases = np.exp(-1j * np.outer(nodes, times))
    values = weighted @ phases
    defect = np.abs((np.abs(values) ** 2).sum(axis=0) - 1.0)
    times = times.copy()
    times.setflags(write=False)
    values.setflags(write=False)
    defect.setflags(write=False)
    return AmplitudeSeries(
        times=times, values=values, kappa=kappa, conservation_defect=defect
    )
