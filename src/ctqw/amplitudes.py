"""Walk amplitudes from a spectral measure.

The inverse Laplace transform is carried out analytically: the measure is
finite and atomic, so the return amplitude is an exact exponential sum
sum_i A_i exp(-i x_i t) and the stratum amplitudes add the orthonormal
polynomial values at the nodes. The Laplace-domain form exists only for
validation against tabulated s-domain expressions; it is never inverted
numerically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IndexOutOfRange, InvalidParams
from .jacobi import JacobiCoefficients
from .stieltjes import SpectralMeasure, orthonormal_values, stieltjes_pole_sum


@dataclass(frozen=True)
class ExponentialSum:
    """Closed-form amplitude sum(coeff * exp(-i * rate * t)) with real terms."""

    terms: tuple[tuple[float, float], ...]  # (coefficient, rate)

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        coeffs = np.array([c for c, _ in self.terms])
        rates = np.array([r for _, r in self.terms])
        value = (coeffs[:, None] * np.exp(-1j * np.outer(rates, t))).sum(axis=0)
        return complex(value[()]) if value.ndim == 0 else value

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

    times: np.ndarray                 # ascending, shape (T,)
    values: np.ndarray                # complex, shape (levels, T)
    kappa: tuple[int, ...] | None     # shell sizes, when a graph stratification exists
    conservation_defect: np.ndarray   # |sum_l |q_l|^2 - 1| per sample, shape (T,)

    @property
    def levels(self) -> int:
        return self.values.shape[0]

    def to_csv(self) -> str:
        lines = ["t,stratum,re,im,prob"]
        for j, t in enumerate(self.times):
            for l in range(self.levels):
                v = self.values[l, j]
                prob = v.real * v.real + v.imag * v.imag
                lines.append(
                    f"{t:.17g},{l},{v.real:.17g},{v.imag:.17g},{prob:.17g}"
                )
        return "\n".join(lines) + "\n"

    def as_dict(self) -> dict:
        return {
            "times": [float(t) for t in self.times],
            "kappa": list(self.kappa) if self.kappa is not None else None,
            "values": [
                [[float(v.real), float(v.imag)] for v in row] for row in self.values
            ],
            "conservation_defect": [float(x) for x in self.conservation_defect],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict())


def return_amplitude(measure: SpectralMeasure, t):
    """q_0(t) = sum_i A_i exp(-i x_i t); scalar or array t."""
    t = np.asarray(t, dtype=np.float64)
    value = (
        measure.weights_array()[:, None]
        * np.exp(-1j * np.outer(measure.nodes_array(), t))
    ).sum(axis=0)
    return complex(value[()]) if value.ndim == 0 else value


def laplace_return_amplitude(measure: SpectralMeasure, s: complex) -> complex:
    """Laplace transform of the return amplitude: i G(i s)."""
    return 1j * stieltjes_pole_sum(measure, 1j * s)


def stratum_amplitude(measure: SpectralMeasure, jc: JacobiCoefficients, level: int, t):
    """q_l(t) = sum_i A_i p_l(x_i) exp(-i x_i t) with orthonormal p_l."""
    if not (0 <= level <= jc.depth):
        raise IndexOutOfRange(f"stratum {level} outside [0, {jc.depth}]")
    t = np.asarray(t, dtype=np.float64)
    nodes = measure.nodes_array()
    poly = orthonormal_values(jc, nodes)[level]
    value = (
        (measure.weights_array() * poly)[:, None] * np.exp(-1j * np.outer(nodes, t))
    ).sum(axis=0)
    return complex(value[()]) if value.ndim == 0 else value


def amplitude_series(
    measure: SpectralMeasure,
    jc: JacobiCoefficients,
    times,
    *,
    kappa: Sequence[int] | None = None,
) -> AmplitudeSeries:
    """All stratum amplitudes over an ascending time grid.

    Every sample is evaluated independently (one matrix product per grid),
    so results do not depend on evaluation order. ``kappa`` carries shell
    sizes when the coefficients came from an actual graph stratification.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size < 1:
        raise InvalidParams("time grid must be a non-empty 1-d array")
    if times.size > 1 and not (np.diff(times) > 0).all():
        raise InvalidParams("time grid must be strictly ascending")
    if kappa is not None:
        kappa = tuple(int(k) for k in kappa)
        if len(kappa) != jc.dim:
            raise InvalidParams(
                f"kappa has {len(kappa)} entries for {jc.dim} strata"
            )

    nodes = measure.nodes_array()
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
