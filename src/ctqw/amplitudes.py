"""Walk amplitudes from a spectral measure.

The inverse Laplace transform is carried out analytically: the measure is
finite and atomic, so each stratum amplitude is an exact exponential sum
q_l(t) = sum_i A_i p_l(x_i) exp(-i x_i t) over orthonormal polynomials p_l.
With p_0 = 1, row 0 of ``amplitude_series`` is the return amplitude
sum_i A_i exp(-i x_i t); ``ExponentialSum`` holds a tabulated closed form to
compare with it. The Laplace-domain form exists only for validation against
tabulated s-domain expressions; it is never inverted numerically.

``AmplitudeSeries.to_csv`` formats its rows at ``%.17g`` in blocks of whole
samples, one ``%`` operation per block, and writes each block to its stream;
the bytes are those of formatting each cell on its own. When at most
``_CSV_TABLE_SHARE`` (1/3) of a series' re/im cells are distinct bit
patterns, as past a walk's wavefront, where levels repeat rounding noise,
it renders each distinct value once and gathers that text into the rows;
otherwise it formats the floats in the rows. ``AmplitudeSeries.to_json``
gives the bytes of ``json.dumps(as_dict(kappa))``, but always renders each
distinct float bit pattern of the values once and joins the text one level
at a time. Both take that table from ``_distinct_text``. A series knows
nothing of shells: the shell sizes ``kappa`` that label the JSON rows come
from the walk and are passed to ``as_dict`` / ``to_json``.
``MAX_SERIES_CELLS`` bounds the strata x samples of one series.
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

# to_csv renders a series' re/im cells through the table of distinct values
# when at most this share of them is distinct. Against formatting each cell
# in its row (~1.1 us at %.17g), the table costs np.unique and a gather per
# cell, plus one render per distinct value (~1.1-1.3 us); the gather slows
# as the table outgrows the CPU caches. Measured in-process, the break-even
# share is ~0.5 with 242,315 distinct values (tchebichef2:400,1 x 1001
# samples) but ~0.3 with 1,143,948 (path:1000 x 2001, share 0.29: even
# within the noise), and path:2000 x 1001 (2.2M distinct, share 0.55) took
# 25% longer through the table. Below 1/3 the table was no slower at any
# size measured.
_CSV_TABLE_SHARE = 1 / 3

# distinct values rendered per call; bounds the float list, format string and
# text made at once on top of the table
_RENDER_BLOCK = 1 << 14

# JSON value cells gathered per block (whole levels, at least one); bounds the
# object array of cell text held per block
_JSON_BLOCK = 1 << 14


def as_times(t) -> np.ndarray:
    """``t`` as a float array after checking it: a scalar or a non-empty 1-d
    grid of finite times, in any order and spacing."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim > 1 or t.size == 0:
        raise InvalidParams(f"time must be a scalar or a non-empty 1-d grid, not {t.shape}")
    if not np.isfinite(t).all():
        raise InvalidParams("time must be finite")
    return t


def _render_g17(xs: list[float]) -> list[str]:
    """``xs`` at ``%.17g``, in one ``%`` operation; no such token holds ','."""
    return ("%.17g," * len(xs) % tuple(xs)).split(",")[:-1]


def _render_json(xs: list[float]) -> list[str]:
    """``xs`` as ``json.dumps`` writes them, ``NaN``, ``Infinity`` and
    ``-0.0`` included; no float token holds ', '."""
    return json.dumps(xs)[1:-1].split(", ")


def _distinct_text(cells: np.ndarray, render, max_share: float = 1.0):
    """The re/im parts of the complex ``cells`` rendered once per distinct
    bit pattern, so that -0.0 and NaN payloads stay apart: ``(text,
    inverse)``, with ``text`` an object array and ``text[inverse]`` the text
    of each part, ``inverse`` shaped ``cells.shape + (2,)`` (re, im). None,
    with nothing rendered, when more than ``max_share`` of the parts are
    distinct."""
    bits = np.ascontiguousarray(cells, dtype=np.complex128).view(np.int64).ravel()
    if max_share < 1:  # counted on a plain sort, several times cheaper than np.unique
        ordered = np.sort(bits)
        if 1 + np.count_nonzero(ordered[1:] != ordered[:-1]) > max_share * bits.size:
            return None
    distinct, inverse = np.unique(bits, return_inverse=True)
    floats = distinct.view(np.float64)
    text = np.empty(floats.size, dtype=object)
    for k in range(0, floats.size, _RENDER_BLOCK):
        text[k : k + _RENDER_BLOCK] = render(floats[k : k + _RENDER_BLOCK].tolist())
    return text, inverse.reshape(*cells.shape, 2)  # its shape varies across numpy releases


@dataclass(frozen=True)
class ExponentialSum:
    """Closed-form amplitude sum(coeff * exp(-i * rate * t)) with real terms."""

    terms: tuple[tuple[float, float], ...]  # (coefficient, rate)

    def __call__(self, t):
        """The sum at ``t``, shaped like ``t``: a scalar gives a 0-d value."""
        t = np.asarray(t, dtype=np.float64)
        coeffs = np.array([c for c, _ in self.terms])
        rates = np.array([r for _, r in self.terms])
        return (coeffs[:, None] * np.exp(-1j * np.outer(rates, t))).sum(axis=0).reshape(t.shape)

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
    conservation_defect: np.ndarray   # |sum_l |q_l|^2 - 1| per sample, shape (T,)

    @property
    def levels(self) -> int:
        return self.values.shape[0]

    def to_csv(self, out: TextIO) -> None:
        """Write the header and one row ``t,stratum,re,im,prob`` per
        (sample, stratum) to ``out``, sample-major, floats at ``%.17g``;
        each block goes out as soon as it is formatted. The re/im cells come
        from the table of distinct values when at most ``_CSV_TABLE_SHARE``
        of them are distinct, else straight from the floats; the bytes are
        the same."""
        levels = self.levels
        rows = self.values.T.ravel()  # (t_0, 0), (t_0, 1), ..., (t_1, 0), ...
        re, im = rows.real, rows.imag
        prob = re * re + im * im
        table = _distinct_text(rows, _render_g17, _CSV_TABLE_SHARE)
        row = "%s%.17g,%.17g,%.17g\n" if table is None else "%s%s,%s,%.17g\n"
        l_cells = ["%d," % l for l in range(levels)]
        times = self.times.tolist()
        step = max(1, _CSV_BLOCK // levels)  # whole samples per block
        out.write("t,stratum,re,im,prob\n")
        for s0 in range(0, len(times), step):
            t_cells = ["%.17g," % t for t in times[s0 : s0 + step]]
            a, b = s0 * levels, (s0 + len(t_cells)) * levels
            cells = [None] * (4 * (b - a))
            cells[0::4] = [t + l for t in t_cells for l in l_cells]
            if table is None:
                cells[1::4] = re[a:b].tolist()
                cells[2::4] = im[a:b].tolist()
            else:
                text, inverse = table
                cells[1::4] = text[inverse[a:b, 0]].tolist()
                cells[2::4] = text[inverse[a:b, 1]].tolist()
            cells[3::4] = prob[a:b].tolist()
            out.write(row * (b - a) % tuple(cells))

    def as_dict(self, kappa: Sequence[int] | None = None) -> dict:
        """The JSON fields, with the walk's shell sizes ``kappa``, if any."""
        return {
            "times": self.times.tolist(),
            "kappa": list(kappa) if kappa is not None else None,
            "values": np.stack([self.values.real, self.values.imag], -1).tolist(),
            "conservation_defect": self.conservation_defect.tolist(),
        }

    def to_json(self, kappa: Sequence[int] | None = None) -> str:
        """The bytes of ``json.dumps(self.as_dict(kappa))``, with each distinct
        float bit pattern of ``values`` rendered once; the cells of whole levels
        are gathered in blocks and each level's text is joined on its own."""
        levels, samples = self.values.shape
        text, inverse = _distinct_text(self.values, _render_json)
        inverse = inverse.reshape(levels, 2 * samples)  # re, im interleaved per cell
        step = max(1, _JSON_BLOCK // samples)  # whole levels per block
        cells = np.empty((min(step, levels), 4 * samples + 1), dtype=object)
        # a level is "[[" re ", " im "], [" re ", " im ... "]]"
        cells[:, 0], cells[:, 2::4], cells[:, 4::4], cells[:, -1] = "[[", ", ", "], [", "]]"
        rows = []
        for l0 in range(0, levels, step):
            block = cells[: min(step, levels - l0)]
            block[:, 1::2] = text[inverse[l0 : l0 + step]]
            rows.extend(map("".join, block.tolist()))
        return "".join((
            '{"times": ', json.dumps(self.times.tolist()),
            ', "kappa": ', json.dumps(kappa),
            ', "values": [', ", ".join(rows),
            '], "conservation_defect": ', json.dumps(self.conservation_defect.tolist()), "}",
        ))


def laplace_return_amplitude(measure: SpectralMeasure, s: complex) -> complex:
    """Laplace transform of the return amplitude: i G(i s)."""
    return 1j * stieltjes_pole_sum(measure, 1j * s)


def amplitude_series(measure: SpectralMeasure, jc: JacobiCoefficients, times) -> AmplitudeSeries:
    """All stratum amplitudes q_l(t) = sum_i A_i p_l(x_i) exp(-i x_i t), with
    orthonormal p_l, over a time grid (``as_times``; a scalar is one sample).

    Every sample is evaluated independently (one matrix product per grid),
    so a reordered grid gives its columns reordered.
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

    weighted = orthonormal_values(jc, nodes) * measure.weights_array()[None, :]
    phases = np.exp(-1j * np.outer(nodes, times))
    values = weighted @ phases
    defect = np.abs((np.abs(values) ** 2).sum(axis=0) - 1.0)
    times = times.copy()
    times.setflags(write=False)
    values.setflags(write=False)
    defect.setflags(write=False)
    return AmplitudeSeries(times=times, values=values, conservation_defect=defect)
