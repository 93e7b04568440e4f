"""Walk amplitudes from a spectral measure.

The inverse Laplace transform is carried out analytically: the measure is
finite and atomic, so each stratum amplitude is an exact exponential sum
q_l(t) = sum_i A_i p_l(x_i) exp(-i x_i t) over orthonormal polynomials p_l.
With p_0 = 1, row 0 of ``amplitude_series`` is the return amplitude
sum_i A_i exp(-i x_i t); ``ExponentialSum`` holds a tabulated closed form to
compare with it. The Laplace-domain form exists only for validation against
tabulated s-domain expressions; it is never inverted numerically.

Both writers stream a series in blocks of ``_BLOCK`` floats through one row
assembler, ``_join``: NUL-padded 24-byte cells, each followed by its
separator, the NULs dropped. Their text comes from two NumPy kernels that
share a digit stage and a layout stage: Y = |v| 10**(16 - p), p the decimal
exponent, as one double-double product with a power of ten (``_decades``),
and the bytes laid out from Y's chosen digits (``_layout``).
``AmplitudeSeries.to_csv`` formats each block of whole samples in one
``_g17`` call, the bytes of ``'%.17g' % v``: the 17 digits nearest Y.
``AmplitudeSeries.to_json`` writes the bytes of ``json.dumps(as_dict(kappa))``
and a newline in blocks of whole levels, gathered from ``_json_table``: the
``_shortest`` token of each distinct float bit pattern, once, the bytes of
``float.__repr__``: the fewest digits that read back as v. In both kernels
only a few values (|v| outside [1e-300, 1e300], near-ties) go to Python's
own formatter. The blocks are formatted on one worker thread per CPU the
process may run on and taken back in order (``_in_order``): only the
calling thread writes, at most 2 x CPUs blocks are held at a time, and the
bytes do not depend on the CPU count. A series knows nothing of shells:
the shell sizes ``kappa`` that label the JSON rows come from the walk.
``MAX_SERIES_CELLS`` bounds the strata x samples of one series.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import logging
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np

from .errors import InvalidParams
from .jacobi import JacobiCoefficients
from .stieltjes import SpectralMeasure, orthonormal_values, stieltjes_pole_sum

logger = logging.getLogger(__name__)

# bounds strata x samples of one series, and terms x samples of the oracle's
# table, so that a huge grid is refused before either is allocated
MAX_SERIES_CELLS = 2**24

# floats per block: re, im, prob of CSV rows of whole samples or re, im of
# JSON levels (at least one sample or level), and distinct floats per
# _shortest call; bounds the text and the arrays held per block. A larger
# block outgrows the CPU caches: at 3 x 16k floats the CSV ran ~1.5x slower
_BLOCK = 1 << 14

# Dekker's splitter: c = _SPLIT * v, c - (c - v) is v's upper 26 bits
_SPLIT = 2.0**27 + 1

# _scaled is within 2**-45 of exact: a fraction closer to 1/2 may be a tie,
# and a candidate closer to a bound of v's rounding interval may be on it
_TIE_MARGIN = 2.0**-40

# a value _g17 or _shortest leaves to Python's own dtoa
_g17_fallback = b"%.17g".__mod__
_repr_fallback = b"%r".__mod__


def as_times(t) -> np.ndarray:
    """``t`` as a float array after checking it: a scalar or a non-empty 1-d
    grid of finite times, in any order and spacing."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim > 1 or t.size == 0:
        raise InvalidParams(f"time must be a scalar or a non-empty 1-d grid, not {t.shape}")
    if not np.isfinite(t).all():
        raise InvalidParams("time must be finite")
    return t


def _cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask, on
    platforms that have one, else every CPU."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _in_order(fn: Callable, starts: range) -> Iterator:
    """``fn(s)`` for each s of ``starts``, yielded in order, computed on one
    worker thread per CPU (``_cpus``) under the caller's NumPy error state.
    At most 2 x CPUs results are submitted and not yet taken. The writers'
    kernels are NumPy code, which releases the GIL inside its array
    operations; ``fn`` calls only private helpers, so a tracer wrapping the
    package's public functions sees none of it. Closing the generator
    cancels the tasks not started and waits for the running ones."""
    from concurrent.futures import ThreadPoolExecutor  # not loaded by a CLI start

    errors = np.geterr()  # NumPy's error state is per thread

    def task(s):
        with np.errstate(**errors):
            return fn(s)

    cpus = _cpus()
    pool, pending = ThreadPoolExecutor(cpus), collections.deque()
    try:
        for s in starts:
            pending.append(pool.submit(task, s))
            if len(pending) == 2 * cpus:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _join(cells: np.ndarray, ends: np.ndarray) -> str:
    """The text of NUL-padded 24-byte ``cells`` (..., k, 24), uint8, each
    followed by its NUL-padded end ``ends[i]`` (k, w), with every NUL
    dropped: the row assembler of both writers."""
    rows = np.empty(cells.shape[:-1] + (24 + ends.shape[-1],), dtype=np.uint8)
    rows[..., :24], rows[..., 24:] = cells, ends
    return rows[rows != 0].tobytes().decode("ascii")


def _json_table(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float64s ``x`` as ``json.dumps`` writes them, once per distinct
    bit pattern: ``(table, inverse)``, ``table`` the NUL-padded 24-byte
    tokens, uint8, from one ``_shortest`` call per ``_BLOCK`` of distinct
    values (``_in_order``), and ``table[inverse]`` the tokens of ``x``, in
    order."""
    distinct, inverse = np.unique(x.view(np.int64), return_inverse=True)
    floats = distinct.view(np.float64)
    table = np.empty((floats.size, 24), dtype=np.uint8)
    starts = range(0, floats.size, _BLOCK)
    # the tokens first: zip then runs the generator to its end
    for tokens, k in zip(_in_order(lambda k: _shortest(floats[k : k + _BLOCK]), starts), starts):
        table[k : k + _BLOCK] = tokens
    return table, inverse.reshape(-1)  # inverse's shape varies across numpy releases


@functools.cache
def _pow10(k: int) -> tuple[float, ...]:
    """10**k = (fh + fl) 2**g to 104 bits, 1 <= fh < 2, from exact integers:
    ``(fh, fh_hi, fh_lo, fl, g)``, with fh = fh_hi + fh_lo split by Dekker."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    g = num.bit_length() - den.bit_length()
    g -= (num << max(0, -g)) < (den << max(0, g))
    q = (num << (104 - g)) // den if g <= 104 else num >> (g - 104)  # floor(10**k 2**(104-g))
    fh = float(q >> 52) / 2**52
    c = _SPLIT * fh
    return fh, c - (c - fh), fh - (c - (c - fh)), float(q & (2**52 - 1)) / 2**104, float(g)


@functools.cache
def _text_tables() -> tuple[np.ndarray, ...]:
    """``(groups, zeros, low, prefix)``: 0000..9999 as '<u4' text and their
    trailing zeros; ``low[k, c]``, word k of the 24-byte mask of the first c
    bytes; the text before the digits, by 6 * sign + zeros: '', ..., '-0.000'."""
    text = [b"%04d" % n for n in range(10000)]
    groups = np.frombuffer(b"".join(text), dtype="<u4").astype(np.uint64)
    zeros = np.array([4 - len(t.rstrip(b"0")) for t in text])
    low = np.frombuffer(b"".join(b"\xff" * c + bytes(24 - c) for c in range(25)), dtype="<u8")
    prefix = [b"-" * s + (b"0." + b"0" * (z - 2) if z else b"") for s in (0, 1) for z in range(6)]
    prefix = np.array([int.from_bytes(t, "little") for t in prefix], dtype=np.uint64)
    return groups, zeros, low.reshape(25, 3).T.copy(), prefix


def _scaled(m: np.ndarray, e: np.ndarray, k: np.ndarray):
    """m 2**e 10**k, m in [1/2, 1), as a double-double ``(hi, lo)``: Dekker's
    exact product of m with 10**k's leading part, plus m times its trailing
    part. Exact for k in [0, 22]; else within 2**-45 while below 2**57."""
    k0 = int(k.min())
    table = np.zeros((5, int(k.max()) - k0 + 1))
    for j in np.flatnonzero(np.bincount(k - k0)):
        table[:, j] = _pow10(k0 + int(j))
    fh, fh_hi, fh_lo, fl, g = (np.take(row, k - k0) for row in table)
    m_hi = _SPLIT * m - (_SPLIT * m - m)
    m_lo = m - m_hi
    ph = m * fh
    pl = (m_hi * fh_hi - ph) + m_hi * fh_lo + m_lo * fh_hi + m_lo * fh_lo + m * fl
    hi = ph + pl
    scale = e + g.astype(np.int32)
    return np.ldexp(hi, scale), np.ldexp(pl - (hi - ph), scale)


def _decades(x: np.ndarray):
    """The digit stage of both kernels, for the flat float64 ``x``: ``(p,
    hi, lo, m, fast)``. For each v, p = floor(log10 |v|) and Y = |v|
    10**(16 - p), in [1e16, 1e17], is the double-double ``hi + lo``
    (``_scaled``), whose high part is an even integer; m is frexp's
    mantissa of |v|. Only values with ``fast``, 1e-300 <= |v| <= 1e300,
    are scaled; the others get the Y of 1.0."""
    a = np.abs(x)
    fast = (a >= 1e-300) & (a <= 1e300)
    a = np.where(fast, a, 1.0)
    m, e = np.frexp(a)
    p = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(m, e, 16 - p)
    # where log10 missed the decade, Y is outside [1e16, 1e17): move p by one
    step = ((hi > 1e17) | (hi == 1e17) & (lo >= 0)).astype(np.int64)
    step -= (hi < 1e16) | (hi == 1e16) & (lo < 0)
    if (moved := np.flatnonzero(step)).size:
        p[moved] += step[moved]
        hi[moved], lo[moved] = _scaled(m[moved], e[moved], 16 - p[moved])
    return p, hi, lo, m, fast


def _layout(x: np.ndarray, d: np.ndarray, p: np.ndarray, exact: np.ndarray, shortest: bool):
    """The layout stage of both kernels: the text of each v of the flat
    float64 ``x`` from its digits d, an integer in [1e16, 1e17], and its
    decimal exponent p, NUL-padded to 24 bytes, shaped ``x.shape + (24,)``,
    uint8. Without ``shortest`` the layout is C's ``%.17g``: fixed point for
    -4 <= p < 17, else d.ddde+XX, with no trailing zeros or bare point; with
    it, Python's ``repr``: fixed point for -4 <= p < 16 with '.0' after an
    integral value. Zero is laid out as any value is; inf and nan have fixed
    text (``nan`` or ``NaN`` for any sign or payload, with ``shortest`` JSON's
    ``Infinity``); any other value not marked ``exact`` goes to
    ``_g17_fallback``, or to ``_repr_fallback`` with ``shortest``."""
    groups, group_zeros, low, prefix = _text_tables()
    zero = x == 0
    slow = ~(exact | zero) | (d < 10**16) | (d > 10**17)
    p = p + (carry := d == 10**17)  # 9.99...95 rounds up into the next decade
    d = np.where(carry, 10**16, np.where(zero, 0, d))
    digits = [d // 10**16] + [d // 10**j - d // 10 ** (j + 4) * 10**4 for j in (12, 8, 4, 0)]
    # less the zeros that end the 16 digits after the first, a group at a time
    nsig = 17 - functools.reduce(lambda n, g: np.take(group_zeros, g) + (g == 0) * n, digits[1:], 0)
    sign, fixed = np.signbit(x), (p >= -4) & (p <= 16 - shortest)
    zeros = np.where(fixed & (p < 0), 1 - p, 0)  # '0.' and -p - 1 zeros before the digits
    # digits written: in fixed point, up to the point, and one zero after it for repr
    shown = np.where(fixed, np.maximum(nsig, p + 1 + shortest), nsig)
    point = np.where(fixed, p + 1, 1)  # digits before the point
    point[(zeros > 0) | (shown <= point)] = 24  # no point
    # 'e', the exponent's sign and its 2 or 3 digits, written after the digits
    exponent = np.take(groups, np.abs(p)) >> np.where(np.abs(p) < 100, 16, 8).astype(np.uint64)
    suffix = np.where(fixed, 0, np.where(p < 0, 0x2D65, 0x2B65).astype(np.uint64) | exponent << 16)
    # the 17 digits at bytes 0..16, then shifted as 192-bit numbers, a word at a time
    g = [np.take(groups, g) for g in digits]
    s = [g[0] >> 24 | g[1] << 8 | g[2] << 40, g[2] >> 24 | g[3] << 8 | g[4] << 40, g[4] >> 24]
    bits, point_bits, shift = ((8 * v).view(np.uint64) for v in (shown, point, sign + zeros))
    text = np.empty((x.size, 3), dtype="<u8")
    spill = before = np.uint64(0)
    for k, at in enumerate(np.array([0, 64, 128], dtype=np.uint64)):
        word = s[k] & np.take(low[k], shown) | suffix << (bits - at) | suffix >> (at - bits)
        keep = np.take(low[k], point)
        after = word & ~keep  # the digits after the point move up one byte
        word = word & keep | after << 8 | spill >> 56 | np.uint64(0x2E) << (point_bits - at)
        text[:, k] = word << shift | before >> (64 - shift)
        spill, before = after, word
    text[:, 0] |= np.take(prefix, 6 * sign + zeros)
    if shortest:
        fallback, nan, inf = _repr_fallback, b"NaN", b"Infinity"
    else:
        fallback, nan, inf = _g17_fallback, b"nan", b"inf"
    for i in np.flatnonzero(slow):
        v = float(x[i])
        t = nan if v != v else b"-" * (v < 0) + inf if math.isinf(v) else fallback(v)
        text[i] = np.frombuffer(t.ljust(24, b"\0"), dtype="<u8")
    return text.view(np.uint8).reshape(x.shape + (24,))


def _g17(x: np.ndarray) -> np.ndarray:
    """The bytes of ``'%.17g' % v`` for each float64 v of ``x``, NUL-padded to
    24: shaped ``x.shape + (24,)``, uint8. The 17 digits D round Y = |v|
    10**(16 - p) (``_decades``) half to even: D = hi + rint(lo). Ties within
    ``_TIE_MARGIN`` where 10**(16 - p) is inexact go to ``_g17_fallback``,
    as ``_layout`` sends |v| outside [1e-300, 1e300]."""
    shape = np.shape(x)
    x = np.ravel(np.asarray(x, dtype=np.float64))
    p, hi, lo, _, fast = _decades(x)
    r = np.rint(lo)
    tie = ((p < -6) | (p > 16)) & (np.abs(np.abs(lo - r) - 0.5) < _TIE_MARGIN)
    d = hi.astype(np.int64) + r.astype(np.int64)
    return _layout(x, d, p, fast & ~tie, False).reshape(shape + (24,))


def _shortest(x: np.ndarray) -> np.ndarray:
    """The bytes of ``float.__repr__(v)``, as ``json.dumps`` writes them
    (``NaN``, ``Infinity``, ``-Infinity``), for each v of the 1-d float64
    ``x``, NUL-padded to 24: shaped ``x.shape + (24,)``, uint8. The digits
    are the shortest that read back as v (Steele & White; Gay 1990): of the
    multiples of 10**j within half the gap to v's neighbours of Y = |v|
    10**(16 - p) (``_decades``), those of the largest j, and of these the
    one nearest Y. A value whose choice the double-double's error
    (``_TIE_MARGIN``) could change goes to ``_repr_fallback``, as ``_layout``
    sends |v| outside [1e-300, 1e300]."""
    p, hi, lo, m, fast = _decades(x)
    r = np.rint(lo)
    y, f = hi.astype(np.int64) + r.astype(np.int64), lo - r  # Y = y + f, |f| <= 1/2
    # half the gap to v's neighbours in units of the 17th digit; below a
    # power of two (m = 1/2) the gap is half as wide
    above_gap = hi / (m * 2.0**54)
    below_gap = np.where(m == 0.5, above_gap / 2, above_gap)
    # each bound moved out (row 0) and in (row 1) by the double-double's error
    slack = np.array([[_TIE_MARGIN], [-_TIE_MARGIN]])
    d, exact = y.copy(), fast.copy()
    live = np.flatnonzero(fast)  # the values with a candidate at 10**(j - 1)
    for unit in 10 ** np.arange(1, 17):
        rest = y[live] % unit
        below = rest + f[live]  # Y less y's multiple of 10**j at or below it
        above = (unit - rest) - f[live]  # the next multiple less Y
        down, up = below <= below_gap[live] + slack, above <= above_gap[live] + slack
        tie = down[0] & up[0] & (np.abs(above - np.abs(below)) < _TIE_MARGIN)
        up &= ~down | (above < np.abs(below))  # the nearer, when both are in
        keep = down | up
        # a choice that the error could change goes to Python
        exact[live[tie | (keep[0] != keep[1]) | (up[0] != up[1])]] = False
        keep, up = keep[0], up[0]
        live = live[keep]
        if not live.size:
            break
        d[live] = y[live] - rest[keep] + unit * up[keep]
    return _layout(x, d, p, exact, True)


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
        (sample, stratum) to ``out``, sample-major, every cell as
        ``'%.17g' % v`` writes it (``_g17``); each block of whole samples is
        formatted in one ``_g17`` call on a worker thread (``_in_order``),
        and the blocks go out in order as soon as they are, so at most 2 x
        CPUs blocks are held."""
        step = max(1, _BLOCK // (3 * self.levels))  # whole samples per block
        strata = np.arange(self.levels, dtype=np.float64)
        ends = np.frombuffer(b",,,,\n", dtype=np.uint8).reshape(5, 1)

        def block(s0: int) -> str:
            t = self.times[s0 : s0 + step]
            values = self.values[:, s0 : s0 + step].T  # (samples, levels)
            re, im = values.real, values.imag
            parts = np.stack((re, im, re * re + im * im), -1)  # (samples, levels, 3)
            # each time and stratum is formatted once per block, then copied to its rows
            text = _g17(np.concatenate((t, strata, parts.ravel())))
            cells = np.empty(values.shape + (5, 24), dtype=np.uint8)
            cells[:, :, 0] = text[: t.size, None]
            cells[:, :, 1] = text[t.size : t.size + strata.size]
            cells[:, :, 2:] = text[t.size + strata.size :].reshape(parts.shape + (24,))
            return _join(cells, ends)

        starts = range(0, self.times.size, step)
        logger.debug("to_csv: %d blocks on %d CPUs", len(starts), min(len(starts), _cpus()))
        out.write("t,stratum,re,im,prob\n")
        with contextlib.closing(_in_order(block, starts)) as texts:
            for text in texts:
                out.write(text)

    def as_dict(self, kappa: Sequence[int] | None = None) -> dict:
        """The JSON fields, with the walk's shell sizes ``kappa``, if any."""
        return {
            "times": self.times.tolist(),
            "kappa": list(kappa) if kappa is not None else None,
            "values": np.stack([self.values.real, self.values.imag], -1).tolist(),
            "conservation_defect": self.conservation_defect.tolist(),
        }

    def to_json(self, out: TextIO, kappa: Sequence[int] | None = None) -> None:
        """Write the bytes of ``json.dumps(self.as_dict(kappa))`` and a newline
        to ``out``; every float is gathered from one ``_json_table``, each
        block of whole levels of ``values`` is joined on a worker thread
        (``_in_order``), and the blocks go out in order as soon as they are,
        so at most 2 x CPUs blocks are held."""
        levels, samples = self.values.shape
        parts = np.ascontiguousarray(self.values, dtype=np.complex128).view(np.float64)
        table, inverse = _json_table(
            np.concatenate((self.times, self.conservation_defect, parts.ravel()))
        )
        comma = np.frombuffer(b", ", dtype=np.uint8).reshape(1, 2)
        times, defect = (_join(table[k], comma)[:-2] for k in np.split(inverse[: 2 * samples], 2))
        inverse = inverse[2 * samples :].reshape(levels, 2 * samples)  # re, im per sample
        # after the opening "[[[", a level is re ", " im "], [" ... im "]], [["
        at = np.tile([0, 1], samples)
        at[-1] = 2
        ends = np.array([b", ", b"], [", b"]], [["]).view(np.uint8).reshape(3, 6)[at]
        step = max(1, _BLOCK // (2 * samples))  # whole levels per block

        def block(l0: int) -> str:
            text = _join(table[inverse[l0 : l0 + step]], ends)
            # the last level closes with "]]", not "]], [["
            return text if l0 + step < levels else text.removesuffix(", [[")

        starts = range(0, levels, step)
        logger.debug("to_json: %d blocks on %d CPUs", len(starts), min(len(starts), _cpus()))
        out.write(f'{{"times": [{times}], "kappa": {json.dumps(kappa)}, "values": [[[')
        with contextlib.closing(_in_order(block, starts)) as texts:
            for text in texts:
                out.write(text)
        out.write(f'], "conservation_defect": [{defect}]}}\n')


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
