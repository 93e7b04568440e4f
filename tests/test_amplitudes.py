import io
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from ctqw import make_entry, stratify
from ctqw import amplitudes
from ctqw.amplitudes import (
    _BLOCK,
    _g17,
    _shortest,
    MAX_SERIES_CELLS,
    AmplitudeSeries,
    ExponentialSum,
    amplitude_series,
    laplace_return_amplitude,
)
from ctqw.errors import InvalidParams, PoleProximity
from ctqw.jacobi import JacobiCoefficients
from ctqw.oracle import oracle_amplitudes
from ctqw.stieltjes import SpectralMeasure, spectral_measure
from ctqw.verify import pipeline_for_entry
from test_stieltjes import property_jcs

PETERSEN_JC = JacobiCoefficients(alpha=(0.0, 0.0, 2.0), omega=(3.0, 2.0))


def petersen_measure():
    return spectral_measure(PETERSEN_JC)


def series_row(measure, jc, level, t):
    """Row ``level`` of the series, shaped like ``t``."""
    t = np.asarray(t, dtype=np.float64)
    return amplitude_series(measure, jc, t).values[level].reshape(t.shape)


def return_amplitude(measure, t):
    """Reference q_0(t) = sum_i A_i exp(-i x_i t), straight from the measure
    with no polynomial values, shaped like ``t``."""
    t = np.asarray(t, dtype=np.float64)
    phases = np.exp(-1j * np.outer(measure.nodes_array(), t))
    return (measure.weights_array()[:, None] * phases).sum(axis=0).reshape(t.shape)


def petersen_q0(t):
    return 0.1 * (5 * np.exp(-1j * t) + 4 * np.exp(2j * t) + np.exp(-3j * t))


def petersen_q1(t):
    return (0.5 * np.exp(-1j * t) - 0.8 * np.exp(2j * t) + 0.3 * np.exp(-3j * t)) / np.sqrt(3)


def petersen_q2(t):
    # tabulated expression carries 2/5 on the last term; the coefficient
    # consistent with q2(0) = 0, the derivative identity and the dense
    # propagator is 3/5
    return (-np.exp(-1j * t) + 0.4 * np.exp(2j * t) + 0.6 * np.exp(-3j * t)) / np.sqrt(6)


class TestReturnAmplitude:
    def test_petersen_closed_form(self):
        t = np.linspace(0.0, 12.0, 97)
        got = series_row(petersen_measure(), PETERSEN_JC, 0, t)
        assert np.abs(got - petersen_q0(t)).max() < 1e-12

    def test_normalization_at_zero(self):
        for spec, params in [("petersen", ()), ("complete", (9,)), ("cycle", (11,))]:
            jc = make_entry(spec, params).jacobi_coefficients()
            m = spectral_measure(jc)
            assert series_row(m, jc, 0, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_k3_at_pi(self):
        jc = make_entry("complete", (3,)).jacobi_coefficients()
        m = spectral_measure(jc)
        assert series_row(m, jc, 0, np.pi) == pytest.approx(-1.0 / 3.0, abs=1e-13)

    def test_time_reversal(self, rng):
        # every level of every property matrix, Petersen's among them
        t = rng.uniform(0, 20, size=10)
        for jc in property_jcs():
            m = spectral_measure(jc)
            backward = amplitude_series(m, jc, -t).values
            forward = amplitude_series(m, jc, t).values
            assert np.abs(backward - np.conj(forward)).max() < 1e-14

    def test_scalar_time_gives_scalar(self):
        m = petersen_measure()
        form = ExponentialSum.build(exponentials=[(0.5, 1.0)], cosines=[(0.5, 2.0)])
        for amplitude in (lambda t: series_row(m, PETERSEN_JC, 0, t), form):
            value = amplitude(1.0)
            assert np.ndim(value) == 0
            # the same operations in the same order as a one-sample grid
            assert value == amplitude(np.array([1.0]))[0]


class TestLaplaceDomain:
    @pytest.mark.parametrize("s", [1.0, 2.0 + 1.0j])
    @pytest.mark.parametrize("n", [3, 5, 20])
    def test_complete_rational_form(self, n, s):
        m = spectral_measure(make_entry("complete", (n,)).jacobi_coefficients())
        want = (s + 1j * (n - 2)) / (s * s + 1j * s * (n - 2) + n - 1)
        assert laplace_return_amplitude(m, s) == pytest.approx(want, abs=1e-13)

    def test_initial_value_behavior(self):
        m = petersen_measure()
        s = 1e8
        assert abs(s * laplace_return_amplitude(m, s) - 1.0) < 1e-7

    def test_petersen_direct_sum(self):
        m = petersen_measure()
        s = 1.0
        want = 1j * sum(
            w / (1j * s - x) for x, w in zip(m.nodes, m.weights)
        )
        assert laplace_return_amplitude(m, s) == pytest.approx(want, abs=1e-14)

    def test_pole_proximity(self):
        m = petersen_measure()
        with pytest.raises(PoleProximity):
            laplace_return_amplitude(m, -1j * m.nodes[0])


class TestStratumAmplitude:
    def test_petersen_q1_q2(self):
        m = petersen_measure()
        t = np.linspace(0.0, 10.0, 101)
        assert np.abs(series_row(m, PETERSEN_JC, 1, t) - petersen_q1(t)).max() < 1e-12
        assert np.abs(series_row(m, PETERSEN_JC, 2, t) - petersen_q2(t)).max() < 1e-12

    def test_level_zero_reduces_to_return_amplitude(self):
        m = petersen_measure()
        t = np.linspace(0, 5, 21)
        assert np.abs(
            series_row(m, PETERSEN_JC, 0, t) - return_amplitude(m, t)
        ).max() < 1e-14

    def test_higher_levels_vanish_at_zero(self):
        for spec, params in [("petersen", ()), ("cycle", (8,)), ("hamming", (2, 3))]:
            jc = make_entry(spec, params).jacobi_coefficients()
            m = spectral_measure(jc)
            for level in range(1, jc.dim):
                assert series_row(m, jc, level, 0.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 6, 30])
    def test_complete_q1(self, n):
        jc = make_entry("complete", (n,)).jacobi_coefficients()
        m = spectral_measure(jc)
        t = np.linspace(0, 8, 33)
        want = np.sqrt(n - 1) / n * (np.exp(-1j * (n - 1) * t) - np.exp(1j * t))
        assert np.abs(series_row(m, jc, 1, t) - want).max() < 1e-11

    def test_derivative_operator_identity(self, rng):
        # q_1 = (i / beta_1) dq_0/dt, differentiated term by term
        for spec, params in [("petersen", ()), ("complete", (7,)), ("appendix", ("icosahedron",))]:
            jc = make_entry(spec, params).jacobi_coefficients()
            m = spectral_measure(jc)
            x = m.nodes_array()
            w = m.weights_array()
            beta1 = np.sqrt(jc.omega[0])
            for t in rng.uniform(0, 10, size=7):
                derivative = (w * (-1j * x) * np.exp(-1j * x * t)).sum()
                alt = 1j / beta1 * derivative
                assert series_row(m, jc, 1, t) == pytest.approx(alt, abs=1e-12)

    def test_unitarity_bound(self, rng):
        for spec, params in [("petersen", ()), ("glued_trees", (3,)), ("cycle", (12,))]:
            jc = make_entry(spec, params).jacobi_coefficients()
            m = spectral_measure(jc)
            for t in rng.uniform(0, 50, size=20):
                for level in range(jc.dim):
                    assert abs(series_row(m, jc, level, t)) <= 1.0 + 1e-12


class TestVertexAmplitude:
    def test_matches_oracle_per_vertex(self, petersen, petersen_shell_of):
        # every vertex of shell l carries q_l / sqrt(kappa_l)
        m = petersen_measure()
        t = 0.9
        pvec = oracle_amplitudes(petersen, 0, t)
        for level in range(3):
            q = series_row(m, PETERSEN_JC, level, t)
            expected = q / np.sqrt(np.bincount(petersen_shell_of)[level])
            for v in np.flatnonzero(petersen_shell_of == level):
                assert pvec[v] == pytest.approx(expected, abs=1e-12)


class TestAmplitudeSeries:
    def test_petersen_table(self):
        m = petersen_measure()
        times = np.array([0.0, 0.5, 1.0])
        series = amplitude_series(m, PETERSEN_JC, times)
        refs = [petersen_q0, petersen_q1, petersen_q2]
        for level, ref in enumerate(refs):
            assert np.abs(series.values[level] - ref(times)).max() < 1e-13
        assert series.as_dict((1, 3, 6))["kappa"] == [1, 3, 6]
        assert series.conservation_defect.max() < 1e-12

    def test_initial_sample_is_origin_indicator(self):
        jc = make_entry("glued_trees", (3,)).jacobi_coefficients()
        series = amplitude_series(spectral_measure(jc), jc, np.linspace(0, 4, 9))
        assert series.values[0, 0] == pytest.approx(1.0, abs=1e-13)
        assert np.abs(series.values[1:, 0]).max() < 1e-12

    def test_single_atom_constant_modulus(self):
        m = SpectralMeasure(nodes=(0.7,), weights=(1.0,))
        jc = JacobiCoefficients(alpha=(0.7,), omega=())
        series = amplitude_series(m, jc, np.linspace(0, 9, 19))
        assert np.allclose(np.abs(series.values[0]), 1.0, atol=1e-14)

    def test_c8_matches_oracle(self):
        entry = make_entry("cycle", (8,))
        pipe = pipeline_for_entry(entry)
        times = np.linspace(0.0, 10.0, 100)
        series = pipe.series(times)
        pvec = oracle_amplitudes(pipe.graph, 0, times)
        # every vertex of shell l carries q_l / sqrt(shell size)
        shell_of = stratify(pipe.graph, 0)
        want = series.values[shell_of] / np.sqrt(np.asarray(pipe.kappa))[shell_of, None]
        assert np.abs(pvec - want).max() < 1e-8

    def test_descending_grid_reorders_columns(self):
        m = petersen_measure()
        grid = np.array([9.5, 4.0, 3.75, 0.0])  # descending and uneven
        series = amplitude_series(m, PETERSEN_JC, grid)
        ascending = amplitude_series(m, PETERSEN_JC, grid[::-1])
        assert np.array_equal(series.times, grid)
        assert np.array_equal(series.values, ascending.values[:, ::-1])
        assert np.array_equal(series.conservation_defect, ascending.conservation_defect[::-1])

    def test_conservation_randomized(self, rng):
        specs = [
            ("petersen", ()),
            ("complete", (11,)),
            ("cycle", (10,)),
            ("johnson", (8, 2)),
            ("hamming", (3, 3)),
            ("path", (13,)),
            ("tchebichef2", (9, 1.5)),
            ("appendix", ("wells",)),
        ]
        for spec, params in specs:
            jc = make_entry(spec, params).jacobi_coefficients()
            m = spectral_measure(jc)
            times = np.sort(rng.uniform(0, 25, size=40))
            series = amplitude_series(m, jc, times)
            assert series.conservation_defect.max() < 1e-10


def reference_csv(series):
    """One f-string per (sample, stratum) row: the formatter to_csv replaced."""
    lines = ["t,stratum,re,im,prob"]
    for j, t in enumerate(series.times):
        for l in range(series.levels):
            v = series.values[l, j]
            prob = v.real * v.real + v.imag * v.imag
            lines.append(f"{t:.17g},{l},{v.real:.17g},{v.imag:.17g},{prob:.17g}")
    return "\n".join(lines) + "\n"


def reference_as_dict(series, kappa):
    """Per-element float() lists: the builder as_dict replaced."""
    return {
        "times": [float(t) for t in series.times],
        "kappa": list(kappa) if kappa is not None else None,
        "values": [
            [[float(v.real), float(v.imag)] for v in row] for row in series.values
        ],
        "conservation_defect": [float(x) for x in series.conservation_defect],
    }


def assert_same_text(got, want):
    # a plain bool keeps pytest from diffing megabytes of text on failure
    if got != want:
        k = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), None)
        k = min(len(got), len(want)) if k is None else k
        raise AssertionError(
            f"first difference at char {k}: "
            f"{got[max(0, k - 40) : k + 40]!r} != {want[max(0, k - 40) : k + 40]!r}"
        )


# zeros, NaN, infinities, a subnormal, huge and plain values, and the two
# longest float texts: 24 bytes both in json.dumps and in '%.17g'
SPECIAL_FLOATS = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -1e300, 0.1, 1.0,
                  -2.2250738585072014e-308, -1.7976931348623157e308]

# few values, several of them alike to json: both zeros, and quiet NaNs with
# different payloads and signs
POOL_FLOATS = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, 5e-324, 1e300],
    np.array(
        [0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FFFFFFFFFFFFFFF],
        dtype=np.uint64,
    ).view(np.float64),
])


def hand_built_series(rng, levels, samples, special=False):
    """Random cells spread over 300 decades; ``special`` True plants
    SPECIAL_FLOATS, "pool" draws every cell from POOL_FLOATS, "single"
    gives every cell the one value 5e-324, and "under" / "over" draw the
    re/im parts from a third of them / one more, so that the JSON table
    holds each repeated value once and gathers it many times."""
    times = np.sort(rng.uniform(0.0, 50.0, size=samples))
    scale = 10.0 ** rng.integers(-150, 150, size=(2, levels, samples))
    parts = rng.standard_normal((2, levels, samples)) * scale
    defect = rng.uniform(0.0, 1e-12, size=samples)
    if special == "pool":
        parts = rng.choice(POOL_FLOATS, size=parts.shape)
    elif special == "single":
        parts = np.full(parts.shape, 5e-324)
    elif special in ("under", "over"):
        k = parts.size // 3 + (special == "over")
        distinct = parts.ravel()[:k]
        parts = rng.permutation(np.concatenate([distinct, rng.choice(distinct, parts.size - k)]))
        parts = parts.reshape(2, levels, samples)
    elif special:
        times[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[:samples]
        flat = parts.reshape(2, -1)
        for k, x in enumerate(SPECIAL_FLOATS):
            flat[0, k] = x
            flat[1, -1 - k] = x
        defect[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[:samples]
    values = np.empty((levels, samples), dtype=np.complex128)
    values.real, values.imag = parts  # re + 1j * im would turn an infinite im into a nan re
    return AmplitudeSeries(times=times, values=values, conservation_defect=defect)


def hand_built_kappa(series):
    """Shell sizes 1..levels for a series of several levels, else None, so
    that the JSON tests write both forms of ``kappa``."""
    return tuple(range(1, series.levels + 1)) if series.levels > 1 else None


class TestSerializers:
    @pytest.mark.parametrize(
        "levels, samples, special",
        [
            # a CSV block is _BLOCK // 3 rows (re, im and prob per row) of
            # whole samples, a JSON block _BLOCK // 2 pairs of whole levels
            (4, _BLOCK // 12, False),             # exactly one block of rows
            (1, _BLOCK // 3 + 1, False),          # one row into a second block
            (4, _BLOCK // 4, False),              # three blocks and one sample
            (1, _BLOCK + 1, False),               # three blocks and two rows
            (3, _BLOCK - 1, False),               # nine blocks and three samples
            (_BLOCK + 1, 2, False),               # more strata than floats per block
            (1, 1, False),                        # one level, one sample
            (5, 1, False),
            (1, 40, False),
            (3, 20, True),                        # -0, nan, +-inf, subnormal, huge, longest
            (6, 30, "pool"),                      # mostly duplicates
            (1, 50, "pool"),
            (4, 10, "single"),                    # one distinct value
            (6, 30, "under"),                     # parts drawn from a third of them
            (6, 30, "over"),                      # from a third and one
            # five blocks of CSV rows, three of JSON levels, and 16,386
            # distinct parts, 32,772 distinct floats with the times and
            # defects: three kernel calls fill the table
            (3, _BLOCK // 2 + 1, "under"),
        ],
    )
    def test_matches_per_cell_reference(self, rng, levels, samples, special):
        series = hand_built_series(rng, levels, samples, special)
        out = io.StringIO()
        with np.errstate(over="ignore"):  # prob of 1e300 overflows in both
            series.to_csv(out)
            assert_same_text(out.getvalue(), reference_csv(series))
        kappa = hand_built_kappa(series)
        out = io.StringIO()
        series.to_json(out, kappa)
        assert_same_text(out.getvalue(), json.dumps(reference_as_dict(series, kappa)) + "\n")

    @pytest.mark.parametrize(
        "levels, samples, last_repeats",
        [
            (1, _BLOCK + 1, False),               # one level longer than a block
            (_BLOCK + 1, 1, False),               # two blocks of levels and one more
            (7, 3, True),
            (_BLOCK // 6 + 1, 3, True),           # the last block is that level
            (_BLOCK // 3 + 1, 3, True),           # that level and one more
        ],
    )
    def test_json_has_no_level_seams(self, rng, levels, samples, last_repeats):
        series = hand_built_series(rng, levels, samples)
        if last_repeats:  # every cell of the last level is the first cell's re
            series.values[-1] = series.values[0, 0].real * (1 + 1j)
        kappa = hand_built_kappa(series)
        out = io.StringIO()
        series.to_json(out, kappa)
        assert_same_text(out.getvalue(), json.dumps(series.as_dict(kappa)) + "\n")
        assert json.loads(out.getvalue()) == series.as_dict(kappa)

    def test_writes_stream_one_block_at_a_time(self, rng):
        # 9 levels of _BLOCK // 4 samples: five JSON blocks of two levels
        # and seven CSV blocks of _BLOCK // 27 samples; either payload is
        # longer than a block
        series = hand_built_series(rng, 9, _BLOCK // 4)
        kappa = hand_built_kappa(series)
        longest = "-2.2250738585072014e-308"
        # the most text a CSV row of 3 floats or a JSON pair of 2 can take
        csv_row, json_pair = ",".join([longest] * 5) + "\n", f"{longest}, {longest}]], [["
        cases = (
            ("to_csv", (), reference_csv(series), 1 + 7, _BLOCK // 3 * len(csv_row)),
            ("to_json", (kappa,), json.dumps(series.as_dict(kappa)) + "\n", 1 + 5 + 1,
             _BLOCK // 2 * len(json_pair)),
        )
        for writer, args, want, count, block in cases:
            writes = []
            out = io.StringIO()
            out.write = writes.append
            getattr(series, writer)(out, *args)
            assert_same_text("".join(writes), want)
            assert len(writes) == count  # the head, the blocks and any tail
            assert len(want) > block >= max(map(len, writes))

    def test_series_cell_bound(self):
        # the bound is checked before any (levels, T) array is made, so a
        # zero-copy grid is enough
        times = np.broadcast_to(0.0, (MAX_SERIES_CELLS // PETERSEN_JC.dim + 1,))
        with pytest.raises(InvalidParams, match="series too large"):
            amplitude_series(petersen_measure(), PETERSEN_JC, times)


def g17_text(values):
    """``_g17``'s text of each value, its NUL padding dropped."""
    rows = _g17(np.asarray(values, dtype=np.float64)).reshape(-1, 24)
    return [bytes(row).rstrip(b"\0").decode("ascii") for row in rows]


def g17_reference(values):
    return ["%.17g" % v for v in np.ravel(np.asarray(values, dtype=np.float64)).tolist()]


def sweep_floats():
    """Every decade 10**k from 1e-323 to 1e308 with both neighbours; the
    subnormal and normal floor and the ends of the kernel's own range one ulp
    either side; exact ties at 17 digits, where 10**(16 - p) is exact
    (186714551458061.875) and where it is not (2**-25, 3 * 2**-24); values
    that round up into the next decade (1e-14, 1e98 and 1e129 are each just
    below their power of ten); zeros, infinities and NaNs of either sign."""
    decades = np.array([float(f"1e{k}") for k in range(-323, 309)])
    edges = np.array([1e300, 1e-300])
    edges = np.concatenate([edges, -edges])
    return np.concatenate([
        decades, np.nextafter(decades, 0), np.nextafter(decades, np.inf),
        [5e-324, -5e-324, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0)],
        edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
        [186714551458061.875, 2.0**-25, 3 * 2.0**-24, 5 * 2.0**-24, 0.5, 2.5, 1e16 + 2],
        [1e-14, 1e98, 1e129, 0.99999999999999989, 9.9999999999999995e-5],
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan],
    ])


class TestG17:
    """The CSV float kernel writes exactly the bytes of ``'%.17g' % v``. No
    ``np.errstate`` wraps it: a floating-point warning fails the test."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_any_bit_pattern(self, bits):
        # NaN payloads, the sign bit and subnormals included
        x = np.array(bits, dtype=np.uint64).view(np.float64)
        assert g17_text(x) == g17_reference(x)

    def test_sweep(self):
        x = sweep_floats()
        assert g17_text(x) == g17_reference(x)

    def test_log_uniform(self, rng):
        x = np.exp(rng.uniform(-700, 700, 20000)) * rng.choice([-1.0, 1.0], 20000)
        assert g17_text(x) == g17_reference(x)

    def test_powers_of_ten_to_104_bits(self):
        # 10**k = (fh + fl) 2**g with 1 <= fh < 2, split exactly into Dekker halves
        for k in range(-330, 330, 7):
            fh, fh_hi, fh_lo, fl, g = amplitudes._pow10(k)
            assert 1 <= fh < 2 and fh_hi + fh_lo == fh and 0 <= fl < 2.0**-52
            error = Fraction(10) ** k / Fraction(2) ** int(g) - Fraction(fh) - Fraction(fl)
            assert 0 <= error < Fraction(1, 2**104)

    def test_fallback_only_where_needed(self, monkeypatch):
        seen = []
        fallback = amplitudes._g17_fallback

        def counting(v):
            seen.append(v)
            return fallback(v)

        monkeypatch.setattr(amplitudes, "_g17_fallback", counting)
        # the pinned emit_series walk: 1001 samples of 400 levels
        series = pipeline_for_entry(make_entry("tchebichef2", (400, 1))).series(
            np.linspace(0.0, 10.0, 1001)
        )
        series.to_csv(io.StringIO())
        assert seen == []
        # a subnormal, and a tie where 10**(16 - p) is inexact
        assert g17_text([5e-324, 2.0**-25]) == ["4.9406564584124654e-324", "2.9802322387695312e-08"]
        assert seen == [5e-324, 2.0**-25]
        # zero, inf and nan have fixed text
        assert g17_text([0.0, -0.0, np.inf, -np.inf, -np.nan]) == ["0", "-0", "inf", "-inf", "nan"]
        assert len(seen) == 2


def shortest_text(values):
    """``_shortest``'s text of each value, its NUL padding dropped."""
    rows = _shortest(np.ravel(np.asarray(values, dtype=np.float64)))
    return [bytes(row).rstrip(b"\0").decode("ascii") for row in rows]


def json_reference(values):
    return [json.dumps(v) for v in np.ravel(np.asarray(values, dtype=np.float64)).tolist()]


def with_neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


def half_gap_pairs():
    """``(centres, pairs)``: decimals c that lie half a gap from both their
    neighbouring doubles and have fewer digits than either, and the doubles
    c - h, c + h, one with an even mantissa and one with an odd one. Where
    10**(16 - p) is exact, c = 2**54 + 6 + 20 j and h = 2 (gap 4); where it
    is not, c = D 10**6 in [2**59, 2**60) with D odd and h = 64 (gap 128)."""
    centres = [2**54 + 6 + 20 * j for j in range(100)]
    centres += [(576460752305 + 2 * j) * 10**6 for j in range(100)]
    halves = [2] * 100 + [64] * 100
    return centres, np.array([(c - h, c + h) for c, h in zip(centres, halves)], dtype=np.float64)


class TestShortest:
    """The JSON float kernel writes exactly the bytes of ``json.dumps(v)``,
    that is ``float.__repr__`` and ``NaN``, ``Infinity``, ``-Infinity``. No
    ``np.errstate`` wraps it: a floating-point warning fails the test."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_any_bit_pattern(self, bits):
        # NaN payloads, the sign bit and subnormals included
        x = np.array(bits, dtype=np.uint64).view(np.float64)
        assert shortest_text(x) == json_reference(x)

    def test_sweep(self):
        x = sweep_floats()
        assert shortest_text(x) == json_reference(x)

    def test_log_uniform(self, rng):
        x = np.exp(rng.uniform(-700, 700, 20000)) * rng.choice([-1.0, 1.0], 20000)
        assert shortest_text(x) == json_reference(x)

    def test_powers_of_two_and_ten(self):
        # below a power of two the gap to the lower neighbour is half as wide
        twos = np.ldexp(1.0, np.arange(-1074, 1024))
        tens = np.array([float(f"1e{k}") for k in range(-330, 331)])
        x = with_neighbours(np.concatenate([twos, tens]))
        assert shortest_text(x) == json_reference(x)

    def test_integers_layout_and_rounded_decimals(self, rng):
        integers = np.concatenate([
            np.arange(-3000, 3000), 10**15 + np.arange(-300, 300), 2**53 + np.arange(-300, 300),
            10**16 + np.arange(-300, 300), 10**17 + 16 * np.arange(-300, 300),
        ]).astype(np.float64)
        # fixed point from 1e-4 up to, not including, 1e16
        switches = with_neighbours([1e-4, 1e-5, 1e15, 1e16, 9.9999e-5, 999999999999999.9])
        x = rng.uniform(-1.0, 1.0, 1000) * 10.0 ** rng.integers(-25, 25, 1000)
        rounded = [float(f"%.{k}g" % v) for k in range(1, 18) for v in x.tolist()]
        for values in (integers, switches, rounded):
            assert shortest_text(values) == json_reference(values)

    def test_half_gap_bounds(self):
        # a bound is a candidate for an even mantissa only: of each pair,
        # exactly one double is written as the shorter decimal between them
        centres, pairs = half_gap_pairs()
        text = shortest_text(pairs)
        assert text == json_reference(pairs)
        for c, low, high in zip(centres, text[::2], text[1::2]):
            assert (Decimal(low) == c) != (Decimal(high) == c)

    def test_fallback_only_where_needed(self, monkeypatch):
        seen = []
        fallback = amplitudes._repr_fallback

        def counting(v):
            seen.append(v)
            return fallback(v)

        monkeypatch.setattr(amplitudes, "_repr_fallback", counting)
        # the pinned emit_series JSON walk: 501 samples of 600 levels
        series = pipeline_for_entry(make_entry("path", (600,))).series(np.linspace(0.0, 10.0, 501))
        series.to_json(io.StringIO())
        assert seen == []
        # a subnormal, and a double half its gap below a shorter decimal
        assert shortest_text([5e-324, 2.0**54 + 24]) == ["5e-324", "1.801439850948201e+16"]
        assert seen == [5e-324, 2.0**54 + 24]
        # zero, inf and nan have fixed text
        assert shortest_text([0.0, -0.0, np.inf, -np.inf, -np.nan]) == [
            "0.0", "-0.0", "Infinity", "-Infinity", "NaN"
        ]
        assert len(seen) == 2


def test_power_table_built_on_first_write():
    """Importing the CLI builds none of the kernel's tables; one petersen CSV
    caches 10**k for exactly the k = 16 - floor(log10 |v|) of its cells."""
    script = """
import contextlib, decimal, io, json
import ctqw.cli
from ctqw import amplitudes
before = amplitudes._pow10.cache_info().currsize, amplitudes._text_tables.cache_info().currsize
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = ctqw.cli.main(["compute", "--graph", "petersen"])
cells = [float(c) for row in out.getvalue().splitlines()[1:] for c in row.split(",")]
used = {16 - decimal.Decimal(v).adjusted() for v in cells if v != 0}
after = amplitudes._pow10.cache_info().currsize
for k in used:
    amplitudes._pow10(k)
print(json.dumps([code, before, after, len(used), amplitudes._pow10.cache_info().currsize]))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    code, before, after, used, probed = json.loads(proc.stdout)
    assert code == 0
    assert before == [0, 0]
    assert after == used == probed  # every used k was cached, and nothing else


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda t: amplitude_series(petersen_measure(), PETERSEN_JC, t),
        lambda t: oracle_amplitudes(make_entry("petersen").build(), 0, t),
    ],
    ids=["series", "oracle"],
)
@pytest.mark.parametrize(
    "times",
    [[], [[0.0, 1.0]], [0.0, np.nan], np.inf],
    ids=["empty", "2-d", "nan", "inf"],
)
def test_both_evaluators_refuse_bad_times(evaluate, times):
    with pytest.raises(InvalidParams, match="^time must be"):
        evaluate(np.array(times))


class TestClosedForm:
    def test_icosahedron_value(self):
        entry = make_entry("appendix", ("icosahedron",))
        t = 0.75
        want = (
            5 * np.exp(1j * t) + np.exp(-5j * t) + 6 * np.cos(np.sqrt(5) * t)
        ) / 12.0
        assert entry.closed_form(t) == pytest.approx(want, abs=1e-14)

    def test_pappus_stored_verbatim(self):
        # the tabulated Pappus expression does not even have unit mass at
        # t = 0; it is stored as printed and callers flag the mismatch
        entry = make_entry("appendix", ("pappus",))
        assert entry.closed_form(0.0) == pytest.approx(4.0 / 18.0, abs=1e-14)

    def test_dihedral(self):
        entry = make_entry("dihedral_srg", (5,))
        t = 2.2
        want = (5 - 1 + np.cos(5 * t)) / 5.0
        assert entry.closed_form(t) == pytest.approx(want, abs=1e-14)

    def test_exponential_sum_mass(self):
        form = ExponentialSum.build(
            exponentials=[(0.25, 1.0)], cosines=[(0.5, 2.0)], constant=0.25
        )
        assert sum(c for c, _ in form.terms) == pytest.approx(1.0)
        assert form(0.0) == pytest.approx(1.0)


class TestBessel:
    def test_path_limit_preview(self):
        # moderate-size preview of the large-n endpoint-path limit
        jc = make_entry("path", (80,)).jacobi_coefficients()
        m = spectral_measure(jc)
        for t in np.linspace(0.0, 4.0, 17):
            want = jv(0, 2 * t) + jv(2, 2 * t)
            assert series_row(m, jc, 0, t) == pytest.approx(want, abs=1e-7)
