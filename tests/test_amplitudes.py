import io
import json

import numpy as np
import pytest
from scipy.special import jv

from ctqw import make_entry, stratify
from ctqw.amplitudes import (
    _CSV_BLOCK,
    MAX_SERIES_CELLS,
    AmplitudeSeries,
    ExponentialSum,
    amplitude_series,
    laplace_return_amplitude,
    return_amplitude,
)
from ctqw.errors import InvalidParams, PoleProximity
from ctqw.jacobi import JacobiCoefficients
from ctqw.oracle import oracle_amplitudes
from ctqw.stieltjes import SpectralMeasure, spectral_measure
from ctqw.verify import pipeline_for_entry

PETERSEN_JC = JacobiCoefficients(alpha=(0.0, 0.0, 2.0), omega=(3.0, 2.0))


def petersen_measure():
    return spectral_measure(PETERSEN_JC)


def series_row(measure, jc, level, t):
    """Row ``level`` of the series, shaped like ``t``."""
    t = np.asarray(t, dtype=np.float64)
    return amplitude_series(measure, jc, t).values[level].reshape(t.shape)


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
        got = return_amplitude(petersen_measure(), t)
        assert np.abs(got - petersen_q0(t)).max() < 1e-12

    def test_normalization_at_zero(self):
        for spec, params in [("petersen", ()), ("complete", (9,)), ("cycle", (11,))]:
            m = spectral_measure(make_entry(spec, params).jacobi_coefficients())
            assert return_amplitude(m, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_k3_at_pi(self):
        m = spectral_measure(make_entry("complete", (3,)).jacobi_coefficients())
        assert return_amplitude(m, np.pi) == pytest.approx(-1.0 / 3.0, abs=1e-13)

    def test_time_reversal(self, rng):
        m = petersen_measure()
        for t in rng.uniform(0, 20, size=10):
            assert return_amplitude(m, -t) == pytest.approx(
                np.conj(return_amplitude(m, t)), abs=1e-14
            )

    def test_scalar_time_gives_scalar(self):
        m = petersen_measure()
        form = ExponentialSum.build(exponentials=[(0.5, 1.0)], cosines=[(0.5, 2.0)])
        for amplitude in (lambda t: return_amplitude(m, t), form):
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
    def test_matches_oracle_per_vertex(self, petersen, petersen_strat):
        # every vertex of shell l carries q_l / sqrt(kappa_l)
        m = petersen_measure()
        t = 0.9
        pvec = oracle_amplitudes(petersen, 0, t)
        for level in range(3):
            q = series_row(m, PETERSEN_JC, level, t)
            expected = q / np.sqrt(petersen_strat.kappa[level])
            for v in np.flatnonzero(petersen_strat.shell_of == level):
                assert pvec[v] == pytest.approx(expected, abs=1e-12)


class TestAmplitudeSeries:
    def test_petersen_table(self):
        m = petersen_measure()
        times = np.array([0.0, 0.5, 1.0])
        series = amplitude_series(m, PETERSEN_JC, times, kappa=(1, 3, 6))
        refs = [petersen_q0, petersen_q1, petersen_q2]
        for level, ref in enumerate(refs):
            assert np.abs(series.values[level] - ref(times)).max() < 1e-13
        assert series.kappa == (1, 3, 6)
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
        shell_of = stratify(pipe.graph, 0).shell_of
        want = series.values[shell_of] / np.sqrt(np.asarray(pipe.kappa))[shell_of, None]
        assert np.abs(pvec - want).max() < 1e-8

    def test_descending_grid_reorders_columns(self):
        m = petersen_measure()
        grid = np.array([9.5, 4.0, 3.75, 0.0])  # descending and uneven
        series = amplitude_series(m, PETERSEN_JC, grid, kappa=(1, 3, 6))
        ascending = amplitude_series(m, PETERSEN_JC, grid[::-1], kappa=(1, 3, 6))
        assert np.array_equal(series.times, grid)
        assert np.array_equal(series.values, ascending.values[:, ::-1])
        assert np.array_equal(series.conservation_defect, ascending.conservation_defect[::-1])

    def test_kappa_length_checked(self):
        m = petersen_measure()
        with pytest.raises(InvalidParams):
            amplitude_series(m, PETERSEN_JC, np.array([0.0, 1.0]), kappa=(1, 3))

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


def reference_as_dict(series):
    """Per-element float() lists: the builder as_dict replaced."""
    return {
        "times": [float(t) for t in series.times],
        "kappa": list(series.kappa) if series.kappa is not None else None,
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


SPECIAL_FLOATS = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -1e300, 0.1, 1.0]


def hand_built_series(rng, levels, samples, special=False):
    times = np.sort(rng.uniform(0.0, 50.0, size=samples))
    scale = 10.0 ** rng.integers(-150, 150, size=(2, levels, samples))
    parts = rng.standard_normal((2, levels, samples)) * scale
    defect = rng.uniform(0.0, 1e-12, size=samples)
    if special:
        times[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[:samples]
        flat = parts.reshape(2, -1)
        for k, x in enumerate(SPECIAL_FLOATS):
            flat[0, k] = x
            flat[1, -1 - k] = x
        defect[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[:samples]
    values = np.empty((levels, samples), dtype=np.complex128)
    values.real, values.imag = parts  # re + 1j * im would turn an infinite im into a nan re
    kappa = tuple(range(1, levels + 1)) if levels > 1 else None
    return AmplitudeSeries(
        times=times,
        values=values,
        kappa=kappa,
        conservation_defect=defect,
    )


class TestSerializers:
    @pytest.mark.parametrize(
        "levels, samples, special",
        [
            (4, _CSV_BLOCK // 4, False),          # exactly one block of rows
            (1, _CSV_BLOCK + 1, False),           # one row into a second block
            (3, _CSV_BLOCK - 1, False),           # 3 * _CSV_BLOCK - 1 rows
            (_CSV_BLOCK + 1, 2, False),           # more strata than rows per block
            (1, 1, False),                        # one level, one sample
            (5, 1, False),
            (1, 40, False),
            (3, 20, True),                        # -0, nan, +-inf, subnormal, huge
        ],
    )
    def test_matches_per_cell_reference(self, rng, levels, samples, special):
        series = hand_built_series(rng, levels, samples, special)
        out = io.StringIO()
        with np.errstate(over="ignore"):  # prob of 1e300 overflows in both
            series.to_csv(out)
            assert_same_text(out.getvalue(), reference_csv(series))
        assert_same_text(series.to_json(), json.dumps(reference_as_dict(series)))

    def test_series_cell_bound(self):
        # the bound is checked before any (levels, T) array is made, so a
        # zero-copy grid is enough
        times = np.broadcast_to(0.0, (MAX_SERIES_CELLS // PETERSEN_JC.dim + 1,))
        with pytest.raises(InvalidParams, match="series too large"):
            amplitude_series(petersen_measure(), PETERSEN_JC, times)


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
        entry = make_entry("path", (80,))
        m = spectral_measure(entry.jacobi_coefficients())
        for t in np.linspace(0.0, 4.0, 17):
            want = jv(0, 2 * t) + jv(2, 2 * t)
            assert return_amplitude(m, t) == pytest.approx(want, abs=1e-7)
