import numpy as np
import pytest

from ctqw import build_graph, entry_from_spec, stratify
from ctqw.errors import InvalidParams
from ctqw.oracle import aggregate_to_strata, oracle_amplitudes


class TestOracleAmplitudes:
    def test_k2_closed_form(self, rng):
        g = build_graph(2, [(0, 1)])
        for t in rng.uniform(0, 10, size=8):
            p = oracle_amplitudes(g, 0, float(t))
            assert p[0] == pytest.approx(np.cos(t), abs=1e-12)
            assert p[1] == pytest.approx(-1j * np.sin(t), abs=1e-12)

    def test_time_zero_is_indicator(self, petersen):
        p = oracle_amplitudes(petersen, 3, 0.0)
        want = np.zeros(10, dtype=complex)
        want[3] = 1.0
        assert np.abs(p - want).max() < 1e-12

    def test_unitarity(self, petersen, rng):
        for t in rng.uniform(0, 30, size=10):
            p = oracle_amplitudes(petersen, 0, float(t))
            assert (np.abs(p) ** 2).sum() == pytest.approx(1.0, abs=1e-10)

    def test_petersen_matches_closed_forms(self, petersen, petersen_strat):
        t = np.linspace(0.0, 10.0, 41)
        pvec = oracle_amplitudes(petersen, 0, t)
        values, spread = aggregate_to_strata(pvec, petersen_strat)
        q0 = 0.1 * (5 * np.exp(-1j * t) + 4 * np.exp(2j * t) + np.exp(-3j * t))
        q1 = (0.5 * np.exp(-1j * t) - 0.8 * np.exp(2j * t) + 0.3 * np.exp(-3j * t)) / np.sqrt(3)
        q2 = (-np.exp(-1j * t) + 0.4 * np.exp(2j * t) + 0.6 * np.exp(-3j * t)) / np.sqrt(6)
        assert np.abs(values[0] - q0).max() < 1e-12
        assert np.abs(values[1] - q1).max() < 1e-12
        assert np.abs(values[2] - q2).max() < 1e-12
        assert spread < 1e-12

    def test_origin_out_of_range(self, petersen):
        with pytest.raises(InvalidParams):
            oracle_amplitudes(petersen, 10, 0.0)

    @pytest.mark.parametrize(
        "grid",
        [[0.0, 1.0, 3.0], [2.0, 1.0, 0.0], [1.0, 1.0]],
        ids=["uneven", "descending", "constant"],
    )
    def test_irregular_grid_rejected(self, petersen, grid):
        with pytest.raises(InvalidParams):
            oracle_amplitudes(petersen, 0, np.array(grid))

    def test_length_one_grid_matches_scalar(self, petersen):
        column = oracle_amplitudes(petersen, 0, np.array([2.5]))
        assert column.shape == (10, 1)
        assert np.abs(column[:, 0] - oracle_amplitudes(petersen, 0, 2.5)).max() < 1e-15

    @pytest.mark.parametrize("t", [10.0, np.linspace(0.0, 10.0, 41)], ids=["scalar", "grid"])
    def test_global_random_stream_untouched(self, t):
        # |tA|_1 = 120 here: large enough for expm_multiply to estimate norms
        # by random sampling
        g = entry_from_spec("johnson:8,2").build()
        np.random.seed(0)
        want = np.random.rand()
        np.random.seed(0)
        oracle_amplitudes(g, 0, t)
        assert np.random.rand() == want


class TestAggregate:
    def test_k2(self):
        g = build_graph(2, [(0, 1)])
        strat = stratify(g, 0)
        t = 1.1
        values, spread = aggregate_to_strata(oracle_amplitudes(g, 0, t), strat)
        assert values[0] == pytest.approx(np.cos(t), abs=1e-12)
        assert values[1] == pytest.approx(-1j * np.sin(t), abs=1e-12)
        assert spread == 0.0

    def test_time_zero(self, petersen, petersen_strat):
        values, _ = aggregate_to_strata(oracle_amplitudes(petersen, 0, 0.0), petersen_strat)
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(values[1:]).max() < 1e-12

    def test_non_qd_spread_reported_not_asserted(self):
        # path entered away from the endpoint: amplitudes differ inside shells
        g = build_graph(5, [(i, i + 1) for i in range(4)])
        strat = stratify(g, 1)
        values, spread = aggregate_to_strata(oracle_amplitudes(g, 1, 2.0), strat)
        assert spread > 1e-3  # genuinely unequal, and reported as such

    def test_array_and_scalar_shapes(self, petersen, petersen_strat):
        t = np.linspace(0, 2, 5)
        mat, _ = aggregate_to_strata(oracle_amplitudes(petersen, 0, t), petersen_strat)
        assert mat.shape == (3, 5)
        vec, _ = aggregate_to_strata(oracle_amplitudes(petersen, 0, 2.0), petersen_strat)
        assert vec.shape == (3,)
        assert np.abs(vec - mat[:, -1]).max() < 1e-12
