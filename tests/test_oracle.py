import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import connected_graphs
from ctqw import build_graph, entry_from_spec
from ctqw.amplitudes import MAX_SERIES_CELLS
from ctqw.errors import InvalidParams
from ctqw.jacobi import JacobiCoefficients
from ctqw.graphs import Graph
from ctqw.oracle import _coefficients, _terms, oracle_amplitudes
from ctqw.verify import CheckResult, Pipeline, check_oracle


def expm_reference(g, origin, times):
    """(n, T) propagator columns from scipy's expm_multiply, one call per
    sample: a reference that shares nothing with the Chebyshev recursion."""
    from scipy.sparse.linalg import expm_multiply

    state = np.zeros(g.n)
    state[origin] = 1.0
    return np.stack([expm_multiply(-1j * t * g.adjacency, state) for t in times], axis=1)


def stated_terms(x):
    """The stated term count, by a plain upward scan: the first integer K > x
    at which 2 B_K / (1 - rho) <= 1e-16, with B_K = [z e^s / (1 + s)]^K
    Kapteyn's bound on |J_K(x)|, z = x / K, s = sqrt(1 - z^2) and
    rho = z / (1 + s)."""
    if x == 0:
        return 1
    k = math.floor(x) + 1
    while True:
        z = x / k
        s = math.sqrt(1 - z * z)
        rho = z / (1 + s)
        if rho < 1 and 2 * (z * math.exp(s) / (1 + s)) ** k / (1 - rho) <= 1e-16:
            return k
        k += 1


class TestTermCount:
    @pytest.mark.parametrize(
        "spec, grid",
        [
            ("petersen", np.linspace(0.0, 10.0, 201)),  # R t = 30
            ("hamming:3,4", np.linspace(0.0, 10.0, 201)),  # R t = 90
            ("johnson:10,3", np.array([7.0, -3.0, 0.0])),  # R t = 147
            ("petersen", np.array([1e-10, -3e-10, 0.0])),  # all Taylor
            ("petersen", np.array([0.0])),
        ],
        ids=["petersen", "hamming:3,4", "johnson:10,3", "all-taylor", "t=0"],
    )
    def test_matvecs_follow_the_stated_rule(self, spec, grid, csr_products):
        # one matvec per term after T_0, for K of the stated rule alone,
        # counted at the compiled kernel; each reads the values scaled once
        # by 2/R, none the adjacency's own (as a @ v would)
        g = entry_from_spec(spec).build()
        got = oracle_amplitudes(g, 1, grid)
        products = list(csr_products)
        radius = float(g.adjacency.sum(axis=1).max())
        assert len(products) == stated_terms(radius * np.abs(grid).max()) - 1
        assert not any(data is g.adjacency.data for data in products)
        assert np.array_equal(got, oracle_amplitudes(g, 1, grid))
        assert np.abs(got - expm_reference(g, 1, grid)).max() < 1e-12

    @pytest.mark.parametrize("x", [0.0, 1e-9, 1.0, 30.0, 210.0, 2950.0, 19990.0])
    def test_terms_meet_the_tail_target(self, x):
        from scipy.special import jv

        k = _terms(x)
        assert k == stated_terms(x) and k > x
        # 2 sum_{j>=K} |J_j(x)|, the truncation error of a unit state, from
        # scipy; |J_j(x)| falls faster than geometrically past the table
        order = np.arange(k + 200)
        tails = 2.0 * np.cumsum(np.abs(jv(order, x))[::-1])[::-1]
        assert tails[k] <= 1e-16
        need = int(np.flatnonzero(tails > 1e-16).max(initial=-1)) + 1
        # Kapteyn's bound is loosest near the turning point k = x, over a
        # width that grows like x^(1/3)
        assert need <= k <= need + 8 + np.cbrt(x)
        # the recurrence started that close to the turning point still
        # gives every coefficient, at the largest sample and below it; the
        # rounding grows with the ~x terms of the normalization sum
        y = x * np.array([1.0, -0.5, 1.0 / 7.0, 0.0])
        j = order[:k, None]
        want = (2 - (j == 0)) * (-1j) ** (j % 4) * jv(j, y)
        want = np.where(j % 2 == 0, want.real, want.imag)
        assert np.abs(_coefficients(y, k) - want).max() <= max(1e-15, 3e-15 * np.sqrt(x))

    @pytest.mark.parametrize("t_max", [1e5, 1e20, 1e308])
    def test_oversized_table_refused(self, petersen, t_max):
        with pytest.raises(InvalidParams, match="oracle table too large"):
            oracle_amplitudes(petersen, 0, np.linspace(0.0, t_max, 201))

    def test_refusal_names_the_stated_term_count(self, petersen):
        # R t = 3000: one sample more than a table of K rows may hold
        k = stated_terms(3000.0)
        samples = MAX_SERIES_CELLS // k + 1
        with pytest.raises(
            InvalidParams, match=rf"\({k} terms x {samples} samples > {MAX_SERIES_CELLS} cells\)"
        ):
            oracle_amplitudes(petersen, 0, np.full(samples, 1000.0))


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

    def test_petersen_matches_closed_forms(self, petersen, petersen_shell_of):
        t = np.linspace(0.0, 10.0, 41)
        pvec = oracle_amplitudes(petersen, 0, t)
        q0 = 0.1 * (5 * np.exp(-1j * t) + 4 * np.exp(2j * t) + np.exp(-3j * t))
        q1 = (0.5 * np.exp(-1j * t) - 0.8 * np.exp(2j * t) + 0.3 * np.exp(-3j * t)) / np.sqrt(3)
        q2 = (-np.exp(-1j * t) + 0.4 * np.exp(2j * t) + 0.6 * np.exp(-3j * t)) / np.sqrt(6)
        # every vertex of shell l carries q_l / sqrt(shell size)
        for level, q in enumerate((q0, q1, q2)):
            shell = np.flatnonzero(petersen_shell_of == level)
            want = q / np.sqrt(len(shell))
            assert np.abs(pvec[shell] - want).max() < 1e-12

    def test_origin_out_of_range(self, petersen):
        with pytest.raises(InvalidParams):
            oracle_amplitudes(petersen, 10, 0.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf, [0.0, -np.inf]], ids=["nan", "inf", "grid"])
    def test_non_finite_time_rejected(self, petersen, t):
        # the term count grows with max|t|
        with pytest.raises(InvalidParams, match="time must be finite"):
            oracle_amplitudes(petersen, 0, t)

    @pytest.mark.parametrize(
        "grid",
        [[0.0, 1.0, 3.0], [2.0, 1.0, 0.0], [1.0, 1.0]],
        ids=["uneven", "descending", "constant"],
    )
    def test_irregular_grid_matches_reference(self, petersen, grid):
        got = oracle_amplitudes(petersen, 0, np.array(grid))
        assert got.shape == (10, len(grid))
        assert np.abs(got - expm_reference(petersen, 0, grid)).max() < 1e-12

    @pytest.mark.parametrize(
        "spec, grid",
        [
            # largest row sum 59: R * t_max = 2950 Chebyshev terms and more
            ("complete:60", [50.0, 0.0, 13.7, 31.2]),
            # largest row sum 27, n = 1000
            ("hamming:3,10", [50.0, 0.5, 24.9]),
        ],
        ids=["complete:60", "hamming:3,10"],
    )
    def test_truncation_on_wide_spectra(self, spec, grid):
        # the term count grows with R * max|t|; a fixed count fails here
        g = entry_from_spec(spec).build()
        got = oracle_amplitudes(g, 1, np.array(grid))
        assert np.abs(got - expm_reference(g, 1, grid)).max() <= 1e-10

    @pytest.mark.parametrize("spec", ["johnson:10,3", "cycle:60"])
    def test_scaled_values_match_reference(self, spec):
        # R = 21 (2/R not a power of two: the scaled values are rounded) and
        # R = 2 (exact)
        g = entry_from_spec(spec).build()
        grid = np.linspace(0.0, 10.0, 21)
        assert np.abs(oracle_amplitudes(g, 1, grid) - expm_reference(g, 1, grid)).max() < 1e-12

    def test_int64_indices_give_the_same_bits(self):
        from scipy.sparse import csr_array

        g = entry_from_spec("johnson:10,3").build()
        a = g.adjacency
        wide = csr_array(
            (a.data, a.indices.astype(np.int64), a.indptr.astype(np.int64)), shape=a.shape
        )
        assert wide.indices.dtype == wide.indptr.dtype == np.int64
        grid = np.linspace(0.0, 10.0, 21)
        assert np.array_equal(oracle_amplitudes(Graph(wide), 1, grid), oracle_amplitudes(g, 1, grid))

    def test_length_one_grid_matches_scalar(self, petersen):
        column = oracle_amplitudes(petersen, 0, np.array([2.5]))
        assert column.shape == (10, 1)
        assert np.abs(column[:, 0] - oracle_amplitudes(petersen, 0, 2.5)).max() < 1e-15

    @pytest.mark.parametrize("t", [10.0, np.linspace(0.0, 10.0, 41)], ids=["scalar", "grid"])
    def test_global_random_stream_untouched(self, t):
        # |tA|_1 = 120 here: large enough for a norm-estimating method such
        # as expm_multiply to sample at random
        g = entry_from_spec("johnson:8,2").build()
        np.random.seed(0)
        want = np.random.rand()
        np.random.seed(0)
        oracle_amplitudes(g, 0, t)
        assert np.random.rand() == want

    @settings(derandomize=True, deadline=None, max_examples=40)
    # R t this small once made the Bessel recurrence divide by ~0: NaN
    @example(graph=(2, [(0, 1)]), origin=0, grid=[3.459590657252687e-209])
    @given(
        connected_graphs(40),
        st.integers(0, 10**6),
        st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=4),
    )
    def test_random_graphs_match_reference_and_reverse_time(self, graph, origin, grid):
        n, edges = graph
        origin %= n
        g = build_graph(n, edges)
        times = np.array(grid)
        got = oracle_amplitudes(g, origin, times)
        assert np.abs(got - expm_reference(g, origin, times)).max() < 1e-10
        # A is real, so running the walk backwards conjugates it
        assert np.abs(oracle_amplitudes(g, origin, -times) - got.conj()).max() < 1e-12


def test_coefficients_match_scipy_bessel():
    from scipy.special import jv

    # 1.5e-8: just above the Taylor range, where the recurrence must rescale
    x = np.array([0.0, 3.46e-209, -3.46e-209, 1.5e-8, 1e-6, -1e-6, 0.5, -30.0, 210.0, 2950.0])
    terms = 2950 + 144 + 40  # R t + 10 (R t)^(1/3) + 40 for the largest
    k = np.arange(terms)[:, None]
    want = (2 - (k == 0)) * (-1j) ** (k % 4) * jv(k, x)
    # even rows carry the real part, odd rows the imaginary part
    want = np.where(k % 2 == 0, want.real, want.imag)
    got = _coefficients(x, terms)
    assert got.shape == (terms, x.size) and got.dtype == np.float64
    assert np.abs(got - want).max() <= 1e-13


class TestCheckOracle:
    GRID = np.linspace(0.0, 10.0, 21)

    def doctored(self, graph, alpha, omega):
        # stated coefficients that are not the graph's
        return Pipeline(
            origin=0,
            builder=lambda: graph,
            coefficients=JacobiCoefficients(alpha=alpha, omega=omega),
        )

    def test_level_count_mismatch_fails(self, petersen):
        # petersen from vertex 0 has Krylov dimension 3
        pipe = self.doctored(petersen, (0.0, 0.0), (3.0,))
        result = check_oracle(pipe, pipe.series(self.GRID), pipe.krylov()[1])
        assert not result.passed
        assert result.line() == (
            "oracle vertices: max err inf tol 1.0e-08 FAIL "
            "(Krylov dimension 3, walk has 2 levels)"
        )

    def test_wrong_coefficients_fail(self, petersen):
        pipe = self.doctored(petersen, (0.0, 0.0, 2.0), (3.0, 2.5))
        result = check_oracle(pipe, pipe.series(self.GRID), pipe.krylov()[1])
        assert not result.passed and result.max_error > 1e-3



@pytest.mark.parametrize(
    "err, status", [(0.5e-8, "PASS"), (1e-8, "FAIL"), (np.nan, "FAIL")]
)
def test_check_passes_strictly_below_tolerance(err, status):
    result = CheckResult(name="x", max_error=err, tolerance=1e-8)
    assert result.passed == (status == "PASS")
    assert result.line().endswith(f"tol 1.0e-08 {status}")
