import numpy as np
import pytest

from ctqw import (
    build_graph,
    classify_qd,
    jacobi_from_strata,
    lanczos,
    make_entry,
    qd_from_intersection_array,
    return_amplitude,
    spectral_measure,
    stratify,
    vertex_state,
)
from ctqw.errors import InvalidParams, NotQDType, ZeroReference
from ctqw.graphs import IntersectionArray
from ctqw.jacobi import JacobiCoefficients
from ctqw.oracle import oracle_amplitudes


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def expected_path_omegas(n):
    """Realized Lanczos coefficients for a path entered at the second vertex.

    Odd-index entries follow (i+1)/i and even-index ones i/(i+1); for even n
    the final coefficient is 1/(n/2) instead, and the Krylov space has
    dimension n (even n) or n-1 (odd n).
    """
    count = n - 1 if n % 2 == 0 else n - 2
    out = []
    for j in range(1, count + 1):
        i = (j + 1) // 2
        out.append((i + 1) / i if j % 2 == 1 else i / (i + 1))
    if n % 2 == 0:
        out[-1] = 1.0 / (n // 2)
    return out


class TestCoefficientsType:
    def test_length_mismatch(self):
        with pytest.raises(InvalidParams):
            JacobiCoefficients(alpha=(0.0, 0.0), omega=(1.0, 1.0))

    def test_omega_positive(self):
        with pytest.raises(InvalidParams):
            JacobiCoefficients(alpha=(0.0, 0.0), omega=(0.0,))

    def test_json_round_trip(self):
        jc = JacobiCoefficients(alpha=(0.0, 0.0, 2.0), omega=(3.0, 2.0))
        back = JacobiCoefficients.from_json(jc.to_json())
        assert back == jc
        assert jc.to_json() == '{"alpha": [0.0, 0.0, 2.0], "omega": [3.0, 2.0]}'

    def test_truncation(self):
        jc = JacobiCoefficients(alpha=(0.0, 1.0, 2.0), omega=(3.0, 2.0))
        assert jc.truncated(2) == JacobiCoefficients((0.0, 1.0), (3.0,))


class TestFromIntersectionArray:
    def test_petersen(self):
        jc = qd_from_intersection_array(IntersectionArray.from_bc((3, 2), (1, 1)))
        assert jc.alpha == (0.0, 0.0, 2.0)
        assert jc.omega == (3.0, 2.0)

    @pytest.mark.parametrize("n", [2, 3, 10, 50])
    def test_complete(self, n):
        jc = qd_from_intersection_array(IntersectionArray.from_bc((n - 1,), (1,)))
        assert jc.alpha == (0.0, float(n - 2))
        assert jc.omega == (float(n - 1),)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_even_cycle(self, m):
        entry = make_entry("cycle", (2 * m,))
        jc = qd_from_intersection_array(entry.intersection_array)
        assert all(a == 0 for a in jc.alpha)
        expected = [2.0] + [1.0] * (m - 2) + [2.0] if m > 1 else [2.0]
        assert list(jc.omega) == expected


class TestFromStrata:
    def test_petersen_matches_array(self, petersen, petersen_strat):
        jc = jacobi_from_strata(petersen, petersen_strat)
        assert jc.alpha == (0.0, 0.0, 2.0)
        assert jc.omega == (3.0, 2.0)

    def test_star_from_center(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        jc = jacobi_from_strata(g, stratify(g, 0))
        assert jc.alpha == (0.0, 0.0)
        assert jc.omega == (3.0,)

    def test_c4(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        jc = jacobi_from_strata(g, stratify(g, 0))
        assert jc.alpha == (0.0, 0.0, 0.0)
        assert jc.omega == (2.0, 2.0)

    def test_non_qd_raises(self):
        g = path_graph(5)
        with pytest.raises(NotQDType):
            jacobi_from_strata(g, stratify(g, 1))


class TestLanczos:
    @pytest.mark.parametrize("n", range(4, 21))
    def test_path_from_second_vertex_pattern(self, n):
        g = path_graph(n)
        jc = lanczos(g, vertex_state(n, 1))
        expected = expected_path_omegas(n)
        assert len(jc.omega) == len(expected)
        assert np.allclose(jc.omega, expected, atol=1e-12, rtol=0)
        assert np.allclose(jc.alpha, 0.0, atol=1e-12)

    def test_k5_from_vertex(self):
        g = make_entry("complete", (5,)).build()
        jc = lanczos(g, vertex_state(5, 0))
        assert np.allclose(jc.alpha, (0.0, 3.0), atol=1e-12)
        assert np.allclose(jc.omega, (4.0,), atol=1e-12)

    def test_k2(self):
        jc = lanczos(build_graph(2, [(0, 1)]), vertex_state(2, 0))
        assert np.allclose(jc.alpha, (0.0, 0.0), atol=1e-14)
        assert np.allclose(jc.omega, (1.0,), atol=1e-14)

    def test_zero_reference(self, petersen):
        with pytest.raises(ZeroReference):
            lanczos(petersen, np.zeros(10))

    def test_basis_orthonormal(self, rng):
        for _ in range(5):
            n = int(rng.integers(6, 30))
            edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
            edges += [
                (int(u), int(v))
                for u, v in rng.integers(0, n, size=(n, 2))
                if u != v
            ]
            g = build_graph(n, edges)
            ref = rng.standard_normal(n)
            jc, basis = lanczos(g, ref, return_basis=True)
            gram = basis.T @ basis
            assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-10

    def test_random_graph_at_scale(self, rng):
        n = 300
        edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
        edges += [(int(u), int(v)) for u, v in rng.integers(0, n, size=(n, 2)) if u != v]
        g = build_graph(n, edges)
        origin = next(o for o in range(n) if not classify_qd(g, stratify(g, o)))
        jc, basis = lanczos(g, vertex_state(n, origin), return_basis=True)
        assert basis.shape == (n, jc.dim)
        assert np.abs(basis.T @ basis - np.eye(jc.dim)).max() < 1e-10
        diag, off = jc.tridiagonal()
        tri = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.abs(basis.T @ g.adjacency.toarray() @ basis - tri).max() < 1e-10
        t = np.linspace(0.0, 20.0, 201)
        q0 = return_amplitude(spectral_measure(jc), t)
        assert np.abs(q0 - oracle_amplitudes(g, origin, t)[origin]).max() < 1e-8

    def test_all_routes_agree_on_catalog(self):
        for spec, params in [
            ("complete", (7,)),
            ("cycle", (8,)),
            ("cycle", (9,)),
            ("petersen", ()),
            ("johnson", (6, 2)),
            ("hamming", (2, 3)),
            ("dihedral_srg", (3,)),
        ]:
            entry = make_entry(spec, params)
            g = entry.build()
            strat = stratify(g, 0)
            from_array = qd_from_intersection_array(entry.intersection_array)
            from_strata = jacobi_from_strata(g, strat)
            from_lanczos = lanczos(g, vertex_state(g.n, 0))
            for a, b in [(from_array, from_strata), (from_array, from_lanczos)]:
                assert np.allclose(a.alpha, b.alpha, atol=1e-12)
                assert np.allclose(a.omega, b.omega, atol=1e-12)

    def test_spectrum_containment(self, rng):
        # tridiagonal eigenvalues must be a subset of the adjacency spectrum
        for _ in range(5):
            n = int(rng.integers(5, 25))
            edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
            g = build_graph(n, edges)
            jc = lanczos(g, rng.standard_normal(n))
            diag, off = jc.tridiagonal()
            tri = np.diag(diag)
            if len(off):
                tri += np.diag(off, 1) + np.diag(off, -1)
            tri_vals = np.linalg.eigvalsh(tri)
            full_vals = np.linalg.eigvalsh(g.adjacency.toarray())
            for x in tri_vals:
                assert np.abs(full_vals - x).min() < 1e-8
