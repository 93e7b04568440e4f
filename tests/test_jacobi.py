import logging
import re

import numpy as np
import pytest

from conftest import grid_edges
from ctqw import (
    build_graph,
    classify_qd,
    lanczos,
    make_entry,
    pipeline_for_entry,
    pipeline_for_graph,
    qd_from_intersection_array,
    spectral_measure,
    stratify,
    vertex_state,
)
from ctqw.errors import InvalidParams
from ctqw.graphs import IntersectionArray
from ctqw.jacobi import DEFLATION_TOL, JacobiCoefficients
from ctqw.oracle import oracle_amplitudes


def two_pass_lanczos(g, reference):
    """Reference Lanczos that always takes two Gram-Schmidt passes per step,
    with the deflation rule of ``lanczos``."""
    a = g.adjacency
    cutoff = DEFLATION_TOL * max(1.0, float(a.sum(axis=1).max()))
    basis = [reference / np.linalg.norm(reference)]
    alphas, omegas, beta = [], [], 0.0
    while True:
        q = basis[-1]
        w = a @ q
        alphas.append(float(q @ w))
        w = w - alphas[-1] * q - (beta * basis[-2] if len(basis) > 1 else 0.0)
        done = np.array(basis)
        for _ in range(2):
            w = w - done.T @ (done @ w)
        beta = float(np.linalg.norm(w))
        if beta <= cutoff or len(basis) == g.n:
            return JacobiCoefficients(tuple(alphas), tuple(omegas))
        omegas.append(beta * beta)
        basis.append(w / beta)


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
    """Explicit graphs: from a QD-type origin Lanczos reproduces the
    shell-count coefficients, and only there are the shell sizes reported."""

    def test_petersen_matches_array(self, petersen):
        pipe = pipeline_for_graph(petersen, 0)
        assert np.allclose(pipe.jc.alpha, (0.0, 0.0, 2.0), rtol=0, atol=1e-12)
        assert np.allclose(pipe.jc.omega, (3.0, 2.0), rtol=0, atol=1e-12)
        assert pipe.kappa == (1, 3, 6)

    def test_star_from_center(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        pipe = pipeline_for_graph(g, 0)
        assert np.allclose(pipe.jc.alpha, (0.0, 0.0), rtol=0, atol=1e-12)
        assert np.allclose(pipe.jc.omega, (3.0,), rtol=0, atol=1e-12)
        assert pipe.kappa == (1, 3)

    def test_c4(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        pipe = pipeline_for_graph(g, 0)
        assert np.allclose(pipe.jc.alpha, (0.0, 0.0, 0.0), rtol=0, atol=1e-12)
        assert np.allclose(pipe.jc.omega, (2.0, 2.0), rtol=0, atol=1e-12)
        assert pipe.kappa == (1, 2, 1)

    @pytest.mark.parametrize("family, params", [("petersen", ()), ("path", (9,))])
    def test_krylov_keeps_stated_coefficients(self, family, params):
        # the oracle's Lanczos run must not replace the coefficients an entry
        # states, or those of its stated array (Lanczos's differ by rounding)
        entry = make_entry(family, params)
        stated = entry.jacobi or qd_from_intersection_array(entry.intersection_array)
        pipe = pipeline_for_entry(entry)
        pipe.krylov()
        assert pipe.jc == stated

    def test_non_qd_reports_no_kappa(self):
        g = path_graph(5)
        pipe = pipeline_for_graph(g, 1)
        assert pipe.kappa is None
        assert pipe.jc.dim == 4

    @pytest.mark.parametrize(
        "family, param, kappa",
        [
            ("path", 9, (1,) * 9),
            ("path", 600, (1,) * 600),
            ("glued_trees", 3, (1, 2, 4, 8, 4, 2, 1)),
            ("glued_trees", 9, tuple(2 ** min(j, 18 - j) for j in range(19))),
        ],
    )
    def test_kappa_same_from_catalog_and_graph(self, family, param, kappa):
        # these entries state coefficients but no shell sizes, so both routes
        # read the graph's shells through the QD test
        entry = make_entry(family, (param,))
        assert pipeline_for_entry(entry).kappa == kappa
        assert pipeline_for_graph(entry.build(), 0).kappa == kappa
        assert pipeline_for_entry(entry, origin=1).kappa is None


class TestLanczos:
    @pytest.mark.parametrize("n", range(4, 21))
    def test_path_from_second_vertex_pattern(self, n):
        g = path_graph(n)
        jc, _ = lanczos(g, 1)
        expected = expected_path_omegas(n)
        assert len(jc.omega) == len(expected)
        assert np.allclose(jc.omega, expected, atol=1e-12, rtol=0)
        assert np.allclose(jc.alpha, 0.0, atol=1e-12)

    def test_k5_from_vertex(self):
        g = make_entry("complete", (5,)).build()
        jc, _ = lanczos(g, 0)
        assert np.allclose(jc.alpha, (0.0, 3.0), atol=1e-12)
        assert np.allclose(jc.omega, (4.0,), atol=1e-12)

    def test_k2(self):
        jc, _ = lanczos(build_graph(2, [(0, 1)]), 0)
        assert np.allclose(jc.alpha, (0.0, 0.0), atol=1e-14)
        assert np.allclose(jc.omega, (1.0,), atol=1e-14)

    def test_origin_out_of_range(self, petersen):
        for origin in (-1, 10):
            with pytest.raises(InvalidParams, match=f"vertex {origin} out of range for n=10"):
                lanczos(petersen, origin)

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
            jc, basis = lanczos(g, int(rng.integers(0, n)))
            gram = basis.T @ basis
            assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-10

    def test_random_graph_at_scale(self, rng):
        n = 300
        edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
        edges += [(int(u), int(v)) for u, v in rng.integers(0, n, size=(n, 2)) if u != v]
        g = build_graph(n, edges)
        origin = next(o for o in range(n) if classify_qd(g, stratify(g, o)) is not None)
        jc, basis = lanczos(g, origin)
        assert basis.shape == (n, jc.dim)
        assert np.abs(basis.T @ basis - np.eye(jc.dim)).max() < 1e-10
        diag, off = jc.tridiagonal()
        tri = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.abs(basis.T @ g.adjacency.toarray() @ basis - tri).max() < 1e-10
        t = np.linspace(0.0, 20.0, 201)
        # the sum itself: the series' higher Krylov levels overflow on this
        # graph (its orthonormal-polynomial values), row 0 does not need them
        m = spectral_measure(jc)
        q0 = m.weights_array() @ np.exp(-1j * np.outer(m.nodes_array(), t))
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
            from_array = qd_from_intersection_array(entry.intersection_array)
            from_lanczos, _ = lanczos(g, 0)
            from_graph = pipeline_for_graph(g, 0).jc
            for b in (from_lanczos, from_graph):
                assert np.allclose(from_array.alpha, b.alpha, rtol=0, atol=1e-12)
                assert np.allclose(from_array.omega, b.omega, rtol=0, atol=1e-12)

    def test_spectrum_containment(self, rng):
        # tridiagonal eigenvalues must be a subset of the adjacency spectrum
        for _ in range(5):
            n = int(rng.integers(5, 25))
            edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
            g = build_graph(n, edges)
            jc, _ = lanczos(g, int(rng.integers(0, n)))
            diag, off = jc.tridiagonal()
            tri = np.diag(diag)
            if len(off):
                tri += np.diag(off, 1) + np.diag(off, -1)
            tri_vals = np.linalg.eigvalsh(tri)
            full_vals = np.linalg.eigvalsh(g.adjacency.toarray())
            for x in tri_vals:
                assert np.abs(full_vals - x).min() < 1e-8

    def test_single_pass_matches_two_on_random_graph(self):
        # n = 800, m = 1600: the size of the benchmark's random edge list
        rng = np.random.default_rng(800)
        n, m = 800, 1600
        edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
        while len(edges) < m:
            u, v = sorted(int(x) for x in rng.integers(0, n, size=2))
            if u != v:
                edges.add((u, v))
        g = build_graph(n, sorted(edges))
        jc, basis = lanczos(g, 0)
        assert np.abs(basis.T @ basis - np.eye(jc.dim)).max() < 1e-13
        spectrum = np.linalg.eigvalsh(g.adjacency.toarray())
        for node in spectral_measure(jc).nodes:
            assert np.abs(spectrum - node).min() < 1e-9
        want = two_pass_lanczos(g, vertex_state(n, 0))
        assert jc.dim == want.dim
        assert np.abs(np.subtract(jc.alpha, want.alpha)).max() < 1e-10
        assert np.abs(np.subtract(jc.omega, want.omega)).max() < 1e-10

    @pytest.mark.parametrize("n, dim", [(10, 10), (9, 8)], ids=["exhausts", "deflates"])
    def test_debug_line_reports_passes_and_residual(self, caplog, n, dim):
        # one line whether the space runs out (even n) or the residual
        # deflates (odd n), entered at the second vertex
        with caplog.at_level(logging.DEBUG, logger="ctqw.jacobi"):
            jc, _ = lanczos(path_graph(n), 1)
        assert jc.dim == dim
        (line,) = [r.getMessage() for r in caplog.records if r.name == "ctqw.jacobi"]
        found = re.fullmatch(
            rf"lanczos dimension {dim}, (\d+) steps with a second Gram-Schmidt pass,"
            r" final residual (\S+)",
            line,
        )
        assert found, line
        assert 0 <= int(found[1]) <= dim
        assert 0 <= float(found[2]) <= DEFLATION_TOL * 2


def vertex_walk(g, origin, times):
    """The engine's per-vertex walk: level amplitudes through the Krylov basis."""
    pipe = pipeline_for_graph(g, origin)
    return pipe.krylov()[1] @ pipe.series(times).values


# e^{-i(A (x) I + I (x) B)t} = e^{-iAt} (x) e^{-iBt}: the walk on P_a □ P_b from
# (u, v) is the outer product of the walks on P_a from u and on P_b from v
@pytest.mark.parametrize(
    "a, b",
    [
        (3, 4),
        (4, 4),
        (4, 5),
        pytest.param(5, 6, marks=pytest.mark.xfail(
            strict=True,
            reason="ROADMAP item 2: from vertex 6 Lanczos runs past the 24-dimensional "
            "Krylov space (beta_24 = 6.5e-12) and the polynomial recursion of the "
            "series blows up on the noise levels; every origin fails",
        )),
    ],
)
def test_product_rule_on_grids(a, b):
    times = np.linspace(0.0, 10.0, 41)
    grid = build_graph(a * b, grid_edges(a, b))
    for u in range(a):
        walk_u = vertex_walk(path_graph(a), u, times)
        for v in range(b):
            want = walk_u[:, None, :] * vertex_walk(path_graph(b), v, times)[None, :, :]
            got = vertex_walk(grid, b * u + v, times)
            assert np.abs(got - want.reshape(a * b, -1)).max() < 1e-8, (u, v)
