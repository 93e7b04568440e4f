import logging
import tracemalloc

import numpy as np
import pytest

from conftest import grid_edges, shells_equitable
from ctqw import (
    build_graph,
    entry_from_spec,
    list_entries,
    make_entry,
    pipeline_for_entry,
    pipeline_for_graph,
    qd_from_intersection_array,
    reduce_walk,
    spectral_measure,
    stratify,
    vertex_state,
)
from ctqw.errors import EigensolverFailure, InvalidParams
from ctqw.graphs import Graph, IntersectionArray
from ctqw.jacobi import (
    DEFLATION_TOL, JacobiCoefficients, equitable_cells, equitable_quotient, reduce_partition,
)
from ctqw.oracle import oracle_amplitudes
from ctqw.verify import entry_status
from test_catalog import CONSTRUCTIBLE_WITH_ARRAY


def two_pass_lanczos(g, reference):
    """Reference Lanczos that always takes two Gram-Schmidt passes per step,
    with the deflation rule of ``reduce_walk``."""
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
        jc = qd_from_intersection_array(IntersectionArray((3, 2), (1, 1)))
        assert jc.alpha == (0.0, 0.0, 2.0)
        assert jc.omega == (3.0, 2.0)

    @pytest.mark.parametrize("n", [2, 3, 10, 50])
    def test_complete(self, n):
        jc = qd_from_intersection_array(IntersectionArray((n - 1,), (1,)))
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
    """Explicit graphs: from a QD-type origin the reduction reproduces the
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
        # the oracle's reduction must not replace the coefficients an entry
        # states, or those of its stated array (the reduction's differ by
        # rounding)
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
    """The Lanczos coefficients of a walk, as ``reduce_walk`` computes them."""

    @pytest.mark.parametrize("n", range(4, 21))
    def test_path_from_second_vertex_pattern(self, n):
        g = path_graph(n)
        jc, _ = reduce_walk(g, 1, basis=False)
        expected = expected_path_omegas(n)
        assert len(jc.omega) == len(expected)
        assert np.allclose(jc.omega, expected, atol=1e-12, rtol=0)
        assert np.allclose(jc.alpha, 0.0, atol=1e-12)

    def test_k5_from_vertex(self):
        g = make_entry("complete", (5,)).build()
        jc, _ = reduce_walk(g, 0, basis=False)
        assert np.allclose(jc.alpha, (0.0, 3.0), atol=1e-12)
        assert np.allclose(jc.omega, (4.0,), atol=1e-12)

    def test_k2(self):
        jc, _ = reduce_walk(build_graph(2, [(0, 1)]), 0, basis=False)
        assert np.allclose(jc.alpha, (0.0, 0.0), atol=1e-14)
        assert np.allclose(jc.omega, (1.0,), atol=1e-14)

    def test_origin_out_of_range(self, petersen):
        for origin in (-1, 10):
            with pytest.raises(InvalidParams, match=f"origin {origin} out of range for n=10"):
                reduce_walk(petersen, origin, basis=False)

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
            jc, basis = reduce_walk(g, int(rng.integers(0, n)), basis=True)
            gram = basis.T @ basis
            assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-10

    def test_random_graph_at_scale(self, rng):
        n = 300
        edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
        edges += [(int(u), int(v)) for u, v in rng.integers(0, n, size=(n, 2)) if u != v]
        g = build_graph(n, edges)
        origin = next(o for o in range(n) if not shells_equitable(g, o))
        jc, basis = reduce_walk(g, origin, basis=True)
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
            reduced, _ = reduce_walk(g, 0, basis=False)
            from_graph = pipeline_for_graph(g, 0).jc
            for b in (reduced, from_graph):
                assert np.allclose(from_array.alpha, b.alpha, rtol=0, atol=1e-12)
                assert np.allclose(from_array.omega, b.omega, rtol=0, atol=1e-12)

    def test_spectrum_containment(self, rng):
        # tridiagonal eigenvalues must be a subset of the adjacency spectrum
        for _ in range(5):
            n = int(rng.integers(5, 25))
            edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
            g = build_graph(n, edges)
            jc, _ = reduce_walk(g, int(rng.integers(0, n)), basis=False)
            diag, off = jc.tridiagonal()
            tri = np.diag(diag)
            if len(off):
                tri += np.diag(off, 1) + np.diag(off, -1)
            tri_vals = np.linalg.eigvalsh(tri)
            full_vals = np.linalg.eigvalsh(g.adjacency.toarray())
            for x in tri_vals:
                assert np.abs(full_vals - x).min() < 1e-8

    def test_single_pass_matches_two_on_random_graph(self):
        # the reduction against the two-pass reference, at n = 800, m = 1600:
        # the size of the benchmark's random edge list
        rng = np.random.default_rng(800)
        n, m = 800, 1600
        edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
        while len(edges) < m:
            u, v = sorted(int(x) for x in rng.integers(0, n, size=2))
            if u != v:
                edges.add((u, v))
        g = build_graph(n, sorted(edges))
        jc, basis = reduce_walk(g, 0, basis=True)
        assert np.abs(basis.T @ basis - np.eye(jc.dim)).max() < 1e-13
        spectrum = np.linalg.eigvalsh(g.adjacency.toarray())
        for node in spectral_measure(jc).nodes:
            assert np.abs(spectrum - node).min() < 1e-9
        want = two_pass_lanczos(g, vertex_state(n, 0))
        assert jc.dim == want.dim
        assert np.abs(np.subtract(jc.alpha, want.alpha)).max() < 1e-10
        assert np.abs(np.subtract(jc.omega, want.omega)).max() < 1e-10


def random_graph(rng, n, tree_only=False):
    """A connected graph on n vertices: a random tree (vertex v hangs off one
    of 0..v-1), topped up with up to 2n random chords unless ``tree_only``."""
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    if not tree_only:
        chords = rng.integers(0, n, size=(int(rng.integers(0, 2 * n + 1)), 2))
        edges += [(int(u), int(v)) for u, v in chords if u != v]
    return build_graph(n, edges)


# a prime below 2^25: a sum of 256 products of two residues fits in int64
PRIME = 33_554_393


def krylov_rank(g, origin):
    """Rank over GF(PRIME) of the Krylov sequence e_o, A e_o, A^2 e_o, ...: at
    most its rank over the rationals, the exact Krylov dimension. Floating
    point reductions can run past it, up to the cell count (on grids and
    trees, on rounding noise above the cutoff)."""
    a = g.adjacency.toarray().astype(np.int64)
    v = vertex_state(g.n, origin).astype(np.int64)
    # reduced row echelon form: row i is 1 at pivots[i] and 0 at every other pivot
    echelon, pivots = np.zeros((0, g.n), dtype=np.int64), []
    while True:
        w = (v - v[pivots] @ echelon) % PRIME
        if not w.any():
            return len(pivots)
        p = int(np.flatnonzero(w)[0])
        w = w * pow(int(w[p]), -1, PRIME) % PRIME
        echelon = np.vstack([(echelon - np.outer(echelon[:, p], w)) % PRIME, w])
        pivots.append(p)
        v = a @ v % PRIME


def cell_count(g, origin):
    return len(equitable_cells(g, origin)[1])


class TestEquitableCells:
    """The cell count bounds the exact Krylov dimension, and the origin is
    alone in cell 0."""

    @staticmethod
    def assert_bound(g, origin):
        colour, _ = equitable_cells(g, origin)
        assert np.flatnonzero(colour == 0).tolist() == [origin]
        assert cell_count(g, origin) >= krylov_rank(g, origin), origin

    @pytest.mark.parametrize("tree_only", [False, True], ids=["graphs", "trees"])
    def test_bound_on_random_graphs(self, tree_only):
        rng = np.random.default_rng(27 + tree_only)
        for _ in range(40):
            g = random_graph(rng, int(rng.integers(2, 81)), tree_only)
            for origin in rng.choice(g.n, size=min(g.n, 3), replace=False):
                self.assert_bound(g, int(origin))

    @pytest.mark.parametrize("a, b", [(5, 6), (8, 8)])
    def test_bound_on_grids_from_every_origin(self, a, b):
        grid = build_graph(a * b, grid_edges(a, b))
        for origin in range(grid.n):
            self.assert_bound(grid, origin)

    @pytest.mark.parametrize(
        "family, params", CONSTRUCTIBLE_WITH_ARRAY + [("path", (9,)), ("glued_trees", (3,))]
    )
    def test_bound_on_catalog_graphs_from_every_origin(self, family, params):
        g = make_entry(family, params).build()
        for origin in range(g.n):
            self.assert_bound(g, origin)

    # glued_trees:9 from vertex 5 has Krylov dimension 47; on H(3,12) the
    # distance classes are already equitable, and float weights would split
    # them into 432 cells by rounding
    @pytest.mark.parametrize(
        "family, params, cells", [("glued_trees", (9,), 51), ("hamming", (3, 12), 4)]
    )
    def test_pinned_counts(self, family, params, cells):
        g = make_entry(family, params).build()
        assert cell_count(g, 5) == cells


# walks of few cells and of one cell per vertex, each ending at its exact
# Krylov dimension: (graph, origin)
DENSE_CASES = {
    "glued_trees:5 from 3": (make_entry("glued_trees", (5,)).build(), 3),
    "petersen from 3": (make_entry("petersen").build(), 3),
    "hamming:3,4 from 7": (make_entry("hamming", (3, 4)).build(), 7),
    "path:64 from 5": (path_graph(64), 5),
    "path:9 from 1": (path_graph(9), 1),
    "random n=60": (random_graph(np.random.default_rng(60), 60), 17),
    "random tree n=40": (random_graph(np.random.default_rng(104), 40, tree_only=True), 0),
    "grid 5x6 from 0": (build_graph(30, grid_edges(5, 6)), 0),
}


def jacobi_log(caplog, reduce, *args):
    """What ``reduce(*args)`` returns, and the messages ``ctqw.jacobi`` logs."""
    with caplog.at_level(logging.INFO, logger="ctqw.jacobi"):
        out = reduce(*args)
    return out, [r.getMessage() for r in caplog.records if r.name == "ctqw.jacobi"]


class TestHouseholder:
    """LAPACK's Householder tridiagonalization of the symmetrized quotient."""

    @pytest.mark.parametrize("case", DENSE_CASES)
    def test_matches_lanczos(self, case):
        g, origin = DENSE_CASES[case]
        want = two_pass_lanczos(g, vertex_state(g.n, origin))
        jc, q = reduce_walk(g, origin, basis=True)
        assert jc.dim == want.dim == krylov_rank(g, origin)
        assert np.abs(np.subtract(jc.alpha, want.alpha)).max() <= 1e-10
        assert np.abs(np.subtract(jc.omega, want.omega)).max() <= 1e-10
        assert q.shape == (g.n, jc.dim)
        assert np.abs(q.T @ q - np.eye(jc.dim)).max() <= 1e-12
        diag, off = jc.tridiagonal()
        tri = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        aq = g.adjacency @ q
        residual = aq - q @ tri
        assert np.linalg.norm(residual[:, :-1]) <= 1e-12
        # the last column's is the off-diagonal the cutoff dropped
        cutoff = DEFLATION_TOL * g.adjacency.sum(axis=1).max()
        assert np.linalg.norm(residual[:, -1]) <= cutoff
        assert (np.diag(q.T @ aq, 1) > 0).all()
        # coefficients only: the same numbers, no basis
        assert reduce_walk(g, origin, basis=False) == (jc, None)

    @pytest.mark.parametrize("case", DENSE_CASES)
    def test_router_picks_by_cell_count(self, caplog, case):
        # the refinement's cell count sizes the quotient the reduction runs
        # on: no walk has more levels than cells, and one line says both
        g, origin = DENSE_CASES[case]
        cells = cell_count(g, origin)
        (jc, q), messages = jacobi_log(caplog, reduce_walk, g, origin, False)
        assert q is None and jc.dim <= cells
        assert messages == [f"origin {origin}: {cells} cells, dimension {jc.dim}"]

    @pytest.mark.parametrize("n", range(4, 21))
    def test_path_from_second_vertex_pattern(self, n):
        # test_10's pattern through the fallback: the BFS shells of a path
        # from its second vertex are not equitable (vertex 0 has no neighbour
        # one shell up), so the reduction takes every vertex as its own cell
        g = path_graph(n)
        jc, _ = reduce_partition(g, 1, equitable_quotient(g, 1, stratify(g, 1)), basis=False)
        expected = expected_path_omegas(n)
        assert len(jc.omega) == len(expected)
        assert np.abs(np.subtract(jc.omega, expected)).max() <= 1e-12
        assert np.abs(jc.alpha).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_and_two_vertices(self, n):
        # build_graph refuses n < 2; the reduction itself does not need it
        from scipy.sparse import csr_array

        g = Graph(csr_array(np.ones((n, n)) - np.eye(n)))
        for origin in range(n):
            want = np.eye(n)[:, [origin] + [v for v in range(n) if v != origin]]
            jc, basis = reduce_walk(g, origin, basis=True)
            assert jc == JacobiCoefficients((0.0,) * n, (1.0,) * (n - 1))
            assert np.array_equal(basis, want)

    def test_origin_out_of_range(self, petersen):
        # one check and one message for every reader of an origin
        for origin in (-1, 10):
            for call in (lambda: pipeline_for_graph(petersen, origin),
                         lambda: stratify(petersen, origin),
                         lambda: vertex_state(petersen.n, origin),
                         lambda: oracle_amplitudes(petersen, origin, [0.0])):
                with pytest.raises(InvalidParams, match=rf"^origin {origin} out of range for n=10$"):
                    call()

    @pytest.mark.parametrize("routine", ["dsytrd", "dorgqr"])
    def test_lapack_failure_raises(self, monkeypatch, routine):
        import scipy.linalg.lapack

        real = getattr(scipy.linalg.lapack, routine)

        def failing(*args, **kwargs):
            *out, _ = real(*args, **kwargs)
            return (*out, -3)

        monkeypatch.setattr(scipy.linalg.lapack, routine, failing)
        with pytest.raises(EigensolverFailure, match=r"\(LAPACK info -3\)"):
            reduce_walk(path_graph(6), 1, basis=True)


def test_non_equitable_colouring_reduces_the_discrete_partition(caplog):
    # a colouring the check refuses (as a hash collision in the refinement
    # would leave) gives the coefficients and basis of every vertex its own
    # cell, bit for bit, by the same code
    g = path_graph(9)
    discrete = np.arange(9)
    discrete[[0, 1]] = [1, 0]
    partition = equitable_quotient(g, 1, stratify(g, 1))
    assert np.array_equal(partition[0], discrete)
    got, messages = jacobi_log(caplog, reduce_partition, g, 1, partition, True)
    want = reduce_partition(g, 1, equitable_quotient(g, 1, discrete), True)
    assert got[0] == want[0] and np.array_equal(got[1], want[1])
    assert messages == ["origin 1: 9 cells, dimension 8"]


# every appendix row and family instance that states an intersection array
# and builds its graph
STATED_AND_BUILT = sorted(
    spec
    for spec in {make_entry(*fp).id for fp in CONSTRUCTIBLE_WITH_ARRAY}
    | {spec for spec, *_ in list_entries() if spec.startswith("appendix:")}
    if (entry := entry_from_spec(spec)).builder is not None and entry.intersection_array is not None
)


@pytest.mark.parametrize("spec", STATED_AND_BUILT)
def test_integer_quotient_is_the_stated_array(spec):
    # from vertex 0 the cells are the shells, and the edge counts between
    # them are the stated tridiagonal matrix times the shell sizes, exactly:
    # e_kk = s_k a_k, e_{k,k+1} = s_k b_k, e_{k+1,k} = s_{k+1} c_{k+1}
    entry = entry_from_spec(spec)
    g, ia = entry.build(), entry.intersection_array
    colour, e = equitable_cells(g, 0)
    assert np.array_equal(colour, stratify(g, 0))
    s = np.array(ia.shell_sizes())
    want = np.diag(s * ia.a) + np.diag(s[:-1] * ia.b, 1) + np.diag(s[1:] * ia.c, -1)
    assert np.array_equal(e, want)
    assert pipeline_for_graph(g, 0).kappa == ia.shell_sizes()


def test_reduction_leaves_the_partition_as_it_is():
    # the quotient is read-only int32, and the reduction scales a float64
    # copy of it
    pipe = pipeline_for_graph(make_entry("glued_trees", (5,)).build(), 3)
    _, e = pipe.partition
    assert e.dtype == np.int32
    before = e.copy()
    pipe.krylov()
    assert pipe.kappa is None and pipe.jc.dim == 21
    assert pipe.partition[1] is e and not e.flags.writeable and np.array_equal(e, before)


@pytest.mark.parametrize("origin", range(12, 18))
def test_quotient_caps_the_levels_on_the_grid(origin):
    # the middle row of P5 □ P6 is fixed by the mirror image across it, so a
    # walk from there has 18 cells, and 18 levels, its exact Krylov dimension
    grid = build_graph(30, grid_edges(5, 6))
    jc, _ = reduce_walk(grid, origin, basis=False)
    assert cell_count(grid, origin) == jc.dim == krylov_rank(grid, origin) == 18


def test_traced_peak_grows_like_the_graph():
    # the reduction holds O(m + n dim + cells^2), no n x n array: on
    # glued_trees:6..9 from vertex 5 (cells 33..51, dimension 31..47) each
    # doubling of n at most 2.5 times the traced peak, and under 2 MB at
    # n = 1534, where an (n, n) array alone takes 18.8 MB
    graphs = [make_entry("glued_trees", (d,)).build() for d in range(6, 10)]
    reduce_walk(graphs[0], 5, basis=True)  # imports stay out of the trace
    peaks = []
    for g in graphs:
        tracemalloc.start()
        try:
            reduce_walk(g, 5, basis=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (np.divide(peaks[1:], peaks[:-1]) <= 2.5).all(), peaks
    assert peaks[-1] <= 2e6, peaks


# The reduction may run past the exact Krylov dimension on rounding noise,
# but never past the cell count: this tree has 19 cells from vertex 0, and
# its 18 levels are exact.
def test_verify_passes_on_dense_routed_tree():
    tree = random_graph(np.random.default_rng(21), 24, tree_only=True)
    assert entry_status(pipeline_for_graph(tree, 0), np.linspace(0.0, 10.0, 201)).ok


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
            reason="ROADMAP item 2: from vertex 6 (30 cells) the reduction runs past the "
            "24-dimensional Krylov space (|e_23| = 2.15e-11) and the polynomial recursion "
            "of the series blows up on the noise levels",
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
