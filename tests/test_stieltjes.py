import json
import warnings

import networkx as nx
import numpy as np
import pytest

from ctqw import build_graph, classify_qd, make_entry, stratify
from ctqw.errors import InvalidParams, PoleProximity
from ctqw.jacobi import JacobiCoefficients
from ctqw.stieltjes import (
    MERGE_TOL,
    SpectralMeasure,
    orthonormal_values,
    spectral_measure,
    stieltjes_continued_fraction,
    stieltjes_pole_sum,
)
from ctqw.verify import pipeline_for_entry, pipeline_for_graph

PETERSEN_JC = JacobiCoefficients(alpha=(0.0, 0.0, 2.0), omega=(3.0, 2.0))


def monic_poly(jc, k, x):
    """Reference Q_k(x): Q_0 = 1, Q_{j+1} = (x - alpha_j) Q_j - omega_j Q_{j-1}.

    At k = jc.dim this is the characteristic polynomial of the tridiagonal
    operator, vanishing at the measure nodes.
    """
    p_prev, p_cur = x * 0 + 1.0, x - jc.alpha[0]
    if k == 0:
        return p_prev
    for j in range(1, k):
        p_cur, p_prev = (x - jc.alpha[j]) * p_cur - jc.omega[j - 1] * p_prev, p_cur
    return p_cur


def associated_poly(jc, k, x):
    """Reference first-associated polynomial R_k(x), the characteristic
    polynomial of the trailing principal blocks: R_0 = 1, R_1 = x - alpha_1,
    R_{j+1} = (x - alpha_{j+1}) R_j - omega_{j+1} R_{j-1}, so that the
    Stieltjes function equals R_{dim-1} / Q_dim.
    """
    p_prev = x * 0 + 1.0
    if k == 0:
        return p_prev
    p_cur = x - jc.alpha[1]
    for j in range(1, k):
        p_cur, p_prev = (x - jc.alpha[j + 1]) * p_cur - jc.omega[j] * p_prev, p_cur
    return p_cur


# diverse sample of catalog coefficient sources for the property checks
PROPERTY_SPECS = [
    ("petersen", ()),
    ("complete", (2,)),
    ("complete", (3,)),
    ("complete", (17,)),
    ("cycle", (8,)),
    ("cycle", (9,)),
    ("cycle", (13,)),
    ("johnson", (7, 2)),
    ("hamming", (3, 3)),
    ("dihedral_srg", (4,)),
    ("path", (9,)),
    ("glued_trees", (2,)),
    ("tchebichef1", (5, 2)),
    ("tchebichef2", (6, 1.5)),
    ("srg", (16, 5, 0, 2)),
    ("appendix", ("icosahedron",)),
    ("appendix", ("desargues",)),
    ("appendix", ("coxeter",)),
    ("appendix", ("gosset",)),
    ("appendix", ("j84",)),
]


def property_jcs():
    return [pipeline_for_entry(make_entry(f, p)).jc for f, p in PROPERTY_SPECS]


# two blocks coupled by a vanishing omega give eigenvalue pairs at +-1 split
# far below the merge tolerance
NEAR_DEGENERATE_JC = JacobiCoefficients(alpha=(0.0,) * 4, omega=(1.0, 1e-30, 1.0))


def coupled_blocks(copies):
    """``copies`` copies of one 3 x 3 block coupled by vanishing omegas: each
    of the block's three eigenvalues becomes a group of ``copies`` nodes split
    far below the merge tolerance."""
    return JacobiCoefficients(
        alpha=(0.3, -1.2, 0.5) * copies, omega=((1.0, 2.0, 1e-30) * copies)[:-1]
    )


def reference_measure(jc):
    """(nodes, weights) merged the way ``spectral_measure`` once did:
    a loop over the ascending nodes and one ``np.sum`` per group, and the
    1 x 1 case apart."""
    import scipy.linalg

    diag, off = jc.tridiagonal()
    if jc.dim == 1:
        return (float(diag[0]),), (1.0,)
    vals, vecs = scipy.linalg.eigh_tridiagonal(diag, off)
    weights = vecs[0, :] ** 2
    weights = weights / weights.sum()
    gap_tol = MERGE_TOL * float(vals[-1] - vals[0])
    nodes_out, weights_out = [], []
    i, n = 0, len(vals)
    while i < n:
        j = i
        while j + 1 < n and vals[j + 1] - vals[j] < gap_tol:
            j += 1
        w = float(weights[i : j + 1].sum())
        nodes_out.append(float((vals[i : j + 1] * weights[i : j + 1]).sum() / w))
        weights_out.append(w)
        i = j + 1
    return tuple(nodes_out), tuple(weights_out)


def bits(xs):
    """Exact representations: tells -0.0 from 0.0."""
    return [float(x).hex() for x in xs]


MERGE_CASES = {
    **{f"{f}{list(p)}": jc for (f, p), jc in zip(PROPERTY_SPECS, property_jcs())},
    "near-degenerate": NEAR_DEGENERATE_JC,
    **{f"blocks-x{k}": coupled_blocks(k) for k in range(2, 8)},
    "1x1": JacobiCoefficients(alpha=(0.5,), omega=()),
}


def random_offaxis_points(rng, jc, count=100):
    scale = 1.0 + max(abs(a) for a in jc.alpha) + max(jc.omega)
    x = rng.uniform(-scale, scale, size=count)
    y = rng.uniform(0.1, 2.0, size=count) * rng.choice([-1.0, 1.0], size=count)
    return x + 1j * y


class TestPolynomials:
    def test_degree_zero_and_one(self):
        for jc in property_jcs():
            assert monic_poly(jc, 0, 0.7) == 1.0
            # every catalog family has alpha_0 = 0, so Q_1(x) = x
            assert monic_poly(jc, 1, 0.7) == pytest.approx(0.7, abs=1e-15)
            assert associated_poly(jc, 0, 0.7) == 1.0

    def test_petersen_q2(self):
        for x in (-2.0, 0.3, 1.0, 4.5):
            assert monic_poly(PETERSEN_JC, 2, x) == pytest.approx(x * x - 3.0, abs=1e-12)

    def test_petersen_q3_vanishes_at_spectrum(self):
        # Q_3 = (x - 3)(x - 1)(x + 2)
        assert monic_poly(PETERSEN_JC, 3, 3.0) == pytest.approx(0.0, abs=1e-12)
        for x in (-3.0, 0.5, 2.0):
            want = (x - 3.0) * (x - 1.0) * (x + 2.0)
            assert monic_poly(PETERSEN_JC, 3, x) == pytest.approx(want, abs=1e-12)

    def test_associated_ratio_equals_continued_fraction(self, rng):
        # R_{dim-1}(z) / Q_dim(z) is the ratio form of the resolvent
        for jc in property_jcs():
            if jc.dim > 12:
                continue  # monic values overflow usefulness at large depth
            for z in random_offaxis_points(rng, jc, count=20):
                ratio = associated_poly(jc, jc.dim - 1, z) / monic_poly(jc, jc.dim, z)
                cf = stieltjes_continued_fraction(jc, z)
                assert abs(ratio - cf) < 1e-10 * (1.0 + abs(cf))

    def test_orthonormal_matches_scaled_monic(self):
        jc = pipeline_for_entry(make_entry("appendix", ("icosahedron",))).jc
        xs = np.array([-2.3, 0.4, 1.9])
        values = orthonormal_values(jc, xs)
        norm = 1.0
        for level in range(jc.dim):
            if level > 0:
                norm *= np.sqrt(jc.omega[level - 1])
            want = np.array([monic_poly(jc, level, x) for x in xs]) / norm
            assert np.allclose(values[level], want, atol=1e-12)

    def test_orthonormal_rows_are_orthonormal_under_measure(self):
        for jc in property_jcs():
            m = spectral_measure(jc)
            if m.size != jc.dim:
                continue
            p = orthonormal_values(jc, m.nodes_array())
            gram = (p * m.weights_array()[None, :]) @ p.T
            assert np.abs(gram - np.eye(jc.dim)).max() < 1e-9


class TestContinuedFraction:
    def test_k3_value(self):
        jc = pipeline_for_entry(make_entry("complete", (3,))).jc
        assert stieltjes_continued_fraction(jc, 3.0) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_kn_closed_form(self, n, rng):
        jc = pipeline_for_entry(make_entry("complete", (n,))).jc
        for z in random_offaxis_points(rng, jc, count=10):
            want = (z - n + 2) / (z * z - (n - 2) * z - n + 1)
            assert abs(stieltjes_continued_fraction(jc, z) - want) < 1e-12 * (1 + abs(want))

    def test_total_mass_at_large_z(self):
        for jc in property_jcs():
            z = 1e9
            assert abs(z * stieltjes_continued_fraction(jc, z) - 1.0) < 1e-6

    def test_pole_proximity_detected(self):
        with pytest.raises(PoleProximity):
            stieltjes_continued_fraction(PETERSEN_JC, 3.0)

    def test_matches_pole_sum_everywhere(self, rng):
        for jc in property_jcs():
            measure = spectral_measure(jc)
            for z in random_offaxis_points(rng, jc, count=100):
                cf = stieltjes_continued_fraction(jc, z)
                ps = stieltjes_pole_sum(measure, z)
                assert abs(cf - ps) < 1e-10 * (1.0 + abs(cf))


class TestSpectralMeasure:
    def test_petersen(self):
        m = spectral_measure(PETERSEN_JC)
        assert np.allclose(m.nodes, (-2.0, 1.0, 3.0), atol=1e-12)
        assert np.allclose(m.weights, (0.4, 0.5, 0.1), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 7, 50])
    def test_complete(self, n):
        m = spectral_measure(pipeline_for_entry(make_entry("complete", (n,))).jc)
        assert np.allclose(m.nodes, (-1.0, n - 1.0), atol=1e-12)
        assert np.allclose(m.weights, ((n - 1) / n, 1 / n), atol=1e-13)

    def test_single_atom(self):
        m = spectral_measure(JacobiCoefficients(alpha=(0.5,), omega=()))
        assert m.nodes == (0.5,) and m.weights == (1.0,)

    def test_moment_identities(self):
        for jc in property_jcs():
            m = spectral_measure(jc)
            x = m.nodes_array()
            w = m.weights_array()
            assert abs((w * x).sum() - jc.alpha[0]) < 1e-10
            assert abs((w * x * x).sum() - (jc.alpha[0] ** 2 + jc.omega[0])) < 1e-10

    def test_near_degenerate_nodes_merge(self):
        m = spectral_measure(NEAR_DEGENERATE_JC)
        assert m.size == 2
        assert np.allclose(m.nodes, (-1.0, 1.0), atol=1e-12)
        assert np.allclose(m.weights, (0.5, 0.5), atol=1e-12)

    @pytest.mark.parametrize("jc", MERGE_CASES.values(), ids=MERGE_CASES.keys())
    def test_one_pass_merge_matches_loop(self, jc):
        m = spectral_measure(jc)
        nodes, weights = reference_measure(jc)
        assert bits(m.nodes) == bits(nodes)
        assert bits(m.weights) == bits(weights)

    @pytest.mark.parametrize("copies", range(2, 8))
    def test_coupled_blocks_merge_to_one_node_per_eigenvalue(self, copies):
        assert spectral_measure(coupled_blocks(copies)).size == 3

    def test_negative_zero_node_comes_out_positive(self, monkeypatch):
        import scipy.linalg

        # an eigensolver that returns -0.0; only row 0 of the vectors is read
        vals, vecs = np.array([-1.0, -0.0, 1.0]), np.sqrt([[0.25, 0.5, 0.25]] * 3)
        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", lambda d, e: (vals, vecs))
        jc = JacobiCoefficients(alpha=(0.0,) * 3, omega=(1.0, 1.0))
        nodes, _ = reference_measure(jc)
        assert bits(spectral_measure(jc).nodes) == bits(nodes) == bits([-1.0, 0.0, 1.0])

    def test_massless_nodes_are_dropped(self):
        # the first components of the (5, 5) block's eigenvectors square to
        # 0.0 across the 1e-100 coupling: those nodes lie outside the support
        jc = JacobiCoefficients(alpha=(0.0, 0.0, 5.0, 5.0), omega=(1.0, 1e-200, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = spectral_measure(jc)
        assert m.nodes == pytest.approx((-1.0, 1.0), abs=1e-12)
        assert m.weights == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_interlacing(self):
        for jc in property_jcs():
            if jc.dim < 2:
                continue
            outer = spectral_measure(jc).nodes
            leading = JacobiCoefficients(jc.alpha[:-1], jc.omega[:-1])
            inner = spectral_measure(leading).nodes
            if len(outer) != jc.dim or len(inner) != jc.dim - 1:
                continue
            for i, x in enumerate(inner):
                assert outer[i] < x < outer[i + 1]

    def test_monic_vanishes_at_nodes(self):
        for jc in property_jcs():
            if jc.dim > 12:
                continue
            nodes = spectral_measure(jc).nodes_array()
            for l, x in enumerate(nodes):
                others = np.delete(nodes, l)
                scale = np.prod(np.abs(x - others))
                assert abs(monic_poly(jc, jc.dim, x)) < 1e-8 * scale

    def test_residue_formula_small_depth(self):
        # A_l = R_{dim-1}(x_l) / prod_{m != l}(x_l - x_m), the algebraic limit
        for spec, params in [("petersen", ()), ("complete", (4,)), ("cycle", (6,))]:
            jc = pipeline_for_entry(make_entry(spec, params)).jc
            m = spectral_measure(jc)
            nodes = m.nodes_array()
            for l, x in enumerate(nodes):
                others = np.delete(nodes, l)
                residue = associated_poly(jc, jc.dim - 1, x) / np.prod(x - others)
                assert residue == pytest.approx(m.weights[l], abs=1e-10)

    def test_residue_numeric_limit(self):
        # (x - x_l) G(x) -> A_l, Richardson-extrapolated from two offsets
        jc = PETERSEN_JC
        m = spectral_measure(jc)
        for l, x in enumerate(m.nodes):
            vals = []
            for delta in (1e-5, 5e-6):
                z = x + delta
                vals.append(delta * stieltjes_continued_fraction(jc, z))
            extrap = 2 * vals[1] - vals[0]
            assert extrap == pytest.approx(m.weights[l], abs=1e-9)

    def test_validation(self):
        with pytest.raises(InvalidParams):
            SpectralMeasure(nodes=(0.0, 0.0), weights=(0.5, 0.5))
        with pytest.raises(InvalidParams):
            SpectralMeasure(nodes=(0.0, 1.0), weights=(0.9, 0.2))
        with pytest.raises(InvalidParams):
            SpectralMeasure(nodes=(0.0,), weights=(-1.0,))

    def test_json_round_trip(self):
        m = spectral_measure(PETERSEN_JC)
        back = json.loads(m.to_json())
        assert back == {"nodes": list(m.nodes), "weights": list(m.weights)}


class TestPoleSum:
    def test_petersen_at_4(self):
        m = spectral_measure(PETERSEN_JC)
        assert stieltjes_pole_sum(m, 4.0) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_single_atom_at_origin(self):
        m = SpectralMeasure(nodes=(0.0,), weights=(1.0,))
        assert stieltjes_pole_sum(m, 2.0) == pytest.approx(0.5)

    def test_k4_at_zero(self):
        m = spectral_measure(pipeline_for_entry(make_entry("complete", (4,))).jc)
        assert stieltjes_pole_sum(m, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_pole_proximity(self):
        m = spectral_measure(PETERSEN_JC)
        with pytest.raises(PoleProximity):
            stieltjes_pole_sum(m, m.nodes[1] + 1e-14)


    def test_array_matches_each_point(self, rng):
        # the emit_series points on its walk, and off-axis points on random measures
        emit = [complex(f"{x:.6f}+0.25j") for x in np.linspace(-2.5, 2.5, 801)]
        jc = pipeline_for_entry(make_entry("tchebichef2", (400, 1))).jc
        cases = [(spectral_measure(jc), emit)]
        for size in (1, 2, 7, 64, 300):
            nodes = np.unique(rng.uniform(-5.0, 5.0, size))
            weights = rng.uniform(0.1, 1.0, nodes.size)
            m = SpectralMeasure(tuple(nodes.tolist()), tuple((weights / weights.sum()).tolist()))
            points = rng.uniform(-6.0, 6.0, 100) + 1j * rng.uniform(-2.0, 2.0, 100)
            cases.append((m, points.tolist()))
        for m, points in cases:
            # the per-point sum the CLI made before it summed all points at once
            want = [complex(np.sum(m.weights_array() / (z - m.nodes_array()))) for z in points]
            got = stieltjes_pole_sum(m, np.array(points)).tolist()
            assert bits([g.real for g in got]) == bits([w.real for w in want])
            assert bits([g.imag for g in got]) == bits([w.imag for w in want])
            assert [stieltjes_pole_sum(m, z) for z in points] == got

    def test_array_refuses_its_first_bad_point(self):
        m = spectral_measure(PETERSEN_JC)
        node = m.nodes[1]
        with pytest.raises(PoleProximity, match="is a spectral node"):
            stieltjes_pole_sum(m, [4.0, node, np.nan, node + 1e-14])
        with pytest.raises(InvalidParams, match="is not finite"):
            stieltjes_pole_sum(m, [4.0, np.nan, node, node + 1e-14])
        with pytest.raises(PoleProximity, match="is too close to a spectral node"):
            stieltjes_pole_sum(m, [4.0, node + 1e-14, node, np.nan])


def test_both_routes_share_the_pole_rule():
    # one rule for both routes, |1/G| < 1e-9 (1 + |z|): near the node at 1
    # (weight 1/2) that is a distance of about 4e-9
    m = spectral_measure(PETERSEN_JC)
    for z in (1 + 1e-10, 1 + 1e-10j):
        with pytest.raises(PoleProximity):
            stieltjes_continued_fraction(PETERSEN_JC, z)
        with pytest.raises(PoleProximity):
            stieltjes_pole_sum(m, z)
    for z in (1 + 1e-6, 1 + 1e-6j):
        cf = stieltjes_continued_fraction(PETERSEN_JC, z)
        assert abs(cf - stieltjes_pole_sum(m, z)) < 1e-6 * abs(cf)


@pytest.mark.parametrize("z", [np.nan, np.inf, complex(1.0, -np.inf), complex(0.5, np.nan)])
def test_both_routes_refuse_non_finite_points(z):
    m = spectral_measure(PETERSEN_JC)
    with pytest.raises(InvalidParams, match="is not finite"):
        stieltjes_continued_fraction(PETERSEN_JC, z)
    with pytest.raises(InvalidParams, match="is not finite"):
        stieltjes_pole_sum(m, z)


def seeded_random_edges(n, seed):
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    while len(edges) < 2 * n:
        u, v = sorted(int(x) for x in rng.integers(0, n, 2))
        if u != v:
            edges.add((u, v))
    return nx.Graph(sorted(edges))


MOMENT_CASES = [
    # (id, graph, origin, QD verdict at that origin)
    ("petersen", nx.petersen_graph(), 7, True),
    ("dodecahedron", nx.dodecahedral_graph(), 11, True),
    ("hypercube-4", nx.convert_node_labels_to_integers(nx.hypercube_graph(4)), 0, True),
    ("path-9-end", nx.path_graph(9), 0, True),
    ("path-9-second", nx.path_graph(9), 1, False),
    ("lollipop-5-4", nx.lollipop_graph(5, 4), 6, False),
    ("random-20", seeded_random_edges(20, 20), 0, False),
    ("random-40", seeded_random_edges(40, 40), 29, False),
]


@pytest.mark.parametrize("name, h, origin, qd", MOMENT_CASES, ids=[c[0] for c in MOMENT_CASES])
def test_moments_count_closed_walks(name, h, origin, qd):
    # sum_i w_i x_i^k = (A^k)_{oo}, the number of closed k-walks at the
    # origin, from integer powers of an adjacency the test builds itself
    n = h.number_of_nodes()
    adjacency = nx.to_numpy_array(h, nodelist=range(n), dtype=np.int64)
    g = build_graph(n, list(h.edges()))
    assert (classify_qd(g, stratify(g, origin)) is None) == qd
    measure = pipeline_for_graph(g, origin).measure
    x, w = measure.nodes_array(), measure.weights_array()
    power = np.eye(n, dtype=np.int64)
    for k in range(12):
        want = int(power[origin, origin])
        # relative to sum w |x|^k, since odd moments of bipartite graphs vanish
        scale = max(float(np.sum(w * np.abs(x) ** k)), 1.0)
        assert abs(float(np.sum(w * x**k)) - want) <= 1e-10 * scale, k
        power = power @ adjacency
