import networkx as nx
import numpy as np
import pytest

from ctqw.errors import (
    CtqwError,
    DisconnectedGraph,
    InvalidEdge,
    InvalidEdgeList,
    InvalidParams,
    NotDistanceRegular,
)
from ctqw.graphs import (
    IntersectionArray,
    all_pairs_distances,
    bfs_distances,
    build_graph,
    classify_qd,
    intersection_numbers,
    parse_edge_list,
    read_edge_list,
    stratify,
)


def random_connected_edges(rng, n, extra_edges):
    # random spanning tree plus extra chords: connected by construction
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    for _ in range(extra_edges):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.append((int(u), int(v)))
    return edges


def random_connected_graph(rng, n, extra_edges):
    return build_graph(n, random_connected_edges(rng, n, extra_edges))


def random_qd_edges(rng, depth, width):
    """Edges of a graph that is QD from vertex 0, under shuffled labels.

    Vertex 0 is joined to all of shell 1, consecutive shells of ``width``
    vertices by a random perfect matching, and each shell is one random cycle,
    so every vertex of shell k >= 1 has 1 neighbor down, 2 within and 1 up
    (none up in the last shell).
    """
    n = 1 + depth * width
    label = np.concatenate(([0], 1 + rng.permutation(n - 1)))
    shells = [np.array([0])] + [
        label[1 + k * width : 1 + (k + 1) * width] for k in range(depth)
    ]
    edges = [(0, int(v)) for v in shells[1]]
    for k in range(1, depth + 1):
        ring = rng.permutation(shells[k])
        edges += [(int(ring[i - 1]), int(ring[i])) for i in range(width)]
        if k < depth:
            edges += [(int(u), int(v)) for u, v in zip(shells[k], rng.permutation(shells[k + 1]))]
    return n, edges


def neighbor_counts_by_distance(h, source):
    """For every vertex v of networkx graph h: (distance from source,
    {distance: number of neighbors of v at that distance from source})."""
    dist = nx.single_source_shortest_path_length(h, source)
    out = {}
    for v in h:
        counts = {}
        for w in h[v]:
            counts[dist[w]] = counts.get(dist[w], 0) + 1
        out[v] = (dist[v], counts)
    return out


class TestBuildGraph:
    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        assert g.n == 2
        assert g.adjacency.toarray().tolist() == [[0, 1], [1, 0]]

    def test_petersen_is_cubic_with_diameter_2(self, petersen):
        assert all(petersen.degree(v) == 3 for v in range(10))
        assert all_pairs_distances(petersen).max() == 2

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            build_graph(4, [(0, 1), (2, 3)])

    def test_out_of_range_edge(self):
        with pytest.raises(InvalidEdge):
            build_graph(3, [(0, 3)])

    def test_self_loop(self):
        with pytest.raises(InvalidEdge):
            build_graph(3, [(1, 1)])

    def test_duplicate_edges_collapse(self):
        g = build_graph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_single_vertex_rejected(self):
        with pytest.raises(CtqwError):
            build_graph(1, [])

    def test_oversized_rejected(self):
        with pytest.raises(InvalidParams):
            build_graph(2001, [])

    @pytest.mark.filterwarnings("ignore::scipy.sparse.SparseEfficiencyWarning")
    def test_adjacency_is_read_only(self, petersen):
        a = petersen.adjacency
        assert not any(x.flags.writeable for x in (a.data, a.indices, a.indptr))
        with pytest.raises(ValueError):
            a[0, 1] = 0  # an edge
        assert a[0, 2] == 0
        with pytest.raises(ValueError):
            a[0, 2] = 1  # an insertion at a non-edge
        assert a.nnz == 30 and a[0, 1] == 1 and a[0, 2] == 0

    @pytest.mark.parametrize("n", [2, 9, 60, 200])
    def test_adjacency_matches_edge_list(self, rng, n):
        edges = random_connected_edges(rng, n, n)
        # repeated and reversed edges collapse to one entry per direction
        edges += [(v, u) for u, v in edges[: n // 2]] + edges[: n // 3]
        g = build_graph(n, edges)
        h = nx.Graph(edges)
        a = g.adjacency
        assert a.dtype == np.float64 and a.has_sorted_indices
        assert (a.toarray() == nx.to_numpy_array(h, nodelist=range(n))).all()
        assert g.edge_count == h.number_of_edges()
        assert [g.degree(v) for v in range(n)] == [h.degree(v) for v in range(n)]


class TestStratify:
    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_complete_graph_two_shells(self, n):
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        s = stratify(g, 2)
        assert s.kappa == (1, n - 1)
        assert s.shells[0] == (2,)

    def test_petersen_shell_sizes(self, petersen):
        for origin in range(10):
            assert stratify(petersen, origin).kappa == (1, 3, 6)

    def test_k2(self):
        s = stratify(build_graph(2, [(0, 1)]), 0)
        assert s.kappa == (1, 1)
        assert s.shell_of.tolist() == [0, 1]

    def test_shells_partition_vertices(self, petersen_strat):
        seen = sorted(v for shell in petersen_strat.shells for v in shell)
        assert seen == list(range(10))

    def test_bad_origin(self, petersen):
        with pytest.raises(InvalidParams):
            stratify(petersen, 10)

    def test_edges_stay_within_adjacent_shells(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 40))
            g = random_connected_graph(rng, n, int(rng.integers(0, 2 * n)))
            s = stratify(g, int(rng.integers(0, n)))
            a = g.adjacency
            for u in range(n):
                for v in a.indices[a.indptr[u] : a.indptr[u + 1]]:
                    assert abs(int(s.shell_of[u]) - int(s.shell_of[v])) <= 1


class TestDistanceMatrices:
    """The distance classes (d == i) of the all-pairs distance matrix d."""

    def test_k2(self):
        d = all_pairs_distances(build_graph(2, [(0, 1)]))
        assert (d == 0).astype(int).tolist() == [[1, 0], [0, 1]]
        assert (d == 1).astype(int).tolist() == [[0, 1], [1, 0]]

    def test_c4_antipodal(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        d = all_pairs_distances(g)
        assert d.max() == 2
        assert ((d == 1) == g.adjacency.toarray()).all()
        assert (d == 2).astype(int).tolist() == [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ]

    def test_petersen_row_sums(self, petersen):
        d = all_pairs_distances(petersen)
        assert ((d == 1).sum(axis=1) == 3).all()
        assert ((d == 2).sum(axis=1) == 6).all()

    def test_partition_of_all_pairs(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 25))
            g = random_connected_graph(rng, n, int(rng.integers(0, n)))
            d = all_pairs_distances(g)
            total = np.zeros((n, n), dtype=int)
            for i in range(int(d.max()) + 1):
                total += d == i
            assert (total == 1).all()
            assert ((d == 1) == g.adjacency.toarray()).all()


class TestDistancesAgainstNetworkx:
    """Distances and intersection arrays checked against networkx's own."""

    @pytest.mark.parametrize("n", [2, 7, 40, 120, 200])
    def test_single_source_and_all_pairs(self, rng, n):
        edges = random_connected_edges(rng, n, int(rng.integers(0, n)))
        g = build_graph(n, edges)
        h = nx.Graph(edges)
        d = all_pairs_distances(g)
        assert d.dtype == np.int64 and d.shape == (n, n)
        for source in range(n):
            want = np.zeros(n, dtype=np.int64)
            for v, k in nx.single_source_shortest_path_length(h, source).items():
                want[v] = k
            assert (bfs_distances(g, source) == want).all()
            assert (d[source] == want).all()

    @pytest.mark.parametrize("sizes", [(30, 25), (1, 9), (9, 1)])
    def test_two_components_rejected(self, rng, sizes):
        n0, n1 = sizes
        first = random_connected_edges(rng, n0, n0)
        second = [(u + n0, v + n0) for u, v in random_connected_edges(rng, n1, n1)]
        with pytest.raises(DisconnectedGraph):
            build_graph(n0 + n1, first + second)

    @pytest.mark.parametrize("spec", ["petersen", "hamming:3,4", "johnson:8,3", "cycle:9"])
    def test_intersection_numbers_match_networkx(self, spec):
        from ctqw import entry_from_spec

        g = entry_from_spec(spec).build()
        b, c = nx.intersection_array(nx.from_scipy_sparse_array(g.adjacency))
        ia = intersection_numbers(g)
        assert list(ia.b) == b
        assert list(ia.c) == c


class TestIntersectionNumbers:
    def test_petersen(self, petersen):
        ia = intersection_numbers(petersen)
        assert ia.b == (3, 2)
        assert ia.c == (1, 1)
        assert ia.a == (0, 0, 2)

    def test_c6(self):
        g = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
        ia = intersection_numbers(g)
        assert ia.b == (2, 1, 1)
        assert ia.c == (1, 1, 2)

    def test_p3_not_distance_regular(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(NotDistanceRegular) as excinfo:
            intersection_numbers(g)
        # witness carries two ordered pairs with differing counts
        witness = excinfo.value.witness
        assert witness is not None
        _, _, (u1, v1, c1), (u2, v2, c2) = witness
        assert c1 != c2

    # regular graphs pass the b_0 test and fail further out; seeds 6 and 5
    # give witness pairs whose counts differ from the reversed pairs' counts
    @pytest.mark.parametrize(
        "n, degree, seed", [(6, None, None), (40, None, None), (20, 3, 6), (60, 3, 5), (200, 3, 200)]
    )
    def test_witness_counts_match_networkx(self, rng, n, degree, seed):
        if degree is None:
            edges = random_connected_edges(rng, n, n)
        else:
            edges = list(nx.random_regular_graph(degree, n, seed=seed).edges())
        g = build_graph(n, edges)
        h = nx.Graph(edges)
        with pytest.raises(NotDistanceRegular) as excinfo:
            intersection_numbers(g)
        dist_i, kind, (u1, v1, c1), (u2, v2, c2) = excinfo.value.witness
        step = {"c": -1, "a": 0, "b": 1}[kind]
        assert c1 != c2
        for u, v, count in ((u1, v1, c1), (u2, v2, c2)):
            k, counts = neighbor_counts_by_distance(h, u)[v]
            assert k == dist_i
            assert counts.get(dist_i + step, 0) == count

    def test_shell_sizes_round_trip(self, petersen):
        ia = intersection_numbers(petersen)
        assert ia.shell_sizes() == (1, 3, 6)
        assert ia.vertex_count == 10

    def test_array_validation(self):
        with pytest.raises(InvalidParams):
            IntersectionArray.from_bc((3, 2), (2, 1))  # c_1 != 1
        with pytest.raises(InvalidParams):
            IntersectionArray.from_bc((1, 2), (1, 1))  # a_1 negative


class TestClassifyQD:
    def test_petersen_all_origins(self, petersen):
        for origin in range(10):
            cls = classify_qd(petersen, stratify(petersen, origin))
            assert cls
            assert cls.within_counts == (0, 0, 2)
            assert cls.up_counts == (3, 2, 0)
            assert cls.down_counts == (0, 1, 1)

    def test_path_from_second_vertex_non_qd(self):
        g = build_graph(5, [(i, i + 1) for i in range(4)])
        cls = classify_qd(g, stratify(g, 1))
        assert not cls
        assert cls.witness is not None
        shell, direction, va, ca, vb, cb = cls.witness
        assert ca != cb

    def test_star_from_center(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        cls = classify_qd(g, stratify(g, 0))
        assert cls
        assert cls.up_counts == (3, 0)
        assert cls.down_counts == (0, 1)

    @pytest.mark.parametrize("depth, width", [(2, 3), (5, 8), (11, 18)])
    def test_qd_counts_match_networkx(self, rng, depth, width):
        n, edges = random_qd_edges(rng, depth, width)
        g = build_graph(n, edges)
        want = neighbor_counts_by_distance(nx.Graph(edges), 0)
        cls = classify_qd(g, stratify(g, 0))
        assert cls
        for v, (k, counts) in want.items():
            assert cls.down_counts[k] == counts.get(k - 1, 0)
            assert cls.within_counts[k] == counts.get(k, 0)
            assert cls.up_counts[k] == counts.get(k + 1, 0)

    @pytest.mark.parametrize("n", [20, 90, 200])
    def test_non_qd_witness_matches_networkx(self, rng, n):
        edges = random_connected_edges(rng, n, int(rng.integers(1, n)))
        g = build_graph(n, edges)
        h = nx.Graph(edges)
        for origin in rng.choice(n, size=4, replace=False):
            cls = classify_qd(g, stratify(g, int(origin)))
            assert not cls
            shell, direction, va, ca, vb, cb = cls.witness
            step = {"down": -1, "within": 0, "up": 1}[direction]
            assert ca != cb
            want = neighbor_counts_by_distance(h, int(origin))
            for v, count in ((va, ca), (vb, cb)):
                k, counts = want[v]
                assert k == shell
                assert counts.get(shell + step, 0) == count

    def test_distance_regular_implies_qd(self):
        from ctqw import make_entry

        for spec in ["complete:6", "cycle:8", "cycle:9", "petersen", "johnson:6,2", "hamming:2,3"]:
            family, _, params = spec.partition(":")
            entry = make_entry(family, tuple(int(p) for p in params.split(",")) if params else ())
            g = entry.build()
            intersection_numbers(g)  # raises if not DRG
            for origin in range(0, g.n, max(1, g.n // 3)):
                assert classify_qd(g, stratify(g, origin))


class TestEdgeListFormat:
    def test_round_trip(self, tmp_path):
        text = "# toy triangle\n3 3\n0 1\n1 2\n2 0\n"
        path = tmp_path / "tri.edges"
        path.write_text(text)
        g = read_edge_list(path)
        assert g.n == 3 and g.edge_count == 3

    def test_comments_and_blanks(self):
        n, edges = parse_edge_list("\n# c\n2 1\n\n0 1\n")
        assert n == 2 and edges == [(0, 1)]

    def test_missing_file(self):
        with pytest.raises(InvalidEdgeList):
            read_edge_list("/nonexistent/file.edges")

    @pytest.mark.parametrize(
        "text",
        ["", "2\n0 1\n", "2 2\n0 1\n", "2 1\n0 x\n", "2 1\n0 1 2\n"],
    )
    def test_malformed(self, text):
        with pytest.raises(InvalidEdgeList):
            parse_edge_list(text)
