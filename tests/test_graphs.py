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
    distance_matrices,
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


class TestBuildGraph:
    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        assert g.n == 2
        assert g.adjacency.tolist() == [[0, 1], [1, 0]]

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

    def test_adjacency_is_read_only(self, petersen):
        with pytest.raises(ValueError):
            petersen.adjacency[0, 1] = 0


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
            for u in range(n):
                for v in g.neighbors[u]:
                    assert abs(int(s.shell_of[u]) - int(s.shell_of[v])) <= 1


class TestDistanceMatrices:
    def test_k2(self):
        mats = distance_matrices(build_graph(2, [(0, 1)]))
        assert mats[0].tolist() == [[1, 0], [0, 1]]
        assert mats[1].tolist() == [[0, 1], [1, 0]]

    def test_c4_antipodal(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        mats = distance_matrices(g)
        assert len(mats) == 3
        assert (mats[1] == g.adjacency).all()
        assert mats[2].tolist() == [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ]

    def test_petersen_row_sums(self, petersen):
        mats = distance_matrices(petersen)
        assert (mats[1].sum(axis=1) == 3).all()
        assert (mats[2].sum(axis=1) == 6).all()

    def test_partition_of_all_pairs(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 25))
            g = random_connected_graph(rng, n, int(rng.integers(0, n)))
            mats = distance_matrices(g)
            total = np.zeros((n, n), dtype=int)
            for m in mats:
                total += m
            assert (total == 1).all()
            assert (mats[1] == g.adjacency).all()


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
        b, c = nx.intersection_array(nx.from_numpy_array(g.adjacency))
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
