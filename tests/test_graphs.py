import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from ctqw import entry_from_spec, make_entry
from ctqw.errors import (
    CtqwError,
    DisconnectedGraph,
    InvalidEdge,
    InvalidEdgeList,
    InvalidParams,
)
from ctqw.graphs import (
    Graph,
    IntersectionArray,
    build_graph,
    intersection_numbers,
    parse_edge_list,
    read_edge_list,
    stratify,
)
from ctqw.verify import Pipeline
from conftest import connected_graphs, grid_edges, shells_equitable
from test_catalog import CONSTRUCTIBLE_WITH_ARRAY

# four distance-regular graphs, then every catalog entry that has both a
# construction and a stored intersection array
NETWORKX_ARRAY_SPECS = ["petersen", "hamming:3,4", "johnson:8,3", "cycle:9"]
NETWORKX_ARRAY_SPECS += [
    spec
    for spec in (make_entry(family, params).id for family, params in CONSTRUCTIBLE_WITH_ARRAY)
    if spec not in NETWORKX_ARRAY_SPECS
]


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


def distance_rows(g):
    """The (n, n) distances of all pairs: one ``stratify`` row per source."""
    return np.stack([stratify(g, source) for source in range(g.n)])


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
        assert (np.diff(petersen.adjacency.indptr) == 3).all()
        assert distance_rows(petersen).max() == 2

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            build_graph(4, [(0, 1), (2, 3)])

    def test_disconnected_names_lowest_vertex_outside_origin_component(self):
        seen = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 30))
            pairs = (rng.choice(n, 2, replace=False) for _ in range(n // 2 + 1))
            edges = [(int(u), int(v)) for u, v in pairs]
            h = nx.Graph(edges)
            h.add_nodes_from(range(n))
            outside = sorted(set(range(n)) - nx.node_connected_component(h, 0))
            if not outside:
                assert build_graph(n, edges).n == n
                continue
            seen += 1
            with pytest.raises(DisconnectedGraph) as err:
                build_graph(n, edges)
            assert str(err.value) == f"vertex {outside[0]} not reachable from vertex 0"
        assert seen >= 40

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

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (1, 2, 0), (0, 9)], "edge (1, 2, 0) is not a vertex pair"),
            ([(0, 1), 7, (1, 1)], "edge 7 is not a vertex pair"),
            ([(0, 1), (2, 2), (0, 9)], "self-loop at vertex 2"),
            ([(0, 1), (0, 9), (2, 2)], "edge (0, 9) out of range for n=3"),
            ([(0, 1), (-1, 1)], "edge (-1, 1) out of range for n=3"),
            ([(0, 1), (0, 10**30)], f"edge (0, {10**30}) out of range for n=3"),
            (np.array([[0, 1], [2, 2]]), "self-loop at vertex 2"),
        ],
        ids=["triple", "scalar", "loop-first", "range-first", "negative", "huge", "array"],
    )
    def test_first_bad_edge_named_in_input_order(self, edges, message):
        with pytest.raises(InvalidEdge) as err:
            build_graph(3, edges)
        assert str(err.value) == message

    def test_complete_2000_builds_in_bounded_memory(self):
        # the CSR adjacency of K_2000 is 48 MB; the edge list goes through
        # arrays, never ~2M Python tuples. A child process, so that the peak
        # RSS (ru_maxrss, KiB on Linux) belongs to this build alone.
        probe = (
            "import resource; from ctqw import entry_from_spec; "
            "entry_from_spec('complete:5').build(); "
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
            "entry_from_spec('complete:2000').build(); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert int(out.stdout) < 300 * 1024

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
        assert np.diff(a.indptr).tolist() == [h.degree(v) for v in range(n)]
        # the radius of the oracle and the cutoff of the reductions, bit for
        # bit the largest row sum
        assert g.max_degree == max(d for _, d in h.degree)
        assert float(g.max_degree) == float(a.sum(axis=1).max())


class TestStratify:
    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_complete_graph_two_shells(self, n):
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        shell_of = stratify(g, 2)
        assert tuple(np.bincount(shell_of).tolist()) == (1, n - 1)
        assert np.flatnonzero(shell_of == 0).tolist() == [2]

    def test_petersen_shell_sizes(self, petersen):
        for origin in range(10):
            assert tuple(np.bincount(stratify(petersen, origin)).tolist()) == (1, 3, 6)

    def test_k2(self):
        shell_of = stratify(build_graph(2, [(0, 1)]), 0)
        assert tuple(np.bincount(shell_of).tolist()) == (1, 1)
        assert shell_of.tolist() == [0, 1]

    def test_shells_partition_vertices(self, petersen_shell_of):
        levels = range(len(np.bincount(petersen_shell_of)))
        seen = sorted(v for k in levels for v in np.flatnonzero(petersen_shell_of == k))
        assert seen == list(range(10))

    def test_unreachable_component_marked(self):
        a = np.zeros((6, 6))
        for u, v in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]:
            a[u, v] = a[v, u] = 1.0
        g = Graph(csr_array(a))
        assert stratify(g, 0).tolist() == [0, 1, 1, -1, -1, -1]
        assert stratify(g, 4).tolist() == [-1, -1, -1, 1, 0, 1]
        assert stratify(g, 4).dtype == np.int64

    def test_bad_origin(self, petersen):
        with pytest.raises(InvalidParams):
            stratify(petersen, 10)

    def test_edges_stay_within_adjacent_shells(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 40))
            g = random_connected_graph(rng, n, int(rng.integers(0, 2 * n)))
            shell_of = stratify(g, int(rng.integers(0, n)))
            a = g.adjacency
            for u in range(n):
                for v in a.indices[a.indptr[u] : a.indptr[u + 1]]:
                    assert abs(int(shell_of[u]) - int(shell_of[v])) <= 1


class TestDistanceMatrices:
    """The distance classes (d == i) of the stacked single-source rows d."""

    def test_k2(self):
        d = distance_rows(build_graph(2, [(0, 1)]))
        assert (d == 0).astype(int).tolist() == [[1, 0], [0, 1]]
        assert (d == 1).astype(int).tolist() == [[0, 1], [1, 0]]

    def test_c4_antipodal(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        d = distance_rows(g)
        assert d.max() == 2
        assert ((d == 1) == g.adjacency.toarray()).all()
        assert (d == 2).astype(int).tolist() == [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ]

    def test_petersen_row_sums(self, petersen):
        d = distance_rows(petersen)
        assert ((d == 1).sum(axis=1) == 3).all()
        assert ((d == 2).sum(axis=1) == 6).all()

    def test_partition_of_all_pairs(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 25))
            g = random_connected_graph(rng, n, int(rng.integers(0, n)))
            d = distance_rows(g)
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
        d = distance_rows(g)
        assert d.dtype == np.int64 and d.shape == (n, n)
        for source in range(n):
            want = np.zeros(n, dtype=np.int64)
            for v, k in nx.single_source_shortest_path_length(h, source).items():
                want[v] = k
            assert (stratify(g, source) == want).all()
            assert (d[source] == want).all()

    @pytest.mark.parametrize("sizes", [(30, 25), (1, 9), (9, 1)])
    def test_two_components_rejected(self, rng, sizes):
        n0, n1 = sizes
        first = random_connected_edges(rng, n0, n0)
        second = [(u + n0, v + n0) for u, v in random_connected_edges(rng, n1, n1)]
        with pytest.raises(DisconnectedGraph):
            build_graph(n0 + n1, first + second)

    @pytest.mark.parametrize("spec", NETWORKX_ARRAY_SPECS)
    def test_intersection_numbers_match_networkx(self, spec):
        """Both the computed and the stored array of the entry against
        networkx's array of the built graph."""
        entry = entry_from_spec(spec)
        g = entry.build()
        b, c = nx.intersection_array(nx.from_scipy_sparse_array(g.adjacency))
        for ia in (intersection_numbers(g), entry.intersection_array):
            assert (list(ia.b), list(ia.c)) == (b, c)


def random_cubic_nx(seed):
    """A connected random 3-regular networkx graph on 20 vertices, ``seed`` upwards."""
    while not nx.is_connected(h := nx.random_regular_graph(3, 20, seed=seed)):
        seed += 1
    return h


# regular graphs, each with its networkx verdict on distance-regularity and
# labelled 0..n-1
REGULAR_GRAPHS = {
    **{f"cycle {n}": (lambda n=n: nx.cycle_graph(n), True) for n in (3, 8, 9)},
    "hypercube 4": (lambda: nx.convert_node_labels_to_integers(nx.hypercube_graph(4)), True),
    "petersen": (nx.petersen_graph, True),
    "heawood": (nx.heawood_graph, True),
    "dodecahedral": (nx.dodecahedral_graph, True),
    "K4,4": (lambda: nx.complete_bipartite_graph(4, 4), True),
    "moebius-kantor": (lambda: nx.LCF_graph(16, [5, -5], 8), False),
    "pentagonal prism": (lambda: nx.circular_ladder_graph(5), False),
    **{f"cubic n=20 seed {s}": (lambda s=s: random_cubic_nx(100 * s), False) for s in range(4)},
}


def assert_first_broken_number(h, message):
    """``message`` names the first of c_i, a_i, b_i (in that order, distance
    by distance) that takes two values over the pairs at distance i of the
    networkx graph h, and two of those values."""
    match = re.fullmatch(
        r"not distance-regular: ([cab])_(\d+) is (\d+) for one pair at distance \2 and (\d+) for another",
        message,
    )
    assert match, message
    kind, i, lo, hi = match[1], int(match[2]), int(match[3]), int(match[4])
    # values[(k, 0 | 1 | 2)]: the c_k, a_k or b_k of every pair at distance k
    values = {}
    for u in h:
        for k, counts in neighbor_counts_by_distance(h, u).values():
            for j in range(3):
                values.setdefault((k, j), set()).add(counts.get(k - 1 + j, 0))
    broken = min(key for key, seen in values.items() if len(seen) > 1)
    assert broken == (i, "cab".index(kind))
    assert lo != hi and {lo, hi} <= values[broken]


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
        with pytest.raises(InvalidParams) as excinfo:
            intersection_numbers(g)
        assert str(excinfo.value) == (
            "not distance-regular: b_0 is 1 for one pair at distance 0 and 2 for another"
        )

    # regular graphs pass the b_0 test and fail further out
    @pytest.mark.parametrize(
        "n, degree, seed", [(6, None, None), (40, None, None), (20, 3, 6), (60, 3, 5), (200, 3, 200)]
    )
    def test_witness_counts_match_networkx(self, rng, n, degree, seed):
        if degree is None:
            edges = random_connected_edges(rng, n, n)
        else:
            edges = list(nx.random_regular_graph(degree, n, seed=seed).edges())
        g = build_graph(n, edges)
        with pytest.raises(InvalidParams) as excinfo:
            intersection_numbers(g)
        assert_first_broken_number(nx.Graph(edges), str(excinfo.value))

    @pytest.mark.parametrize("name", REGULAR_GRAPHS)
    def test_verdict_matches_networkx(self, name):
        build, distance_regular = REGULAR_GRAPHS[name]
        h = build()
        assert nx.is_distance_regular(h) is distance_regular
        g = build_graph(h.number_of_nodes(), list(h.edges()))
        if distance_regular:
            ia = intersection_numbers(g)
            assert (list(ia.b), list(ia.c)) == nx.intersection_array(h)
        else:
            with pytest.raises(InvalidParams) as excinfo:
                intersection_numbers(g)
            assert_first_broken_number(h, str(excinfo.value))

    def test_shell_sizes_round_trip(self, petersen):
        ia = intersection_numbers(petersen)
        assert ia.shell_sizes() == (1, 3, 6)
        assert sum(ia.shell_sizes()) == petersen.n

    def test_array_validation(self):
        with pytest.raises(InvalidParams):
            IntersectionArray((3, 2), (2, 1))  # c_1 != 1
        with pytest.raises(InvalidParams):
            IntersectionArray((1, 2), (1, 1))  # a_1 negative
        with pytest.raises(InvalidParams, match="b and c must have equal length"):
            IntersectionArray((3, 2), (1,))

    @pytest.mark.parametrize(
        "b, c, message",
        [
            ((3, 2), (2, 1), "c_1 must be 1, got 2"),
            ((1, 2), (1, 1), "derived a_i negative; array infeasible"),
            ((3, 2), (1,), "b and c must have equal length"),
            ((), (), "intersection array needs diameter >= 1"),
            ((3, 0), (1, 1), "b_i (i<d) and c_i must be positive"),
        ],
    )
    @pytest.mark.parametrize("kind", [tuple, list, np.array])
    def test_invalid_array_messages(self, b, c, message, kind):
        with pytest.raises(InvalidParams) as err:
            IntersectionArray(kind(b), kind(c))
        assert str(err.value) == message

    def test_non_integral_shell_sizes(self):
        with pytest.raises(InvalidParams, match="shell sizes not integral; array infeasible"):
            IntersectionArray([4, 1], [1, 3]).shell_sizes()

    @pytest.mark.parametrize(
        "kind",
        [list, np.array, lambda x: tuple(np.int64(v) for v in x)],
        ids=["list", "ndarray", "numpy-ints"],
    )
    def test_any_integer_sequence_gives_python_ints(self, kind):
        ia = IntersectionArray(kind([3, 2]), kind([1, 1]))
        assert ia == IntersectionArray((3, 2), (1, 1))
        for part in (ia.b, ia.c, ia.a, ia.shell_sizes()):
            assert type(part) is tuple and all(type(x) is int for x in part)
        assert ia.shell_sizes() == (1, 3, 6)
        pipeline = Pipeline(origin=0, intersection_array=ia)
        out = io.StringIO()
        pipeline.series([0.0, 0.5]).to_json(out, pipeline.kappa)
        assert json.loads(out.getvalue())["kappa"] == [1, 3, 6]


def walk_kappa(g, origin):
    from ctqw.verify import pipeline_for_graph

    return pipeline_for_graph(g, origin).kappa


def random_cubic_graph(seed):
    """A connected random 3-regular graph on 20 vertices, ``seed`` upwards."""
    return build_graph(20, list(random_cubic_nx(seed).edges()))


# graphs walked from every origin, by name
EVERY_ORIGIN = {
    "petersen": lambda: make_entry("petersen").build(),
    "grid 5x6": lambda: build_graph(30, grid_edges(5, 6)),
    "grid 8x8": lambda: build_graph(64, grid_edges(8, 8)),
    **{f"tree n=30 seed {s}": lambda s=s: random_connected_graph(np.random.default_rng(s), 30, 0)
       for s in range(6)},
    **{f"cubic n=20 seed {s}": lambda s=s: random_cubic_graph(100 * s) for s in range(6)},
    # graphs with QD origins besides the Petersen graph's
    "path 9": lambda: build_graph(9, grid_edges(1, 9)),
    "hypercube 4": lambda: make_entry("hamming", (4, 2)).build(),
    "glued trees 4": lambda: make_entry("glued_trees", (4,)).build(),
    "layered 5x8": lambda: build_graph(*random_qd_edges(np.random.default_rng(58), 5, 8)),
}


class TestClassifyQD:
    """The QD type of an origin, read from the walk's partition: ``kappa``
    is the shell sizes exactly when the shells are equitable."""

    @pytest.mark.parametrize("name", EVERY_ORIGIN)
    def test_kappa_matches_equitable_shells(self, name):
        g = EVERY_ORIGIN[name]()
        for origin in range(g.n):
            got = walk_kappa(g, origin)
            assert (got is not None) == shells_equitable(g, origin), origin
            if got is not None:
                assert got == tuple(np.bincount(stratify(g, origin)).tolist())

    def test_petersen_all_origins(self, petersen):
        for origin in range(10):
            assert walk_kappa(petersen, origin) == (1, 3, 6)

    def test_path_from_second_vertex_non_qd(self):
        g = build_graph(5, [(i, i + 1) for i in range(4)])
        assert walk_kappa(g, 1) is None

    def test_star_from_center(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert walk_kappa(g, 0) == (1, 3)

    @pytest.mark.parametrize("depth, width", [(2, 3), (5, 8), (11, 18)])
    def test_qd_counts_match_networkx(self, rng, depth, width):
        # on a QD origin the Lanczos levels are the shells: alpha_k is the
        # within-shell count of shell k, omega_k the up-count of shell k-1
        # times the down-count of shell k
        from ctqw.verify import pipeline_for_graph

        n, edges = random_qd_edges(rng, depth, width)
        g = build_graph(n, edges)
        pipe = pipeline_for_graph(g, 0)
        kappa = [0] * (depth + 1)
        per_shell = [set() for _ in range(depth + 1)]
        for k, counts in neighbor_counts_by_distance(nx.Graph(edges), 0).values():
            kappa[k] += 1
            per_shell[k].add((counts.get(k - 1, 0), counts.get(k, 0), counts.get(k + 1, 0)))
        assert all(len(c) == 1 for c in per_shell)
        down, within, up = zip(*(c.pop() for c in per_shell))
        assert np.allclose(pipe.jc.alpha, within, rtol=0, atol=1e-10)
        omega = [up[k - 1] * down[k] for k in range(1, depth + 1)]
        assert np.allclose(pipe.jc.omega, omega, rtol=0, atol=1e-10)
        assert pipe.kappa == tuple(kappa)

    @pytest.mark.parametrize("n", [20, 90, 200])
    def test_non_qd_matches_networkx(self, rng, n):
        # some shell holds two vertices with different neighbour counts one
        # shell down, within or up
        edges = random_connected_edges(rng, n, int(rng.integers(1, n)))
        g = build_graph(n, edges)
        h = nx.Graph(edges)
        for origin in rng.choice(n, size=4, replace=False):
            assert walk_kappa(g, int(origin)) is None
            per_shell = {}
            for k, counts in neighbor_counts_by_distance(h, int(origin)).values():
                per_shell.setdefault(k, set()).add(
                    (counts.get(k - 1, 0), counts.get(k, 0), counts.get(k + 1, 0))
                )
            assert any(len(c) > 1 for c in per_shell.values())

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(connected_graphs(14))
    def test_qd_and_shells_match_networkx(self, graph):
        n, edges = graph
        g = build_graph(n, edges)
        h = nx.Graph(edges)
        for origin in range(n):
            want = neighbor_counts_by_distance(h, origin)
            depth = max(k for k, _ in want.values())
            sizes = [0] * (depth + 1)
            per_shell = [set() for _ in range(depth + 1)]
            for k, counts in want.values():
                sizes[k] += 1
                per_shell[k].add((counts.get(k - 1, 0), counts.get(k, 0), counts.get(k + 1, 0)))
            assert tuple(np.bincount(stratify(g, origin)).tolist()) == tuple(sizes)
            qd = all(len(c) == 1 for c in per_shell)
            assert walk_kappa(g, origin) == (tuple(sizes) if qd else None)

    def test_distance_regular_implies_qd(self):
        for spec in ["complete:6", "cycle:8", "cycle:9", "petersen", "johnson:6,2", "hamming:2,3"]:
            family, _, params = spec.partition(":")
            entry = make_entry(family, tuple(int(p) for p in params.split(",")) if params else ())
            g = entry.build()
            intersection_numbers(g)  # raises if not DRG
            for origin in range(0, g.n, max(1, g.n // 3)):
                assert walk_kappa(g, origin) == entry.intersection_array.shell_sizes()


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

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_bytes(b"\xff\xfe3 2\n0 1\n1 2\n")
        with pytest.raises(InvalidEdgeList, match=re.escape(f"cannot read {path}: 'utf-8' codec")):
            read_edge_list(path)

    @pytest.mark.parametrize(
        "text",
        ["", "2\n0 1\n", "2 2\n0 1\n", "2 1\n0 x\n", "2 1\n0 1 2\n"],
    )
    def test_malformed(self, text):
        with pytest.raises(InvalidEdgeList):
            parse_edge_list(text)
