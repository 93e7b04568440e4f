import numpy as np
import pytest
from hypothesis import strategies as st

from ctqw import build_graph, make_entry, stratify

PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
]


@pytest.fixture
def petersen():
    return build_graph(10, PETERSEN_EDGES)


@pytest.fixture
def petersen_shell_of(petersen):
    return stratify(petersen, 0)


@pytest.fixture
def petersen_entry():
    return make_entry("petersen")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def csr_products(monkeypatch):
    """The value array of each CSR matrix-vector product, in call order:
    scipy's compiled ``csr_matvec`` kernel, which the oracle calls directly
    and ``a @ v`` on a csr_array calls through the same module attribute."""
    from scipy.sparse import _sparsetools

    kernel = _sparsetools.csr_matvec
    calls = []

    def counting(n_row, n_col, indptr, indices, data, x, y):
        calls.append(data)
        return kernel(n_row, n_col, indptr, indices, data, x, y)

    monkeypatch.setattr(_sparsetools, "csr_matvec", counting)
    return calls


@st.composite
def connected_graphs(draw, max_n):
    """(n, edges) of a connected graph on 2..max_n vertices: a random spanning
    tree (vertex v hangs off one of 0..v-1) plus random chords."""
    n = draw(st.integers(2, max_n))
    parents = draw(st.lists(st.integers(0, 10**6), min_size=n - 1, max_size=n - 1))
    chords = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    edges = [(p % v, v) for v, p in enumerate(parents, start=1)]
    return n, edges + [(u, v) for u, v in chords if u != v]


def grid_edges(a, b):
    """Edges of the grid P_a □ P_b, with vertex (x, y) numbered b x + y."""
    return [(b * x + y, b * x + y + 1) for x in range(a) for y in range(b - 1)] + [
        (b * x + y, b * (x + 1) + y) for x in range(a - 1) for y in range(b)
    ]


def shells_equitable(g, origin):
    """True when every vertex of a BFS shell around ``origin`` has the same
    number of neighbours in each shell, which makes the origin QD type. By
    hand, from the dense adjacency: a breadth-first search and a count
    matrix, none of the package's own routines."""
    a = g.adjacency.toarray() > 0
    dist = np.full(len(a), -1)
    frontier = np.zeros(len(a), dtype=bool)
    frontier[origin] = True
    d = 0
    while frontier.any():
        dist[frontier] = d
        frontier = a[frontier].any(axis=0) & (dist < 0)
        d += 1
    counts = a.astype(np.int64) @ np.eye(d, dtype=np.int64)[dist]  # neighbours of v in shell l
    return all((counts[dist == l] == counts[dist == l][0]).all() for l in range(d))
