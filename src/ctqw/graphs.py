"""Graph construction, BFS stratification, and the distance-regularity test.

A graph is stored once, as a read-only sparse CSR adjacency matrix. The
connectivity check and the BFS shells (both ``scipy.sparse.csgraph``), the
distance classes that ``intersection_numbers`` grows from its own neighbour
counts, the colour refinement, the quotient of ``jacobi``'s reduction and
the oracle all run on that one matrix. ``stratify`` is the one BFS: it gives
the shell index of each vertex, whose ``np.bincount`` is the shell sizes.
Everything here is immutable after construction, stores nothing it can
derive, and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import DisconnectedGraph, InvalidEdge, InvalidEdgeList, InvalidParams

if TYPE_CHECKING:
    from scipy.sparse import csr_array

# bounds the dense arrays: the k x k quotient of a walk with k cells and its
# symmetrized copy (n x n, 32 MB each at n = 2000, when every vertex is its
# own cell), the int64 keys of the colour refinement and the n x n neighbour
# counts of intersection_numbers
MAX_VERTICES = 2000


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple connected graph."""

    # (n, n) float64, symmetric 0/1, zero diagonal, sorted indices; its data,
    # indices and indptr are read-only
    adjacency: csr_array

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def edge_count(self) -> int:
        return self.adjacency.nnz // 2

    @property
    def max_degree(self) -> int:
        """Largest row sum of the 0/1 adjacency: its stored entries per row."""
        return int(np.diff(self.adjacency.indptr).max())


@dataclass(frozen=True)
class IntersectionArray:
    """Intersection numbers of a distance-regular graph.

    ``b`` holds b_0..b_{d-1} and ``c`` holds c_1..c_d; ``a`` derives
    a_0..a_d from them (b_d = c_0 = 0 by convention). Any sequences of
    integers may be given; they are stored as tuples of Python ints.
    """

    b: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(int(x) for x in self.b))
        object.__setattr__(self, "c", tuple(int(x) for x in self.c))
        if len(self.b) != len(self.c):
            raise InvalidParams("b and c must have equal length")
        if not self.b:
            raise InvalidParams("intersection array needs diameter >= 1")
        if self.c[0] != 1:
            raise InvalidParams(f"c_1 must be 1, got {self.c[0]}")
        if any(x <= 0 for x in self.b) or any(x <= 0 for x in self.c):
            raise InvalidParams("b_i (i<d) and c_i must be positive")
        if any(x < 0 for x in self.a):
            raise InvalidParams("derived a_i negative; array infeasible")

    @property
    def a(self) -> tuple[int, ...]:
        """a_i = kappa - b_i - c_i, with kappa = b_0."""
        return tuple(
            self.b[0] - b_i - c_i for b_i, c_i in zip(self.b + (0,), (0,) + self.c)
        )

    @property
    def diameter(self) -> int:
        return len(self.b)

    def shell_sizes(self) -> tuple[int, ...]:
        # kappa_i c_i = kappa_{i-1} b_{i-1}
        sizes = [1]
        for i in range(1, self.diameter + 1):
            num = sizes[-1] * self.b[i - 1]
            if num % self.c[i - 1] != 0:
                raise InvalidParams("shell sizes not integral; array infeasible")
            sizes.append(num // self.c[i - 1])
        return tuple(sizes)


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a validated graph from an edge list; duplicates collapse.

    Raises InvalidParams for vertex counts outside [2, MAX_VERTICES],
    InvalidEdge for out-of-range endpoints or self-loops, and
    DisconnectedGraph when the result is not connected.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise InvalidParams(f"vertex count must be an integer, got {n!r}")
    if n < 2:
        raise InvalidParams(f"graph needs at least 2 vertices, got {n}")
    if n > MAX_VERTICES:
        raise InvalidParams(f"graph too large ({n} > {MAX_VERTICES} vertices)")

    pairs = _edge_array(n, edges)

    # imported here: scipy.sparse would slow every CLI start
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    # int32 indices, half the memory: every vertex is below MAX_VERTICES
    rows, cols = np.concatenate([pairs, pairs[:, ::-1]], dtype=np.int32).T
    adjacency = coo_array((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    # sorted indices and one entry per edge, whatever order the edges came in
    adjacency.sum_duplicates()
    adjacency.data[:] = 1.0
    for arr in (adjacency.data, adjacency.indices, adjacency.indptr):
        arr.setflags(write=False)
    # symmetric: its strong components are its components, with no transposed copy
    _, labels = connected_components(adjacency, directed=True, connection="strong")
    outside = np.flatnonzero(labels != labels[0])
    if outside.size:
        raise DisconnectedGraph(f"vertex {outside[0]} not reachable from vertex 0")
    return Graph(adjacency)


def _edge_array(n: int, edges) -> np.ndarray:
    """The edges as an (m, 2) int64 array; InvalidEdge names the first bad one."""
    edges = edges if isinstance(edges, np.ndarray) else list(edges)
    try:
        pairs = np.asarray(edges, dtype=np.int64)
        ok = pairs.shape == (len(edges), 2) and (pairs >= 0).all() and (pairs < n).all()
        if ok and (pairs[:, 0] != pairs[:, 1]).all():
            return pairs
    except (TypeError, ValueError, OverflowError):
        pass
    # not all pairs of distinct vertices: name the first bad edge in input order
    pairs = []
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise InvalidEdge(f"edge {e!r} is not a vertex pair") from None
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidEdge(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise InvalidEdge(f"self-loop at vertex {u}")
        pairs.append((u, v))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def stratify(g: Graph, origin: int) -> np.ndarray:
    """The BFS shell index (int64) of each vertex around ``origin``,
    read-only; -1 marks a vertex that ``origin`` cannot reach, which only a
    ``Graph`` built without ``build_graph`` can have."""
    check_vertex(g.n, origin)
    from scipy.sparse.csgraph import shortest_path

    # unit-weight Dijkstra from one source is a BFS
    d = shortest_path(g.adjacency, method="D", unweighted=True, indices=origin)
    d[np.isinf(d)] = -1
    shell_of = d.astype(np.int64)
    shell_of.setflags(write=False)
    return shell_of


def intersection_numbers(g: Graph) -> IntersectionArray:
    """Intersection array of a distance-regular graph.

    Grows the distance classes S_i (S_i[v, u] when v is at distance i from
    u) from S_0 = I with the neighbour counts N_i = A S_i: N_i[v, u] counts
    the neighbours of v at distance i from u, so S_{i+1} is where N_i is
    positive among the pairs not yet reached. Over the pairs in S_i, N_{i-1},
    N_i and N_{i+1} must each be constant, and are c_i, a_i and b_i; the
    first that is not, distance by distance, raises InvalidParams naming two
    of its values. Holds at most three n x n float arrays at once.
    """

    def constant(counts: np.ndarray, pairs: np.ndarray, name: str, i: int) -> int:
        values = counts[pairs]
        lo, hi = int(values.min()), int(values.max())
        if lo != hi:
            raise InvalidParams(
                f"not distance-regular: {name}_{i} is {lo} for one pair at distance {i} "
                f"and {hi} for another"
            )
        return lo

    shell = np.eye(g.n, dtype=bool)
    reached = shell.copy()
    here = g.adjacency.toarray()  # N_0 = A
    b, c = [], []
    for i in range(g.n):
        constant(here, shell, "a", i)
        outer = (here > 0) & ~reached
        # no pairs beyond the diameter: b_d = 0 by convention
        if not outer.any():
            break
        reached |= outer
        above = g.adjacency @ outer.astype(np.float64)
        b.append(constant(above, shell, "b", i))
        c.append(constant(here, outer, "c", i + 1))
        here, shell = above, outer
    return IntersectionArray(b, c)


def parse_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Parse the text edge-list format: header ``n m`` then m lines ``u v``.

    Blank lines and lines starting with ``#`` are skipped.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line))
    if not rows:
        raise InvalidEdgeList("empty edge list")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise InvalidEdgeList(f"line {lineno}: header must be 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise InvalidEdgeList(f"line {lineno}: header must be two integers") from None
    if len(rows) - 1 != m:
        raise InvalidEdgeList(
            f"expected {m} edge lines, found {len(rows) - 1}"
        )
    edges = []
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise InvalidEdgeList(f"line {lineno}: edge must be 'u v', got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise InvalidEdgeList(f"line {lineno}: edge endpoints must be integers") from None
    return n, edges


def read_edge_list(path: str | Path) -> Graph:
    """Read a graph from a UTF-8 edge-list file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidEdgeList(f"cannot read {p}: {exc}") from None
    n, edges = parse_edge_list(text)
    return build_graph(n, edges)


def check_vertex(n: int, origin: int) -> None:
    """Raise ``InvalidParams`` unless ``origin`` indexes one of n vertices."""
    if not (0 <= origin < n):
        raise InvalidParams(f"origin {origin} out of range for n={n}")


def vertex_state(n: int, vertex: int) -> np.ndarray:
    """Unit vector supported on a single vertex."""
    check_vertex(n, vertex)
    state = np.zeros(n, dtype=np.float64)
    state[vertex] = 1.0
    return state
