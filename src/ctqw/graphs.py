"""Graph construction, BFS stratification, distance structure, and regularity tests.

A graph is stored once, as a read-only sparse CSR adjacency matrix. The
distances (``scipy.sparse.csgraph``), the shell and distance-class counts,
the Lanczos matvec and the oracle all run on that one matrix, so no step
builds a dense n x n adjacency or needs a dense eigensolve. ``stratify``
gives the shell index of each vertex, whose ``np.bincount`` is the shell
sizes; the QD test counts every vertex's neighbors one shell down, within
and up in one pass, O(n + m). Everything here is immutable after
construction, stores nothing it can derive, and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import (
    DisconnectedGraph, InvalidEdge, InvalidEdgeList, InvalidParams, NotDistanceRegular,
)

if TYPE_CHECKING:
    from scipy.sparse import csr_array

# bounds the dense n x n arrays: the Lanczos basis and the all-pairs distance
# matrix of intersection_numbers
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


@dataclass(frozen=True)
class IntersectionArray:
    """Intersection numbers of a distance-regular graph.

    ``b`` holds b_0..b_{d-1} and ``c`` holds c_1..c_d; ``a`` derives
    a_0..a_d from them (b_d = c_0 = 0 by convention).
    """

    b: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self):
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

    @classmethod
    def from_bc(cls, b: Sequence[int], c: Sequence[int]) -> "IntersectionArray":
        return cls(b=tuple(int(x) for x in b), c=tuple(int(x) for x in c))

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

    # int32 indices, half the memory: every vertex is below MAX_VERTICES
    rows, cols = np.concatenate([pairs, pairs[:, ::-1]], dtype=np.int32).T
    adjacency = coo_array((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    # sorted indices and one entry per edge, whatever order the edges came in
    adjacency.sum_duplicates()
    adjacency.data[:] = 1.0
    for arr in (adjacency.data, adjacency.indices, adjacency.indptr):
        arr.setflags(write=False)
    g = Graph(adjacency)

    dist = bfs_distances(g, 0)
    if (dist < 0).any():
        missing = int(np.flatnonzero(dist < 0)[0])
        raise DisconnectedGraph(
            f"vertex {missing} not reachable from vertex 0"
        )
    return g


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


def bfs_distances(g: Graph, source: int | None) -> np.ndarray:
    """Graph distances from ``source``, or the (n, n) matrix of all pairs
    when ``source`` is None; -1 marks unreachable vertices."""
    from scipy.sparse.csgraph import shortest_path

    # unit-weight Dijkstra is a BFS per source; "auto" picks O(n^3)
    # Floyd-Warshall for all pairs on dense graphs
    d = shortest_path(g.adjacency, method="D", unweighted=True, indices=source)
    d[np.isinf(d)] = -1
    return d.astype(np.int64)


def stratify(g: Graph, origin: int) -> np.ndarray:
    """The BFS shell index of each vertex around ``origin``, read-only."""
    if not (0 <= origin < g.n):
        raise InvalidParams(f"origin {origin} out of range for n={g.n}")
    shell_of = bfs_distances(g, origin)
    shell_of.setflags(write=False)
    return shell_of


def intersection_numbers(g: Graph) -> IntersectionArray:
    """Intersection array of a distance-regular graph.

    For every ordered pair (u, v) at distance i the counts of neighbors of v
    at distance i-1, i, i+1 from u must not depend on the pair. A failure
    raises NotDistanceRegular carrying two offending pairs.
    """
    d = bfs_distances(g, None)
    diameter = int(d.max())

    def neighbor_counts(k: int) -> np.ndarray:
        # counts[u, v] = number of neighbors of v at distance k from u, the
        # (u, v) entry of (d == k) @ A; both factors are symmetric, so it is
        # the transpose of the sparse product A @ (d == k)
        at_k = (d == k).astype(np.float64)
        return np.rint(g.adjacency @ at_k).T.astype(np.int64)

    def constant_or_witness(counts: np.ndarray, mask: np.ndarray, dist_i: int, kind: str) -> int:
        vals = counts[mask]
        lo, hi = int(vals.min()), int(vals.max())
        if lo != hi:
            pairs = np.argwhere(mask)
            p1 = pairs[int(np.argmin(vals))]
            p2 = pairs[int(np.argmax(vals))]
            witness = (dist_i, kind, (int(p1[0]), int(p1[1]), lo), (int(p2[0]), int(p2[1]), hi))
            raise NotDistanceRegular(
                f"{kind}_{dist_i} not constant: pair {tuple(p1)} gives {lo}, "
                f"pair {tuple(p2)} gives {hi}",
                witness=witness,
            )
        return lo

    b: list[int] = []
    c: list[int] = []
    prev_counts = None
    cur_counts = neighbor_counts(0)
    next_counts = neighbor_counts(1)
    for i in range(diameter + 1):
        mask = d == i
        constant_or_witness(cur_counts, mask, i, "a")
        if i >= 1:
            c.append(constant_or_witness(prev_counts, mask, i, "c"))
        # no vertices beyond the diameter: b_d = 0 by convention
        if i < diameter:
            b.append(constant_or_witness(next_counts, mask, i, "b"))
        prev_counts, cur_counts = cur_counts, next_counts
        next_counts = neighbor_counts(i + 2) if i + 1 < diameter else None
    return IntersectionArray.from_bc(b, c)


def classify_qd(g: Graph, shell_of: np.ndarray) -> tuple | None:
    """Test whether the stratification space is invariant under the level
    split: None when it is (QD type), else a witness
    ``(shell, direction, vertex_a, count_a, vertex_b, count_b)``.

    Equivalent condition: within each shell, every vertex has the same number
    of neighbors one shell down, in its own shell, and one shell up. The
    counts come from one pass over the CSR entries, O(n + m) in time and
    memory. The witness names the first failing shell, tries the directions
    down, within, up in that order, and gives the first vertices (in
    ascending order) with the smallest and the largest count.
    """
    a, n = g.adjacency, g.n
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    # BFS shells of adjacent vertices differ by at most one: 0 down, 1 within, 2 up
    direction_of = shell_of[a.indices] - shell_of[rows] + 1
    counts = np.bincount(direction_of * n + rows, minlength=3 * n).reshape(3, n)

    # per shell and direction, the smallest and largest count
    levels = int(shell_of.max()) + 1
    where = (np.arange(3)[:, None], shell_of)
    lo = np.full((3, levels), n)
    np.minimum.at(lo, where, counts)
    hi = np.zeros((3, levels), dtype=counts.dtype)
    np.maximum.at(hi, where, counts)
    varies = lo != hi
    failing = np.flatnonzero(varies.any(axis=0))
    if failing.size == 0:
        return None
    k = int(failing[0])
    d = int(np.argmax(varies[:, k]))
    verts = np.flatnonzero(shell_of == k)
    vals = counts[d, verts]
    ia, ib = int(np.argmin(vals)), int(np.argmax(vals))
    pair = (verts[ia], vals[ia], verts[ib], vals[ib])
    return (k, ("down", "within", "up")[d], *(int(x) for x in pair))


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


def vertex_state(n: int, vertex: int) -> np.ndarray:
    """Unit vector supported on a single vertex."""
    if not (0 <= vertex < n):
        raise InvalidParams(f"vertex {vertex} out of range for n={n}")
    state = np.zeros(n, dtype=np.float64)
    state[vertex] = 1.0
    return state
