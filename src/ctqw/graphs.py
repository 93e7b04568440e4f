"""Graph construction, BFS stratification, distance structure, and regularity tests.

A graph is stored once, as a read-only sparse CSR adjacency matrix. The
distances (``scipy.sparse.csgraph``), the shell and distance-class counts,
the Lanczos matvec and the oracle all run on that one matrix, so no step
builds a dense n x n adjacency or needs a dense eigensolve. Everything here is
immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import (
    DisconnectedGraph,
    InvalidEdge,
    InvalidEdgeList,
    InvalidParams,
    NotDistanceRegular,
)

if TYPE_CHECKING:
    from scipy.sparse import csr_array

# bounds the dense n x n arrays: the Lanczos basis and the all-pairs distance
# matrix (all_pairs_distances, intersection_numbers)
MAX_VERTICES = 2000


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple connected graph."""

    n: int
    # (n, n) float64, symmetric 0/1, zero diagonal, sorted indices; its data,
    # indices and indptr are read-only
    adjacency: csr_array

    def degree(self, v: int) -> int:
        return int(self.adjacency.indptr[v + 1] - self.adjacency.indptr[v])

    @property
    def edge_count(self) -> int:
        return self.adjacency.nnz // 2


@dataclass(frozen=True, eq=False)
class Stratification:
    """BFS shells of a graph seen from a fixed origin vertex."""

    origin: int
    shells: tuple[tuple[int, ...], ...]
    kappa: tuple[int, ...]
    shell_of: np.ndarray  # shell index per vertex, read-only

    @property
    def depth(self) -> int:
        return len(self.shells) - 1


@dataclass(frozen=True)
class IntersectionArray:
    """Intersection numbers of a distance-regular graph.

    ``b`` holds b_0..b_{d-1}, ``c`` holds c_1..c_d and ``a`` the derived
    a_0..a_d with a_i = kappa - b_i - c_i (b_d = c_0 = 0 by convention).
    """

    b: tuple[int, ...]
    c: tuple[int, ...]
    a: tuple[int, ...]

    def __post_init__(self):
        d = len(self.b)
        if d < 1 or len(self.c) != d or len(self.a) != d + 1:
            raise InvalidParams("intersection array has inconsistent lengths")
        if self.c[0] != 1:
            raise InvalidParams(f"c_1 must be 1, got {self.c[0]}")
        if any(x <= 0 for x in self.b) or any(x <= 0 for x in self.c):
            raise InvalidParams("b_i (i<d) and c_i must be positive")
        if any(x < 0 for x in self.a):
            raise InvalidParams("derived a_i negative; array infeasible")
        kappa = self.b[0]
        for i in range(d + 1):
            bi = self.b[i] if i < d else 0
            ci = self.c[i - 1] if i >= 1 else 0
            if self.a[i] + bi + ci != kappa:
                raise InvalidParams("a_i + b_i + c_i must equal the valency")

    @classmethod
    def from_bc(cls, b: Sequence[int], c: Sequence[int]) -> "IntersectionArray":
        b = tuple(int(x) for x in b)
        c = tuple(int(x) for x in c)
        if len(b) != len(c):
            raise InvalidParams("b and c must have equal length")
        kappa = b[0]
        d = len(b)
        a = tuple(
            kappa - (b[i] if i < d else 0) - (c[i - 1] if i >= 1 else 0)
            for i in range(d + 1)
        )
        return cls(b=b, c=c, a=a)

    @property
    def diameter(self) -> int:
        return len(self.b)

    @property
    def valency(self) -> int:
        return self.b[0]

    def shell_sizes(self) -> tuple[int, ...]:
        # kappa_i c_i = kappa_{i-1} b_{i-1}
        sizes = [1]
        for i in range(1, self.diameter + 1):
            num = sizes[-1] * self.b[i - 1]
            if num % self.c[i - 1] != 0:
                raise InvalidParams("shell sizes not integral; array infeasible")
            sizes.append(num // self.c[i - 1])
        return tuple(sizes)

    @property
    def vertex_count(self) -> int:
        return sum(self.shell_sizes())


@dataclass(frozen=True)
class QDClassification:
    """Outcome of the stratification-invariance test.

    When ``is_qd`` holds, every vertex of shell k has ``down_counts[k]``
    neighbors in shell k-1, ``within_counts[k]`` in shell k and
    ``up_counts[k]`` in shell k+1. Otherwise ``witness`` records
    ``(shell, direction, vertex_a, count_a, vertex_b, count_b)``.
    """

    is_qd: bool
    down_counts: tuple[int, ...] | None = None
    within_counts: tuple[int, ...] | None = None
    up_counts: tuple[int, ...] | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.is_qd


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

    us: list[int] = []
    vs: list[int] = []
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
        us.append(u)
        vs.append(v)

    # imported here: scipy.sparse would slow every CLI start
    from scipy.sparse import coo_array

    rows = np.array(us + vs, dtype=np.int64)
    cols = np.array(vs + us, dtype=np.int64)
    adjacency = coo_array((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    # sorted indices and one entry per edge, whatever order the edges came in
    adjacency.sum_duplicates()
    adjacency.data[:] = 1.0
    for arr in (adjacency.data, adjacency.indices, adjacency.indptr):
        arr.setflags(write=False)
    g = Graph(n=n, adjacency=adjacency)

    dist = bfs_distances(g, 0)
    if (dist < 0).any():
        missing = int(np.flatnonzero(dist < 0)[0])
        raise DisconnectedGraph(
            f"vertex {missing} not reachable from vertex 0"
        )
    return g


def _distances(g: Graph, indices) -> np.ndarray:
    """Unweighted shortest-path lengths from ``indices`` (None: all vertices);
    -1 marks unreachable vertices."""
    from scipy.sparse.csgraph import shortest_path

    # unit-weight Dijkstra is a BFS per source; "auto" picks O(n^3)
    # Floyd-Warshall for all pairs on dense graphs
    d = shortest_path(g.adjacency, method="D", unweighted=True, indices=indices)
    d[np.isinf(d)] = -1
    return d.astype(np.int64)


def bfs_distances(g: Graph, source: int) -> np.ndarray:
    """Graph distances from ``source``; -1 marks unreachable vertices."""
    return _distances(g, source)


def stratify(g: Graph, origin: int) -> Stratification:
    """Partition vertices into BFS shells around ``origin``."""
    if not (0 <= origin < g.n):
        raise InvalidParams(f"origin {origin} out of range for n={g.n}")
    dist = bfs_distances(g, origin)
    depth = int(dist.max())
    shells = tuple(
        tuple(int(v) for v in np.flatnonzero(dist == i)) for i in range(depth + 1)
    )
    kappa = tuple(len(s) for s in shells)
    dist.setflags(write=False)
    return Stratification(origin=origin, shells=shells, kappa=kappa, shell_of=dist)


def all_pairs_distances(g: Graph) -> np.ndarray:
    """(n, n) matrix of graph distances; -1 marks unreachable pairs."""
    return _distances(g, None)


def intersection_numbers(g: Graph) -> IntersectionArray:
    """Intersection array of a distance-regular graph.

    For every ordered pair (u, v) at distance i the counts of neighbors of v
    at distance i-1, i, i+1 from u must not depend on the pair. A failure
    raises NotDistanceRegular carrying two offending pairs.
    """
    d = all_pairs_distances(g)
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
            flat = counts[mask]
            p1 = pairs[int(np.argmin(flat))]
            p2 = pairs[int(np.argmax(flat))]
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
        if i < diameter:
            b.append(constant_or_witness(next_counts, mask, i, "b"))
        else:
            # no vertices beyond the diameter: b_d = 0 by convention
            pass
        prev_counts, cur_counts = cur_counts, next_counts
        next_counts = neighbor_counts(i + 2) if i + 1 < diameter else None
    return IntersectionArray.from_bc(b, c)


def classify_qd(g: Graph, strat: Stratification) -> QDClassification:
    """Test whether the stratification space is invariant under the level split.

    Equivalent condition: within each shell, every vertex has the same number
    of neighbors one shell down, in its own shell, and one shell up.
    """
    levels = len(strat.shells)
    onehot = np.zeros((g.n, levels), dtype=np.float64)
    onehot[np.arange(g.n), strat.shell_of] = 1.0
    # counts[l, v] = neighbors of v inside shell l
    counts = np.rint(g.adjacency @ onehot).T.astype(np.int64)

    down, within, up = [], [], []
    for k in range(levels):
        verts = np.array(strat.shells[k], dtype=np.int64)
        for direction, l in (("down", k - 1), ("within", k), ("up", k + 1)):
            if 0 <= l < levels:
                vals = counts[l, verts]
                if int(vals.min()) != int(vals.max()):
                    ia, ib = int(np.argmin(vals)), int(np.argmax(vals))
                    witness = (
                        k,
                        direction,
                        int(verts[ia]),
                        int(vals[ia]),
                        int(verts[ib]),
                        int(vals[ib]),
                    )
                    return QDClassification(is_qd=False, witness=witness)
                val = int(vals[0])
            else:
                val = 0
            if direction == "down":
                down.append(val)
            elif direction == "within":
                within.append(val)
            else:
                up.append(val)
    return QDClassification(
        is_qd=True,
        down_counts=tuple(down),
        within_counts=tuple(within),
        up_counts=tuple(up),
    )


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
    """Read a graph from an edge-list file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
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
