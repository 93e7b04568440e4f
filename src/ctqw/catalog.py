"""Named graph families and tabulated reference rows.

Families carry explicit constructions where one is feasible at desk scale;
the remaining rows are array-only and run through the pipeline from their
intersection arrays. Tabulated closed forms are stored verbatim, including
the handful that are internally inconsistent: the comparison machinery
flags those as ``paper-typo-suspect`` instead of silently correcting them,
and the engine/oracle output is authoritative.

``make_entry`` is the one entry contract. From the ``_FAMILIES`` registry
it checks a spec's parameter count and kinds, then their range, then the
one size rule: a family's vertex count, or the dimension of a coefficient
family, must not exceed ``MAX_VERTICES``. Each check fails with
InvalidParams before anything is allocated, and the size check stays cheap
however large the parameters are. ``make_entry`` names the entry; the
family's maker only builds its fields from typed values, once every check
has passed. A construction is a ``builder``, called only by code that reads
the graph.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .amplitudes import ExponentialSum
from .errors import InvalidParams, UnknownFamily
from .graphs import MAX_VERTICES, Graph, IntersectionArray, build_graph
from .jacobi import JacobiCoefficients

SQ = math.sqrt


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    id: str
    builder: Callable[[], Graph] | None = None
    intersection_array: IntersectionArray | None = None
    jacobi: JacobiCoefficients | None = None
    closed_form: ExponentialSum | None = None

    def build(self) -> Graph:
        if self.builder is None:
            raise InvalidParams(f"{self.id} has no explicit construction")
        return self.builder()


# ---------------------------------------------------------------------------
# explicit constructions shared with the reference rows

def _generalized_petersen(n: int, k: int) -> Graph:
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, n + i))
        edges.append((n + i, n + (i + k) % n))
    return build_graph(2 * n, edges)


def _lcf(n: int, pattern: tuple[int, ...]) -> Graph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    for i in range(n):
        edges.append((i, (i + pattern[i % len(pattern)]) % n))
    return build_graph(n, edges)


def _pappus() -> Graph:
    return _lcf(18, (5, 7, -7, 7, -7, -5))


def _icosahedron() -> Graph:
    # two pentagonal rings in antiprism position plus two apexes
    up = [1 + k for k in range(5)]
    low = [6 + k for k in range(5)]
    edges = [(0, u) for u in up] + [(11, l) for l in low]
    for k in range(5):
        edges.append((up[k], up[(k + 1) % 5]))
        edges.append((low[k], low[(k + 1) % 5]))
        edges.append((up[k], low[k]))
        edges.append((up[k], low[(k + 1) % 5]))
    return build_graph(12, edges)


def _johnson(n: int, d: int) -> Graph:
    # vertex i is the i-th d-subset in combinations order; two subsets are
    # adjacent when they share d - 1 elements, counted by one incidence
    # product (float32 is exact for counts up to n <= MAX_VERTICES)
    subsets = np.array(list(itertools.combinations(range(n), d)))
    inc = np.zeros((len(subsets), n), dtype=np.float32)
    np.put_along_axis(inc, subsets, 1.0, axis=1)
    shared = inc @ inc.T
    return build_graph(len(subsets), np.argwhere(np.triu(shared == d - 1, 1)))


def _hamming(d: int, q: int) -> Graph:
    # vertex i is its d-digit base-q word; a neighbor changes the digit of one place
    vertex = np.arange(q ** d)
    edges = []
    for place in (q ** pos for pos in range(d)):
        digit = vertex // place % q
        for step in range(1, q):
            u = vertex[digit + step < q]
            edges.append(np.column_stack([u, u + step * place]))
    return build_graph(vertex.size, np.concatenate(edges))


def _glued_trees(depth: int) -> Graph:
    sizes = [2 ** j for j in range(depth + 1)]
    sizes += [2 ** (2 * depth - j) for j in range(depth + 1, 2 * depth + 1)]
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    edges = []
    for j in range(2 * depth):
        for k in range(sizes[j]):
            v = offsets[j] + k
            if j < depth:  # fan out toward the glue level
                edges.append((v, offsets[j + 1] + 2 * k))
                edges.append((v, offsets[j + 1] + 2 * k + 1))
            else:  # fan in toward the far root
                edges.append((v, offsets[j + 1] + k // 2))
    return build_graph(offsets[-1], edges)


# ---------------------------------------------------------------------------
# strongly regular helpers

def _srg_spectrum(v: int, kappa: int, lam: int, mu: int):
    """Eigenvalues (kappa, r, s) and multiplicities (1, m_r, m_s)."""
    delta = math.sqrt((lam - mu) ** 2 + 4 * (kappa - mu))
    r = 0.5 * ((lam - mu) + delta)
    s = 0.5 * ((lam - mu) - delta)
    m_r = 0.5 * ((v - 1) - (2 * kappa + (v - 1) * (lam - mu)) / delta)
    m_s = 0.5 * ((v - 1) + (2 * kappa + (v - 1) * (lam - mu)) / delta)
    for m in (m_r, m_s):
        if abs(m - round(m)) > 1e-9 or m < 0:
            raise InvalidParams(
                f"srg parameters ({v},{kappa},{lam},{mu}) give non-integral multiplicities"
            )
    return (float(kappa), r, s), (1.0, round(m_r), round(m_s))


def _srg_closed_form(v: int, kappa: int, lam: int, mu: int) -> ExponentialSum:
    (k, r, s), (m0, m_r, m_s) = _srg_spectrum(v, kappa, lam, mu)
    return ExponentialSum.build(
        exponentials=[(m0 / v, k), (m_r / v, r), (m_s / v, s)]
    )


# ---------------------------------------------------------------------------
# tabulated distance-regular rows: (id, display name, b, c, closed-form parts,
# builder or None); closed forms are (exponentials, cosines, constant) with
# every exponential stored as (coefficient, rate) for coeff * exp(-i rate t)

_R5 = SQ(5.0)

_APPENDIX_ROWS: tuple[tuple, ...] = (
    ("icosahedron", "Icosahedron", (5, 2, 1), (1, 2, 5),
     ([(5 / 12, -1), (1 / 12, 5)], [(6 / 12, _R5)], 0.0), _icosahedron),
    ("l-petersen", "L(Petersen)", (4, 2, 1), (1, 1, 4),
     ([(4 / 15, -1), (1 / 15, 4)], [(10 / 15, 2)], 0.0), None),
    ("pappus", "Pappus (3-cover K_{3,3})", (3, 2, 2, 1), (1, 1, 2, 3),
     ([], [(1 / 18, 3), (1 / 18, SQ(3.0))], 2 / 18), _pappus),
    ("ig-ag24", "IG(AG(2,4) minus pc)", (4, 3, 3, 1), (1, 1, 3, 4),
     ([], [(1 / 16, 4), (12 / 16, 2)], 3 / 16), None),
    ("cover3-k99", "3-cover K_{9,9}", (9, 8, 6, 1), (1, 3, 8, 9),
     ([], [(1 / 27, 9), (18 / 27, 3)], 8 / 27), None),
    ("odd4", "Odd(4)", (4, 2, 1), (1, 1, 4),
     ([(4 / 15, -1), (1 / 15, 4)], [(10 / 15, 2)], 0.0), None),
    ("srg-spread", "SRG minus spread", (9, 6, 1), (1, 2, 9),
     ([(9 / 40, -1), (1 / 40, 9)], [(30 / 40, 3)], 0.0), None),
    ("cover3-k66", "3-cover K_{6,6}", (6, 5, 4, 1), (1, 2, 5, 6),
     ([], [(2 / 36, 6), (24 / 36, SQ(6.0))], 10 / 36), None),
    ("hadamard-12", "Hadamard graph (valency 12)", (12, 11, 6, 1), (1, 6, 11, 12),
     ([], [(1 / 24, 12), (12 / 24, 2 * _R5)], 8 / 24), None),
    ("ig-ag25", "IG(AG(2,5) minus pc)", (5, 4, 4, 1), (1, 1, 4, 5),
     ([], [(1 / 25, 5), (20 / 25, SQ(3.0))], 11 / 25), None),
    ("hadamard-8", "Hadamard graph (valency 8)", (8, 7, 4, 1), (1, 4, 7, 8),
     ([], [(2 / 32, 8), (16 / 32, 2 * SQ(2.0))], 14 / 32), None),
    ("desargues", "Desargues", (3, 2, 2, 1, 1), (1, 1, 2, 2, 3),
     ([], [(1 / 10, 3), (4 / 10, 2), (10 / 10, 1)], 0.0),
     lambda: _generalized_petersen(10, 3)),
    ("klein", "Klein", (7, 4, 1), (1, 2, 7),
     ([(7 / 24, -1), (1 / 24, 7)], [(16 / 24, SQ(7.0))], 0.0), None),
    ("h33", "H(3,3)", (6, 4, 2), (1, 2, 3),
     ([(1 / 27, 6), (8 / 27, -3), (6 / 27, 3)], [], 12 / 27),
     lambda: _hamming(3, 3)),
    ("coxeter", "Coxeter", (3, 2, 2, 1), (1, 1, 1, 2),
     ([(19 / 28, -1), (8 / 28, 2)], [(12 / 28, SQ(2.0))], 0.0), None),
    ("mathon-13-3", "Mathon(Cycl(13,3))", (13, 8, 1), (1, 4, 13),
     ([(13 / 42, -1), (1 / 42, 13)], [(28 / 42, SQ(13.0))], 0.0), None),
    ("taylor-p17", "Taylor(P(17))", (17, 8, 1), (1, 8, 17),
     ([(17 / 36, -1), (1 / 36, 17)], [(18 / 36, SQ(17.0))], 0.0), None),
    ("taylor-srg25", "Taylor(SRG(25,12))", (25, 12, 1), (1, 12, 25),
     ([(25 / 52, -1), (1 / 52, 25)], [(26 / 52, 5)], 0.0), None),
    ("mathon-16-3", "Mathon(Cycl(16,3))", (16, 10, 1), (1, 5, 16),
     ([(16 / 51, -1), (1 / 51, 16)], [(34 / 51, 4)], 0.0), None),
    ("mathon-11-5", "Mathon(Cycl(11,5))", (11, 8, 1), (1, 2, 11),
     ([(11 / 60, -1), (1 / 60, 11)], [(48 / 60, SQ(11.0))], 0.0), None),
    ("mathon-19-3", "Mathon(Cycl(19,3))", (19, 12, 1), (1, 6, 19),
     ([(19 / 60, -1), (1 / 60, 19)], [(40 / 60, SQ(19.0))], 0.0), None),
    ("taylor-srg29", "Taylor(SRG(29,14))", (29, 14, 1), (1, 14, 29),
     ([(29 / 60, -1), (1 / 60, 29)], [(30 / 60, SQ(29.0))], 0.0), None),
    ("taylor-p13", "Taylor(P(13))", (13, 6, 1), (1, 6, 13),
     ([(13 / 28, -1), (1 / 28, 13)], [(14 / 28, SQ(13.0))], 0.0), None),
    ("gq24-spread", "GQ(2,4) minus spread", (8, 6, 1), (1, 3, 8),
     ([(8 / 27, -1), (1 / 27, 8), (12 / 27, 2), (6 / 27, -4)], [], 0.0), None),
    ("doro", "Doro", (12, 10, 3), (1, 3, 8),
     ([(1 / 68, 12), (17 / 68, 4), (16 / 68, -5)], [], 34 / 68), None),
    ("locally-petersen", "Locally Petersen", (10, 6, 4), (1, 2, 5),
     ([(1 / 65, 10), (13 / 65, 5), (25 / 65, -3)], [], 26 / 65), None),
    ("taylor-gq22", "Taylor(GQ(2,2))", (15, 8, 1), (1, 8, 15),
     ([(15 / 32, -1), (6 / 32, -5), (10 / 32, 3), (1 / 32, 15)], [], 0.0), None),
    ("taylor-t6", "Taylor(T(6))", (15, 6, 1), (1, 6, 15),
     ([(15 / 32, -1), (10 / 32, -3), (6 / 32, 5), (1 / 32, 15)], [], 0.0), None),
    ("gosset", "Gosset / Taylor(Schlaefli)", (27, 10, 1), (1, 10, 27),
     ([(27 / 56, -1), (1 / 56, 27), (7 / 56, 9), (21 / 56, -3)], [], 0.0), None),
    ("taylor-co-schlafli", "Taylor(Co-Schlaefli)", (27, 16, 1), (1, 16, 27),
     ([(27 / 56, -1), (1 / 56, 27), (7 / 56, -9), (21 / 56, 3)], [], 0.0), None),
    ("gh22", "GH(2,2)", (6, 4, 4), (1, 1, 3),
     ([(27 / 63, -1), (1 / 63, 6), (14 / 63, -3), (21 / 63, 3)], [], 0.0), None),
    ("h34-doob", "H(3,4) / Doob", (9, 6, 3), (1, 2, 3),
     ([(27 / 64, 1), (27 / 64, -3), (9 / 64, 5), (1 / 64, 9)], [], 0.0),
     lambda: _hamming(3, 4)),
    ("wells", "Wells", (5, 4, 1, 1), (1, 1, 4, 5),
     ([(10 / 32, 1), (1 / 32, 5), (5 / 32, -3)], [(16 / 32, _R5)], 0.0), None),
    ("gh21", "GH(2,1)", (4, 2, 2), (1, 1, 2),
     ([(1 / 21, 4), (8 / 21, -2), (12 / 21, 1)], [(12 / 21, SQ(2.0))], 0.0), None),
    ("gh31", "GH(3,1)", (6, 3, 3), (1, 1, 2),
     ([(1 / 52, 6), (27 / 52, -2), (24 / 52, 2)], [(24 / 52, SQ(3.0))], 0.0), None),
    ("dodecahedron", "Dodecahedron", (3, 2, 1, 1, 1), (1, 1, 1, 2, 3),
     ([(5 / 20, 1), (4 / 20, -2), (1 / 20, 3)], [(6 / 20, _R5)], 4 / 20),
     lambda: _generalized_petersen(10, 2)),
    ("perkel", "Perkel", (6, 5, 2), (1, 1, 3),
     ([(1 / 57, 6), (20 / 57, -3), (36 / 57, 1.5)], [(36 / 57, _R5 / 2)], 0.0), None),
    ("go21", "GO(2,1)", (4, 2, 2, 2), (1, 1, 1, 2),
     ([(9 / 45, -1), (10 / 45, 1), (16 / 45, -2), (9 / 45, 3), (1 / 45, 4)], [], 0.0),
     None),
    ("cover3-gq22", "3-cover GQ(2,2)", (6, 4, 2, 1), (1, 1, 4, 6),
     ([(9 / 45, 1), (18 / 45, -2), (5 / 45, -3), (12 / 45, 3), (1 / 45, 6)], [], 0.0),
     None),
    ("j84", "J(8,4)", (16, 9, 4, 1), (1, 4, 9, 16),
     ([(1 / 70, 16), (7 / 70, 8), (28 / 70, -2), (20 / 70, 2), (14 / 70, -4)], [], 0.0),
     lambda: _johnson(8, 4)),
)

_APPENDIX_INDEX = {row[0]: row for row in _APPENDIX_ROWS}


# ---------------------------------------------------------------------------
# entry construction: each maker takes typed, range-checked, size-bounded
# values and returns the fields of its entry

def _make_complete(n):
    return dict(
        builder=lambda: build_graph(n, np.column_stack(np.triu_indices(n, 1))),
        intersection_array=IntersectionArray.from_bc((n - 1,), (1,)),
        closed_form=ExponentialSum.build(exponentials=[(1 / n, n - 1), ((n - 1) / n, -1)]),
    )


def _make_cycle(n):
    m = n // 2
    b = (2,) + (1,) * (m - 1)
    c = (1,) * (m - 1) + (2,) if n % 2 == 0 else (1,) * m
    return dict(
        builder=lambda: build_graph(n, [(i, (i + 1) % n) for i in range(n)]),
        intersection_array=IntersectionArray.from_bc(b, c),
    )


def _make_petersen():
    return dict(
        builder=lambda: _generalized_petersen(5, 2),
        intersection_array=IntersectionArray.from_bc((3, 2), (1, 1)),
        closed_form=ExponentialSum.build(exponentials=[(1 / 2, 1), (2 / 5, -2), (1 / 10, 3)]),
    )


def _make_johnson(n, d):
    form = None
    if d == 2:
        # tabulated two-frequency form; inconsistent with the three-node
        # spectrum of J(n,2), kept verbatim for the flagging machinery
        rho = math.sqrt((n - 2) * (n + 6))
        amp = math.sqrt((n - 2) / (n + 6))
        form = ExponentialSum.build(
            exponentials=[
                ((1 - amp) / 2, (n - 2 + rho) / 2),
                ((1 + amp) / 2, (n - 2 - rho) / 2),
            ]
        )
    return dict(
        builder=lambda: _johnson(n, d),
        intersection_array=IntersectionArray.from_bc(
            tuple((d - i) * (n - d - i) for i in range(d)), tuple((i + 1) ** 2 for i in range(d))
        ),
        closed_form=form,
    )


def _make_srg(v, kappa, lam, mu):
    return dict(
        intersection_array=IntersectionArray.from_bc((kappa, kappa - lam - 1), (1, mu)),
        closed_form=_srg_closed_form(v, kappa, lam, mu),
    )


def _make_dihedral(m):
    return dict(
        builder=lambda: build_graph(2 * m, [(u, m + v) for u in range(m) for v in range(m)]),
        intersection_array=IntersectionArray.from_bc((m, m - 1), (1, m)),
        closed_form=ExponentialSum.build(cosines=[(1 / m, m)], constant=(m - 1) / m),
    )


def _make_hamming(d, q):
    return dict(
        builder=lambda: _hamming(d, q),
        intersection_array=IntersectionArray.from_bc(
            tuple((d - i) * (q - 1) for i in range(d)), tuple(i + 1 for i in range(d))
        ),
        closed_form=ExponentialSum.build(
            exponentials=[
                (math.comb(d, j) * (q - 1) ** j / q ** d, (q - 1) * d - q * j)
                for j in range(d + 1)
            ]
        ),
    )


def _make_path(n):
    return dict(
        builder=lambda: build_graph(n, [(i, i + 1) for i in range(n - 1)]),
        jacobi=JacobiCoefficients(alpha=(0.0,) * n, omega=(1.0,) * (n - 1)),
    )


def _make_glued_trees(depth):
    return dict(
        builder=lambda: _glued_trees(depth),
        jacobi=JacobiCoefficients(alpha=(0.0,) * (2 * depth + 1), omega=(2.0,) * (2 * depth)),
    )


def _make_tchebichef1(n, m):
    w = 4.0 ** (m - 1.0)
    return dict(
        jacobi=JacobiCoefficients(alpha=(0.0,) * n, omega=(2.0 * w,) + (w,) * (n - 2)),
        closed_form=ExponentialSum.build(
            exponentials=[
                (1.0 / n, 2.0 ** m * math.cos((2 * l + 1) * math.pi / (2 * n)))
                for l in range(n)
            ]
        ),
    )


def _make_tchebichef2(n, m):
    return dict(
        jacobi=JacobiCoefficients(alpha=(0.0,) * n, omega=(4.0 ** (m - 1.0),) * (n - 1)),
        closed_form=ExponentialSum.build(
            exponentials=[
                (2.0 / (n + 1) * math.sin(k * math.pi / (n + 1)) ** 2,
                 2.0 ** m * math.cos(k * math.pi / (n + 1)))
                for k in range(1, n + 1)
            ]
        ),
    )


def _make_appendix(row_id):
    _, _, b, c, (exponentials, cosines, constant), builder = _APPENDIX_INDEX[row_id]
    return dict(
        builder=builder,
        intersection_array=IntersectionArray.from_bc(b, c),
        closed_form=ExponentialSum.build(exponentials, cosines, constant),
    )


# 2 ** _SIZE_BITS exceeds MAX_VERTICES, so a size whose exponent (or binomial
# lower index, C(n, d) growing in d up to n/2 and C(2k, k) >= 2 ** k) is
# clipped at _SIZE_BITS passes the size rule exactly when the true size
# does, at a cost that does not grow with the parameters
_SIZE_BITS = MAX_VERTICES.bit_length()


@dataclass(frozen=True)
class _Family:
    maker: Callable[..., dict]
    schema: str                  # "family:name,name"; the names count the parameters
    listing: str | None          # None: `ctqw catalog` lists the rows one by one
    domain: str = ""             # the valid range, in words
    valid: Callable[..., bool] = lambda *values: True
    size: Callable[..., int] | None = None   # None: array-only or fixed size
    kinds: tuple[type, ...] | None = None    # int for every parameter when None


# family -> how make_entry parses, range-checks, names and size-bounds its
# specs before the maker builds the fields; `srg` (array-only) and the fixed
# `petersen` and `appendix` rows have no size
_FAMILIES: dict[str, _Family] = {
    "complete": _Family(
        _make_complete, "complete:n", "complete graph family",
        "n >= 2", lambda n: n >= 2, lambda n: n,
    ),
    "cycle": _Family(
        _make_cycle, "cycle:n", "cycle family", "n >= 3", lambda n: n >= 3, lambda n: n,
    ),
    "petersen": _Family(_make_petersen, "petersen", "strongly regular (10,3,0,1)"),
    "johnson": _Family(
        _make_johnson, "johnson:n,d", "Johnson graph family",
        "n >= 2 and 1 <= d <= n/2", lambda n, d: n >= 2 and 1 <= d and 2 * d <= n,
        lambda n, d: math.comb(n, min(d, _SIZE_BITS)),
    ),
    # no size, but the spectrum and coefficients are doubles: beyond 2**53
    # the parameters are no longer exact, and from ~1e308 on they do not
    # convert at all (OverflowError)
    "srg": _Family(
        _make_srg, "srg:v,kappa,lambda,mu", "strongly regular family",
        "0 < kappa < v-1, 0 <= lambda < kappa, 1 <= mu <= kappa, "
        "(v-kappa-1) mu = kappa (kappa-lambda-1) and v <= 2**53",
        lambda v, k, lam, mu: (
            0 < k < v - 1 and 0 <= lam < k and 1 <= mu <= k
            and (v - k - 1) * mu == k * (k - lam - 1) and v <= 2 ** 53
        ),
    ),
    "dihedral_srg": _Family(
        _make_dihedral, "dihedral_srg:m", "dihedral normal-subgroup strongly regular family",
        "m >= 2", lambda m: m >= 2, lambda m: 2 * m,
    ),
    "hamming": _Family(
        _make_hamming, "hamming:d,q", "Hamming graph family",
        "d >= 1 and q >= 2", lambda d, q: d >= 1 and q >= 2,
        lambda d, q: q ** min(d, _SIZE_BITS),
    ),
    "path": _Family(
        _make_path, "path:n", "finite path family", "n >= 2", lambda n: n >= 2, lambda n: n,
    ),
    "glued_trees": _Family(
        _make_glued_trees, "glued_trees:depth", "glued binary trees family",
        "depth >= 1", lambda depth: depth >= 1,
        lambda depth: 3 * 2 ** min(depth, _SIZE_BITS) - 2,
    ),
    # from m = 513 on, the weight 4 ** (m - 1) overflows a double
    "tchebichef1": _Family(
        _make_tchebichef1, "tchebichef1:n,m", "first-kind Chebyshev coefficient family",
        "n >= 2 and 1 <= m < 513", lambda n, m: n >= 2 and 1 <= m < 513, lambda n, m: n,
        kinds=(int, float),
    ),
    "tchebichef2": _Family(
        _make_tchebichef2, "tchebichef2:n,m", "second-kind Chebyshev coefficient family",
        "n >= 2 and 1 <= m < 513", lambda n, m: n >= 2 and 1 <= m < 513, lambda n, m: n,
        kinds=(int, float),
    ),
    "appendix": _Family(
        _make_appendix, "appendix:row", None,
        "a reference table row: " + ", ".join(_APPENDIX_INDEX),
        lambda row: row in _APPENDIX_INDEX, kinds=(str,),
    ),
}

_KIND_TEXT = {int: "an integer", float: "a number", str: "a row name"}


def _typed(kind: type, value):
    """``value`` as ``kind``, or None if it is not one. An integer may come
    as an integral float; neither kind of number may be a bool or a string."""
    if kind is str or isinstance(value, (bool, str)):
        return value if kind is str and isinstance(value, str) else None
    if kind is int and isinstance(value, int):
        return value
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        return None
    if kind is float:
        return number
    return int(value) if number.is_integer() else None


def _format_id(family: str, values: tuple) -> str:
    rendered = [str(int(v) if isinstance(v, float) and v.is_integer() else v) for v in values]
    return f"{family}:{','.join(rendered)}" if values else family


def make_entry(family: str, params=()) -> CatalogEntry:
    """The entry of ``family`` with ``params``; see the module docstring for
    the order of the checks."""
    known = _FAMILIES.get(family)
    if known is None:
        raise UnknownFamily(f"unknown family {family!r}; known: {', '.join(sorted(_FAMILIES))}")
    _, names = parse_spec(known.schema)
    params = tuple(params)
    if len(params) != len(names):
        raise InvalidParams(f"{known.schema} takes {len(names)} parameter(s), got {len(params)}")
    kinds = known.kinds or (int,) * len(names)
    values = tuple(_typed(kind, p) for kind, p in zip(kinds, params))
    for name, kind, p, value in zip(names, kinds, params, values):
        if value is None:
            raise InvalidParams(f"{family} parameter {name} must be {_KIND_TEXT[kind]}, got {p!r}")
    entry_id = _format_id(family, values)
    if not known.valid(*values):
        raise InvalidParams(f"{family} needs {known.domain}, got {entry_id}")
    if known.size is not None and known.size(*values) > MAX_VERTICES:
        raise InvalidParams(f"{entry_id} is too large (limit {MAX_VERTICES} vertices or levels)")
    return CatalogEntry(id=entry_id, **known.maker(*values))


def parse_spec(spec: str) -> tuple[str, tuple]:
    """Parse ``family`` or ``family:p1,p2,...`` into (family, params)."""
    family, _, tail = spec.partition(":")
    family = family.strip()
    if not tail:
        return family, ()
    params = []
    for token in tail.split(","):
        token = token.strip()
        try:
            params.append(int(token))
        except ValueError:
            try:
                params.append(float(token))
            except ValueError:
                params.append(token)
    return family, tuple(params)


def entry_from_spec(spec: str) -> CatalogEntry:
    family, params = parse_spec(spec)
    return make_entry(family, params)


def list_entries() -> tuple[tuple[str, str, str], ...]:
    """(id, params schema, listing text) for every family and appendix row."""
    families = [
        (family, known.schema, known.listing)
        for family, known in sorted(_FAMILIES.items())
        if known.listing is not None
    ]
    rows = [
        (f"appendix:{rid}", f"appendix:{rid}", f'distance-regular reference table row "{name}"')
        for rid, name, *_ in _APPENDIX_ROWS
    ]
    return tuple(families + rows)
