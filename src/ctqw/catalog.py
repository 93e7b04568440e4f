"""Named graph families and tabulated reference rows.

Families carry explicit constructors where a construction is feasible at
desk scale; the remaining rows are array-only and run through the pipeline
from their intersection arrays. Tabulated closed forms are stored verbatim,
including the handful that are internally inconsistent: the comparison
machinery flags those as ``paper-typo-suspect`` instead of silently
correcting them, and the engine/oracle output is authoritative.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

from .amplitudes import ExponentialSum
from .errors import InvalidParams, UnknownFamily
from .graphs import MAX_VERTICES, Graph, IntersectionArray, build_graph
from .jacobi import JacobiCoefficients, qd_from_intersection_array

SQ = math.sqrt


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    id: str
    builder: Callable[[], Graph] | None = None
    intersection_array: IntersectionArray | None = None
    jacobi: JacobiCoefficients | None = None
    closed_form: ExponentialSum | None = None

    @property
    def is_constructible(self) -> bool:
        return self.builder is not None

    def build(self) -> Graph:
        if self.builder is None:
            raise InvalidParams(f"{self.id} has no explicit construction")
        return self.builder()

    def jacobi_coefficients(self) -> JacobiCoefficients:
        """Reduction coefficients: the stored ones, else those of the
        intersection array (every maker sets one of the two)."""
        if self.jacobi is not None:
            return self.jacobi
        return qd_from_intersection_array(self.intersection_array)


# ---------------------------------------------------------------------------
# explicit constructions

def _complete(n: int) -> Graph:
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _cycle(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def _path(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def _complete_bipartite(m: int) -> Graph:
    return build_graph(2 * m, [(u, m + v) for u in range(m) for v in range(m)])


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
    verts = list(itertools.combinations(range(n), d))
    index = {v: i for i, v in enumerate(verts)}
    edges = []
    for i, a in enumerate(verts):
        sa = set(a)
        for b in verts[i + 1 :]:
            if len(sa & set(b)) == d - 1:
                edges.append((i, index[b]))
    return build_graph(len(verts), edges)


def _hamming(d: int, q: int) -> Graph:
    verts = list(itertools.product(range(q), repeat=d))
    index = {v: i for i, v in enumerate(verts)}
    edges = []
    for i, a in enumerate(verts):
        for pos in range(d):
            for sym in range(a[pos] + 1, q):
                b = a[:pos] + (sym,) + a[pos + 1 :]
                edges.append((i, index[b]))
    return build_graph(len(verts), edges)


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

def _srg_check(v: int, kappa: int, lam: int, mu: int) -> None:
    if not (0 < kappa < v - 1):
        raise InvalidParams(f"srg needs 0 < kappa < v-1, got v={v}, kappa={kappa}")
    if not (0 <= lam < kappa):
        raise InvalidParams(f"srg needs 0 <= lambda < kappa, got lambda={lam}")
    if not (1 <= mu <= kappa):
        raise InvalidParams(f"srg needs 1 <= mu <= kappa, got mu={mu}")
    if (v - kappa - 1) * mu != kappa * (kappa - lam - 1):
        raise InvalidParams(
            f"srg parameters ({v},{kappa},{lam},{mu}) violate the counting identity"
        )


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


def appendix_row_ids() -> tuple[str, ...]:
    return tuple(row[0] for row in _APPENDIX_ROWS)


# ---------------------------------------------------------------------------
# entry construction

def _int_params(params, count, family):
    if len(params) != count:
        raise InvalidParams(f"{family} takes {count} parameter(s), got {len(params)}")
    out = []
    for p in params:
        if isinstance(p, bool) or (not isinstance(p, int) and not float(p).is_integer()):
            raise InvalidParams(f"{family} parameters must be integers, got {p!r}")
        out.append(int(p))
    return out


def _format_id(family: str, params: tuple) -> str:
    if not params:
        return family
    rendered = []
    for p in params:
        if isinstance(p, float) and p.is_integer():
            p = int(p)
        rendered.append(str(p))
    return f"{family}:{','.join(rendered)}"


def _make_complete(params) -> CatalogEntry:
    (n,) = _int_params(params, 1, "complete")
    if n < 2:
        raise InvalidParams(f"complete graph needs n >= 2, got {n}")
    ia = IntersectionArray.from_bc((n - 1,), (1,))
    form = ExponentialSum.build(exponentials=[(1 / n, n - 1), ((n - 1) / n, -1)])
    return CatalogEntry(
        id=_format_id("complete", (n,)),
        builder=lambda: _complete(n),
        intersection_array=ia,
        closed_form=form,
    )


def _make_cycle(params) -> CatalogEntry:
    (n,) = _int_params(params, 1, "cycle")
    if n < 3:
        raise InvalidParams(f"cycle needs n >= 3, got {n}")
    m = n // 2
    b = (2,) + (1,) * (m - 1)
    c = (1,) * (m - 1) + (2,) if n % 2 == 0 else (1,) * m
    ia = IntersectionArray.from_bc(b, c)
    return CatalogEntry(
        id=_format_id("cycle", (n,)),
        builder=lambda: _cycle(n),
        intersection_array=ia,
    )


def _make_petersen(params) -> CatalogEntry:
    if params:
        raise InvalidParams("petersen takes no parameters")
    ia = IntersectionArray.from_bc((3, 2), (1, 1))
    form = ExponentialSum.build(
        exponentials=[(1 / 2, 1), (2 / 5, -2), (1 / 10, 3)]
    )
    return CatalogEntry(
        id="petersen",
        builder=lambda: _generalized_petersen(5, 2),
        intersection_array=ia,
        closed_form=form,
    )


def _make_johnson(params) -> CatalogEntry:
    n, d = _int_params(params, 2, "johnson")
    if n < 2 or d < 1 or 2 * d > n:
        raise InvalidParams(f"johnson needs n >= 2 and 1 <= d <= n/2, got ({n},{d})")
    if math.comb(n, d) > MAX_VERTICES:
        raise InvalidParams(f"johnson({n},{d}) too large to construct")
    b = tuple((d - i) * (n - d - i) for i in range(d))
    c = tuple((i + 1) ** 2 for i in range(d))
    ia = IntersectionArray.from_bc(b, c)
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
    return CatalogEntry(
        id=_format_id("johnson", (n, d)),
        builder=lambda: _johnson(n, d),
        intersection_array=ia,
        closed_form=form,
    )


def _make_srg(params) -> CatalogEntry:
    v, kappa, lam, mu = _int_params(params, 4, "srg")
    _srg_check(v, kappa, lam, mu)
    ia = IntersectionArray.from_bc((kappa, kappa - lam - 1), (1, mu))
    return CatalogEntry(
        id=_format_id("srg", (v, kappa, lam, mu)),
        intersection_array=ia,
        closed_form=_srg_closed_form(v, kappa, lam, mu),
    )


def _make_dihedral(params) -> CatalogEntry:
    (m,) = _int_params(params, 1, "dihedral_srg")
    if m < 2:
        raise InvalidParams(f"dihedral_srg needs m >= 2, got {m}")
    ia = IntersectionArray.from_bc((m, m - 1), (1, m))
    form = ExponentialSum.build(cosines=[(1 / m, m)], constant=(m - 1) / m)
    return CatalogEntry(
        id=_format_id("dihedral_srg", (m,)),
        builder=lambda: _complete_bipartite(m),
        intersection_array=ia,
        closed_form=form,
    )


def _make_hamming(params) -> CatalogEntry:
    d, q = _int_params(params, 2, "hamming")
    if d < 1 or q < 2:
        raise InvalidParams(f"hamming needs d >= 1 and q >= 2, got ({d},{q})")
    if q ** d > MAX_VERTICES:
        raise InvalidParams(f"hamming({d},{q}) too large to construct")
    b = tuple((d - i) * (q - 1) for i in range(d))
    c = tuple(i + 1 for i in range(d))
    ia = IntersectionArray.from_bc(b, c)
    v = q ** d
    form = ExponentialSum.build(
        exponentials=[
            (math.comb(d, j) * (q - 1) ** j / v, (q - 1) * d - q * j)
            for j in range(d + 1)
        ]
    )
    return CatalogEntry(
        id=_format_id("hamming", (d, q)),
        builder=lambda: _hamming(d, q),
        intersection_array=ia,
        closed_form=form,
    )


def _make_path(params) -> CatalogEntry:
    (n,) = _int_params(params, 1, "path")
    if n < 2:
        raise InvalidParams(f"path needs n >= 2, got {n}")
    jc = JacobiCoefficients(alpha=(0.0,) * n, omega=(1.0,) * (n - 1))
    return CatalogEntry(
        id=_format_id("path", (n,)),
        builder=lambda: _path(n),
        jacobi=jc,
    )


def _make_glued_trees(params) -> CatalogEntry:
    (depth,) = _int_params(params, 1, "glued_trees")
    if depth < 1:
        raise InvalidParams(f"glued_trees needs depth >= 1, got {depth}")
    size = 3 * 2 ** depth - 2
    if size > MAX_VERTICES:
        raise InvalidParams(f"glued_trees({depth}) has {size} vertices (limit {MAX_VERTICES})")
    jc = JacobiCoefficients(
        alpha=(0.0,) * (2 * depth + 1), omega=(2.0,) * (2 * depth)
    )
    return CatalogEntry(
        id=_format_id("glued_trees", (depth,)),
        builder=lambda: _glued_trees(depth),
        jacobi=jc,
    )


def _tchebichef_params(params, family):
    if len(params) != 2:
        raise InvalidParams(f"{family} takes (n, m), got {len(params)} parameter(s)")
    n, m = params
    if isinstance(n, bool) or (not isinstance(n, int) and not float(n).is_integer()):
        raise InvalidParams(f"{family} size must be an integer, got {n!r}")
    n = int(n)
    m = float(m)
    if n < 2:
        raise InvalidParams(f"{family} needs n >= 2, got {n}")
    if not (m >= 1.0 and math.isfinite(m)):
        raise InvalidParams(f"{family} scale exponent must be >= 1, got {m}")
    return n, m


def _make_tchebichef1(params) -> CatalogEntry:
    n, m = _tchebichef_params(params, "tchebichef1")
    scale = 2.0 ** m
    w = 4.0 ** (m - 1.0)
    jc = JacobiCoefficients(
        alpha=(0.0,) * n, omega=(2.0 * w,) + (w,) * (n - 2)
    )
    form = ExponentialSum.build(
        exponentials=[
            (1.0 / n, scale * math.cos((2 * l + 1) * math.pi / (2 * n)))
            for l in range(n)
        ]
    )
    return CatalogEntry(
        id=_format_id("tchebichef1", (n, m)),
        jacobi=jc,
        closed_form=form,
    )


def _make_tchebichef2(params) -> CatalogEntry:
    n, m = _tchebichef_params(params, "tchebichef2")
    scale = 2.0 ** m
    w = 4.0 ** (m - 1.0)
    jc = JacobiCoefficients(alpha=(0.0,) * n, omega=(w,) * (n - 1))
    form = ExponentialSum.build(
        exponentials=[
            (
                2.0 / (n + 1) * math.sin(k * math.pi / (n + 1)) ** 2,
                scale * math.cos(k * math.pi / (n + 1)),
            )
            for k in range(1, n + 1)
        ]
    )
    return CatalogEntry(
        id=_format_id("tchebichef2", (n, m)),
        jacobi=jc,
        closed_form=form,
    )


def _make_appendix(params) -> CatalogEntry:
    if len(params) != 1 or not isinstance(params[0], str):
        raise InvalidParams("appendix takes a single row id, e.g. appendix:icosahedron")
    row_id = params[0]
    row = _APPENDIX_INDEX.get(row_id)
    if row is None:
        raise InvalidParams(
            f"unknown appendix row {row_id!r}; known: {', '.join(appendix_row_ids())}"
        )
    rid, _, b, c, (exponentials, cosines, constant), builder = row
    ia = IntersectionArray.from_bc(b, c)
    form = ExponentialSum.build(exponentials, cosines, constant)
    return CatalogEntry(
        id=f"appendix:{rid}",
        builder=builder,
        intersection_array=ia,
        closed_form=form,
    )


# family -> (maker, params schema, listing text); the appendix family has no
# schema of its own because `ctqw catalog` lists its rows one by one
_FAMILIES: dict[str, tuple[Callable[[tuple], CatalogEntry], str | None, str | None]] = {
    "complete": (_make_complete, "complete:n", "complete graph family"),
    "cycle": (_make_cycle, "cycle:n", "cycle family"),
    "petersen": (_make_petersen, "petersen", "strongly regular (10,3,0,1)"),
    "johnson": (_make_johnson, "johnson:n,d", "Johnson graph family"),
    "srg": (_make_srg, "srg:v,kappa,lambda,mu", "strongly regular family"),
    "dihedral_srg": (
        _make_dihedral, "dihedral_srg:m", "dihedral normal-subgroup strongly regular family"
    ),
    "hamming": (_make_hamming, "hamming:d,q", "Hamming graph family"),
    "path": (_make_path, "path:n", "finite path family"),
    "glued_trees": (_make_glued_trees, "glued_trees:depth", "glued binary trees family"),
    "tchebichef1": (
        _make_tchebichef1, "tchebichef1:n,m", "first-kind Chebyshev coefficient family"
    ),
    "tchebichef2": (
        _make_tchebichef2, "tchebichef2:n,m", "second-kind Chebyshev coefficient family"
    ),
    "appendix": (_make_appendix, None, None),
}


def make_entry(family: str, params=()) -> CatalogEntry:
    known = _FAMILIES.get(family)
    if known is None:
        raise UnknownFamily(
            f"unknown family {family!r}; known: {', '.join(sorted(_FAMILIES))}"
        )
    return known[0](tuple(params))


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


def is_known_family(name: str) -> bool:
    return name in _FAMILIES


def list_entries() -> tuple[tuple[str, str, str], ...]:
    """(id, params schema, listing text) for every family and appendix row."""
    out = []
    for family, (_, schema, listing) in sorted(_FAMILIES.items()):
        if schema is not None:
            out.append((family, schema, listing))
    for row in _APPENDIX_ROWS:
        rid, name = row[0], row[1]
        out.append(
            (f"appendix:{rid}", f"appendix:{rid}", f'distance-regular reference table row "{name}"')
        )
    return tuple(out)
