"""Cross-validation of the spectral pipeline against tabulated closed forms
and the oracle, the action of exp(-iAt) on the origin's vertex state.

Three checks exist; the conservation check applies to every walk, the
other two when their input exists:

* ``check_oracle``, whenever the pipeline has a graph (built here if
  nothing read it before): every vertex at every sample, for every
  origin. The walk stays in the Krylov space of the origin's vertex state
  (Krovi & Brun, PRA 75, 062332, 2007), so the level amplitudes mapped
  through that space's orthonormal basis, from the partition's reduction,
  give the whole per-vertex state; on QD-type origins the basis columns
  are the normalized shell indicators;
* ``check_conservation``, always: the total probability of the series
  ``compute`` would emit stays within ``CONSERVATION_TOL`` of 1;
* ``check_closed_form``, when the pipeline carries a tabulated closed form
  (a catalog entry walked from vertex 0): row 0 of the series against it.

A ``Pipeline`` holds only what a walk is given and derives the rest on
first read; one checked partition gives a graph walk its coefficients, its
Krylov basis and its shell sizes, which only the JSON of ``ctqw compute``
reads. Each check reads the pipeline and its series, never the catalog entry.
``entry_status`` is the one place that runs them and decides the outcome:
both ``ctqw verify`` (which prints its lines and exits 0 or 1 on ``ok``)
and the acceptance suite call it. A walk that fails the oracle or the
conservation check has the status ``failed``. A closed-form mismatch does
not by itself fail verification: the tabulated expression is flagged
``paper-typo-suspect`` and, when the oracle confirms the pipeline or there
is no oracle, the engine output is authoritative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .amplitudes import AmplitudeSeries, ExponentialSum, amplitude_series
from .catalog import CatalogEntry
from .errors import InvalidParams
from .graphs import Graph, IntersectionArray, check_vertex, is_integer
from .jacobi import JacobiCoefficients, equitable_cells, qd_from_intersection_array, reduce_partition
from .oracle import oracle_amplitudes
from .stieltjes import SpectralMeasure, spectral_measure

DEFAULT_ORACLE_TOL = 1e-8
DEFAULT_CLOSED_FORM_TOL = 1e-9
# fixed, not overridden by --tol: the bound the acceptance suite holds the
# conservation defect of every emitted series to
CONSERVATION_TOL = 1e-10

VERIFIED = "verified"
TYPO_SUSPECT = "paper-typo-suspect"
UNVERIFIED = "unverified-array-only"
FAILED = "failed"


@dataclass(frozen=True)
class Pipeline:
    """What a walk is given; the rest is derived on first read and kept."""

    origin: int
    builder: Callable[[], Graph] | None = field(default=None, repr=False)
    coefficients: JacobiCoefficients | None = None       # stated, of a walk from vertex 0 only
    intersection_array: IntersectionArray | None = None  # stated, of a walk from vertex 0 only
    closed_form: ExponentialSum | None = None            # tabulated q0, from vertex 0 only

    @cached_property
    def graph(self) -> Graph | None:
        """The walk's graph; None when there is no construction."""
        return None if self.builder is None else self.builder()

    @cached_property
    def partition(self) -> tuple[np.ndarray, np.ndarray]:
        """The colouring and integer quotient of ``equitable_cells``."""
        return equitable_cells(self.graph, self.origin)

    def krylov(self) -> tuple[JacobiCoefficients, np.ndarray]:
        """The partition's reduction: the coefficients and the (n, dim)
        orthonormal Krylov basis. The basis is not kept; on a walk stating
        neither coefficients nor an array they are, as ``jc``, so one
        reduction serves both."""
        return self._reduce(basis=True)

    def _reduce(self, basis: bool) -> tuple[JacobiCoefficients, np.ndarray | None]:
        jc, q = reduce_partition(self.graph, self.origin, self.partition, basis)
        if self.coefficients is None and self.intersection_array is None:
            # the slot cached_property fills, so jc never reduces again
            jc = self.__dict__.setdefault("jc", jc)
        return jc, q

    @cached_property
    def jc(self) -> JacobiCoefficients:
        """The stated coefficients, else the stated array's, else those of
        the partition's reduction."""
        if self.coefficients is not None:
            return self.coefficients
        if self.intersection_array is not None:
            return qd_from_intersection_array(self.intersection_array)
        return self._reduce(basis=False)[0]

    @cached_property
    def measure(self) -> SpectralMeasure:
        return spectral_measure(self.jc)

    @cached_property
    def kappa(self) -> tuple[int, ...] | None:
        """The stated array's shell sizes, else the cell sizes when the cells
        are the BFS shells (the origin is QD type), else None: the levels are
        then Krylov levels, not shells."""
        if self.intersection_array is not None:
            return self.intersection_array.shell_sizes()
        if self.graph is None:
            return None
        colour, e = self.partition
        # the cells are the shells exactly when the quotient is tridiagonal:
        # cell j + 1 then holds the neighbours of cell j outside cells j - 1
        # and j, and each of its vertices has one in cell j (equitable)
        tridiagonal = np.count_nonzero(e) == sum(np.count_nonzero(e.diagonal(d)) for d in (-1, 0, 1))
        return tuple(np.bincount(colour).tolist()) if tridiagonal else None

    def series(self, times) -> AmplitudeSeries:
        return amplitude_series(self.measure, self.jc, times)


def pipeline_for_graph(g: Graph, origin: int) -> Pipeline:
    """The walk on an explicit graph from any origin; its coefficients come
    from the reduction of its partition on first read."""
    check_vertex(g.n, origin)
    return Pipeline(origin=origin, builder=lambda: g)


def pipeline_for_entry(entry: CatalogEntry, origin: int = 0) -> Pipeline:
    """The walk on a catalog entry. From vertex 0 the entry states its
    coefficients or its intersection array, and its closed form, if any; any
    other origin is a walk on the built graph."""
    if origin != 0 or not is_integer(origin):
        return pipeline_for_graph(entry.build(), origin)
    return Pipeline(
        origin=0,
        builder=None if entry.builder is None else entry.build,
        coefficients=entry.jacobi,
        intersection_array=entry.intersection_array,
        closed_form=entry.closed_form,
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        # False for a NaN error
        return self.max_error < self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"{self.name}: max err {self.max_error:.3e} tol {self.tolerance:.1e} {status}{tail}"


def check_closed_form(
    pipeline: Pipeline,
    series: AmplitudeSeries,
    *,
    tol: float = DEFAULT_CLOSED_FORM_TOL,
) -> CheckResult | None:
    """The return amplitude in ``series``, the pipeline's series, against the
    pipeline's closed form at the same samples; None when it has none."""
    if pipeline.closed_form is None:
        return None
    err = float(np.abs(series.values[0] - pipeline.closed_form(series.times)).max())
    return CheckResult(name="closed-form q0", max_error=err, tolerance=tol)


def check_conservation(series: AmplitudeSeries) -> CheckResult:
    """Largest |sum_l |q_l|^2 - 1| of ``series`` over its samples."""
    defect = float(series.conservation_defect.max())
    return CheckResult(name="conservation", max_error=defect, tolerance=CONSERVATION_TOL)


def check_oracle(
    pipeline: Pipeline,
    series: AmplitudeSeries,
    basis: np.ndarray,
    *,
    tol: float = DEFAULT_ORACLE_TOL,
) -> CheckResult:
    """Every vertex's amplitude in ``series``, the pipeline's series, against
    the oracle's propagator column at the same samples.

    The level amplitudes are mapped to vertices through ``basis``, the
    orthonormal Krylov basis of ``pipeline.krylov()``; the error is the
    largest deviation over all vertices and samples. A walk whose level count
    differs from the Krylov dimension fails without a comparison. Requires
    the pipeline to carry a graph.
    """
    if pipeline.graph is None:
        raise InvalidParams("oracle comparison needs an explicit graph")
    g = pipeline.graph
    name = "oracle vertices"
    if basis.shape[1] != pipeline.jc.dim:
        detail = f"Krylov dimension {basis.shape[1]}, walk has {pipeline.jc.dim} levels"
        return CheckResult(name=name, max_error=np.inf, tolerance=tol, detail=detail)
    want = oracle_amplitudes(g, pipeline.origin, series.times)
    err = float(np.abs(basis @ series.values - want).max())
    return CheckResult(
        name=name,
        max_error=err,
        tolerance=tol,
        detail=f"all {g.n} vertices, {basis.shape[1]} levels",
    )


@dataclass(frozen=True)
class EntryStatus:
    status: str          # verified | paper-typo-suspect | unverified-array-only | failed
    checks: tuple[CheckResult, ...]
    lines: tuple[str, ...]  # the report ``ctqw verify`` prints, verdict last

    @property
    def ok(self) -> bool:
        """Engine output consistent with every independent check."""
        return self.status != FAILED


def entry_status(
    pipeline: Pipeline,
    times,
    *,
    closed_tol: float = DEFAULT_CLOSED_FORM_TOL,
    oracle_tol: float = DEFAULT_ORACLE_TOL,
) -> EntryStatus:
    """Run every check that applies to a walk and resolve its flag.

    The oracle runs when the pipeline carries a graph; the conservation
    check always; the closed form when the pipeline carries one. All three
    read the one series evaluated here. ``ok`` is false exactly when the
    oracle ran and failed or the conservation check failed, and such a walk
    is ``failed``. Of the others, a closed-form mismatch becomes
    ``paper-typo-suspect``, an oracle confirmation ``verified``, and a walk
    no oracle could check stays ``unverified-array-only``.
    """
    # one reduction gives a graph walk its coefficients and the oracle its
    # basis; the basis is dropped when the oracle returns
    basis = None if pipeline.graph is None else pipeline.krylov()[1]
    series = pipeline.series(times)
    oracle = None if basis is None else check_oracle(pipeline, series, basis, tol=oracle_tol)
    conservation = check_conservation(series)
    closed = check_closed_form(pipeline, series, tol=closed_tol)
    checks = tuple(c for c in (oracle, conservation, closed) if c is not None)
    # a closed-form mismatch gets its own line, which says how it is resolved
    flagged = closed is not None and not closed.passed
    lines = [c.line() for c in checks if not (flagged and c is closed)]
    if flagged:
        if oracle is None:
            resolution = f"(no oracle available; engine output authoritative) {TYPO_SUSPECT}"
        elif oracle.passed:
            resolution = f"-> {TYPO_SUSPECT} (engine confirmed by oracle) PASS"
        else:
            resolution = "(oracle failed too)"
        lines.append(f"{closed.line().removesuffix('FAIL')}MISMATCH {resolution}")

    ok = conservation.passed and (oracle is None or oracle.passed)
    lines.append(f"VERIFY {'PASS' if ok else 'FAIL'}")
    if not ok:
        status = FAILED
    elif flagged:
        status = TYPO_SUSPECT
    elif oracle is not None:
        status = VERIFIED
    else:
        status = UNVERIFIED
    return EntryStatus(status=status, checks=checks, lines=tuple(lines))
