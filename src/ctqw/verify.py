"""Cross-validation of the spectral pipeline against tabulated closed forms
and the oracle, the action of exp(-iAt) on the origin's vertex state.

Three comparisons exist and any subset may apply to a given input:

* pipeline vs tabulated closed form (entries that carry one);
* pipeline vs oracle over all strata (entries with an explicit construction);
* for non-QD stratifications, pipeline (Lanczos) vs oracle on the return
  amplitude only, since higher Krylov levels are not shell overlaps.

A closed-form mismatch does not by itself fail verification: when the oracle
confirms the pipeline, the tabulated expression is flagged
``paper-typo-suspect`` and the engine output is authoritative.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .amplitudes import AmplitudeSeries, amplitude_series, return_amplitude
from .catalog import CatalogEntry
from .errors import InvalidParams
from .graphs import Graph, Stratification, classify_qd, stratify, vertex_state
from .jacobi import JacobiCoefficients, jacobi_from_strata, lanczos
from .oracle import aggregate_to_strata, oracle_amplitudes
from .stieltjes import SpectralMeasure, spectral_measure

logger = logging.getLogger(__name__)

DEFAULT_ORACLE_TOL = 1e-8
DEFAULT_CLOSED_FORM_TOL = 1e-9

VERIFIED = "verified"
TYPO_SUSPECT = "paper-typo-suspect"
UNVERIFIED = "unverified-array-only"


@dataclass(frozen=True)
class Pipeline:
    """Everything the spectral route produces for one walk."""

    jc: JacobiCoefficients
    measure: SpectralMeasure
    kappa: tuple[int, ...] | None
    graph: Graph | None = None
    strat: Stratification | None = None
    is_qd: bool = True

    def series(self, times) -> AmplitudeSeries:
        return amplitude_series(self.measure, self.jc, times, kappa=self.kappa)


def pipeline_for_graph(g: Graph, origin: int) -> Pipeline:
    """Spectral route for an explicit graph: shell counts when the
    stratification is QD type, Lanczos from the vertex state otherwise."""
    strat = stratify(g, origin)
    if classify_qd(g, strat):
        jc = jacobi_from_strata(g, strat)
        return Pipeline(
            jc=jc,
            measure=spectral_measure(jc),
            kappa=strat.kappa,
            graph=g,
            strat=strat,
            is_qd=True,
        )
    jc = lanczos(g, vertex_state(g.n, origin))
    logger.info("origin %d gives a non-QD stratification; using Lanczos", origin)
    return Pipeline(
        jc=jc,
        measure=spectral_measure(jc),
        kappa=None,
        graph=g,
        strat=strat,
        is_qd=False,
    )


def pipeline_for_entry(entry: CatalogEntry, origin: int | None = None) -> Pipeline:
    """Spectral route for a catalog entry.

    With an explicit origin the graph construction is required; otherwise
    stored coefficients or the intersection array are preferred, falling
    back to building the graph.
    """
    if origin is not None and origin != entry.natural_origin:
        return pipeline_for_graph(entry.build(), origin)
    jc = entry.jacobi_coefficients()
    graph = entry.build() if entry.is_constructible else None
    strat = stratify(graph, entry.natural_origin) if graph is not None else None
    if entry.intersection_array is not None:
        kappa = entry.intersection_array.shell_sizes()
    else:
        kappa = strat.kappa if strat is not None else None
    return Pipeline(
        jc=jc,
        measure=spectral_measure(jc),
        kappa=kappa,
        graph=graph,
        strat=strat,
        is_qd=True,
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"{self.name}: max err {self.max_error:.3e} tol {self.tolerance:.1e} {status}{tail}"


def check_closed_form(
    entry: CatalogEntry,
    times,
    *,
    tol: float = DEFAULT_CLOSED_FORM_TOL,
    pipeline: Pipeline | None = None,
) -> CheckResult | None:
    """Pipeline return amplitude against the entry's tabulated closed form."""
    if entry.closed_form is None:
        return None
    pipeline = pipeline or pipeline_for_entry(entry)
    times = np.asarray(times, dtype=np.float64)
    got = return_amplitude(pipeline.measure, times)
    want = entry.closed_form(times)
    err = float(np.abs(got - want).max())
    return CheckResult(
        name="closed-form q0",
        max_error=err,
        tolerance=tol,
        passed=err < tol,
    )


def check_oracle(
    pipeline: Pipeline,
    times,
    *,
    tol: float = DEFAULT_ORACLE_TOL,
) -> CheckResult:
    """Pipeline amplitudes against the oracle's propagator column.

    QD pipelines compare every stratum; non-QD ones compare the return
    amplitude only. Requires the pipeline to carry a graph.
    """
    if pipeline.graph is None:
        raise InvalidParams("oracle comparison needs an explicit graph")
    g = pipeline.graph
    strat = pipeline.strat
    origin = strat.origin if strat is not None else 0
    times = np.asarray(times, dtype=np.float64)
    pvec = oracle_amplitudes(g, origin, times)
    if pipeline.is_qd:
        want, spread = aggregate_to_strata(pvec, strat)
        series = pipeline.series(times)
        err = float(np.abs(series.values - want).max())
        detail = f"within-stratum spread {spread:.2e}"
        name = "oracle strata"
    else:
        want = pvec[origin]
        got = return_amplitude(pipeline.measure, times)
        err = float(np.abs(got - want).max())
        detail = "non-QD origin: return amplitude only"
        name = "oracle q0"
    return CheckResult(
        name=name, max_error=err, tolerance=tol, passed=err < tol, detail=detail
    )


@dataclass(frozen=True)
class EntryStatus:
    entry_id: str
    status: str          # verified | paper-typo-suspect | unverified-array-only
    checks: tuple[CheckResult, ...]
    ok: bool             # engine output consistent with every independent check


def entry_status(
    entry: CatalogEntry,
    *,
    t_max: float = 10.0,
    samples: int = 201,
    closed_tol: float = DEFAULT_CLOSED_FORM_TOL,
    oracle_tol: float = DEFAULT_ORACLE_TOL,
) -> EntryStatus:
    """Resolve the verification flag of a catalog entry.

    ``verified`` needs agreement with the tabulated form (if any) plus an
    oracle confirmation where a construction exists; a tabulated mismatch
    with the oracle (or the rest of the pipeline) agreeing becomes
    ``paper-typo-suspect``; entries with nothing independent to compare stay
    ``unverified-array-only``.
    """
    times = np.linspace(0.0, t_max, samples)
    checks: list[CheckResult] = []
    pipeline = pipeline_for_entry(entry)

    closed = check_closed_form(entry, times, tol=closed_tol, pipeline=pipeline)
    if closed is not None:
        checks.append(closed)
    oracle_result = None
    if entry.is_constructible:
        oracle_result = check_oracle(pipeline, times, tol=oracle_tol)
        checks.append(oracle_result)

    engine_ok = oracle_result.passed if oracle_result is not None else True
    if closed is not None and not closed.passed:
        status = TYPO_SUSPECT
    elif oracle_result is not None and engine_ok:
        status = VERIFIED
    else:
        status = UNVERIFIED
    return EntryStatus(
        entry_id=entry.id, status=status, checks=tuple(checks), ok=engine_ok
    )
