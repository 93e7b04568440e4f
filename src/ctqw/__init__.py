"""Continuous-time quantum walk amplitudes on graphs.

The pipeline: a graph (or a named family) yields tridiagonal reduction
coefficients, those define a finite continued fraction whose poles and
residues form an atomic spectral measure, and the measure turns into exact
exponential-sum amplitudes per stratum. The action of exp(-iAt) on the
origin's vertex state, computed with no eigendecomposition, provides an
independent brute-force check of every result.
"""

from .amplitudes import (
    AmplitudeSeries,
    ExponentialSum,
    amplitude_series,
    closed_form_q0,
    laplace_return_amplitude,
    return_amplitude,
    stratum_amplitude,
    vertex_amplitude,
)
from .catalog import CatalogEntry, entry_from_spec, list_entries, make_entry
from .errors import CtqwError
from .graphs import (
    Graph,
    IntersectionArray,
    QDClassification,
    Stratification,
    build_graph,
    classify_qd,
    intersection_numbers,
    read_edge_list,
    stratify,
    vertex_state,
)
from .jacobi import (
    JacobiCoefficients,
    jacobi_from_strata,
    lanczos,
    qd_from_intersection_array,
)
from .oracle import aggregate_to_strata, oracle_amplitudes
from .stieltjes import (
    SpectralMeasure,
    associated_poly,
    monic_poly,
    spectral_measure,
    stieltjes_continued_fraction,
    stieltjes_pole_sum,
)
from .verify import pipeline_for_entry, pipeline_for_graph

__version__ = "0.1.0"

__all__ = [
    "AmplitudeSeries",
    "CatalogEntry",
    "CtqwError",
    "ExponentialSum",
    "Graph",
    "IntersectionArray",
    "JacobiCoefficients",
    "QDClassification",
    "SpectralMeasure",
    "Stratification",
    "aggregate_to_strata",
    "amplitude_series",
    "associated_poly",
    "build_graph",
    "classify_qd",
    "closed_form_q0",
    "entry_from_spec",
    "intersection_numbers",
    "jacobi_from_strata",
    "lanczos",
    "laplace_return_amplitude",
    "list_entries",
    "make_entry",
    "monic_poly",
    "oracle_amplitudes",
    "pipeline_for_entry",
    "pipeline_for_graph",
    "qd_from_intersection_array",
    "read_edge_list",
    "return_amplitude",
    "spectral_measure",
    "stieltjes_continued_fraction",
    "stieltjes_pole_sum",
    "stratify",
    "stratum_amplitude",
    "vertex_amplitude",
    "vertex_state",
]
