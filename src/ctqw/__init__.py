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
    laplace_return_amplitude,
    return_amplitude,
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
    lanczos,
    qd_from_intersection_array,
)
from .oracle import oracle_amplitudes
from .stieltjes import (
    SpectralMeasure,
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
    "amplitude_series",
    "build_graph",
    "classify_qd",
    "entry_from_spec",
    "intersection_numbers",
    "lanczos",
    "laplace_return_amplitude",
    "list_entries",
    "make_entry",
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
    "vertex_state",
]
