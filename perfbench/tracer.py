"""Span tracer for the ctqw package, installed from outside the package.

``Tracer.install()`` wraps every public function and method defined in a
``ctqw.*`` module.  A function reached through ``from .x import y`` is bound
under several module attributes; each attribute that refers to the same
function object is rebound to the one wrapper, so every route into the
function is recorded.  ``uninstall()`` restores the original objects.

Spans stay in memory and are turned into per-layer metrics (and optionally
written out) when the run ends.  A layer is the module that
defines the function: ``graphs``, ``jacobi``, ``stieltjes``, ...

Layer metrics name the functions they read as ``"module:QualName"``.  When a
later version of the package drops one of those names, the metric is
reported as absent with value 0 instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "ctqw"
LAYERS = ("cli", "catalog", "graphs", "jacobi", "stieltjes", "amplitudes", "oracle", "verify")

# metric -> functions whose self time it sums
TIME_METRICS = {
    "amplitudes.serialize_s": (
        "amplitudes:AmplitudeSeries.to_csv",
        "amplitudes:AmplitudeSeries.to_json",
        "amplitudes:AmplitudeSeries.as_dict",
    ),
    "amplitudes.series_s": (
        "amplitudes:amplitude_series",
        "amplitudes:return_amplitude",
        "amplitudes:stratum_amplitude",
    ),
    "stieltjes.measure_s": ("stieltjes:spectral_measure",),
    "stieltjes.resolvent_s": (
        "stieltjes:stieltjes_continued_fraction",
        "stieltjes:stieltjes_pole_sum",
    ),
    "stieltjes.poly_s": (
        "stieltjes:orthonormal_values",
        "stieltjes:monic_poly",
        "stieltjes:associated_poly",
    ),
    "oracle.eig_s": ("oracle:eigendecompose_symmetric", "oracle:graph_eigendecomposition"),
    "oracle.propagate_s": ("oracle:oracle_amplitudes", "oracle:aggregate_to_strata"),
    "verify.check_s": (
        "verify:check_oracle",
        "verify:check_closed_form",
        "verify:entry_status",
        "verify:CheckResult.line",
    ),
    "verify.pipeline_s": (
        "verify:pipeline_for_graph",
        "verify:pipeline_for_entry",
        "verify:Pipeline.series",
    ),
    "jacobi.lanczos_s": ("jacobi:lanczos",),
    "jacobi.reduce_s": ("jacobi:jacobi_from_strata", "jacobi:qd_from_intersection_array"),
    "graphs.distance_s": (
        "graphs:bfs_distances",
        "graphs:all_pairs_distances",
        "graphs:distance_matrices",
        "graphs:intersection_numbers",
    ),
    "graphs.build_s": ("graphs:build_graph", "graphs:Graph.adjacency_float"),
    "graphs.read_s": ("graphs:read_edge_list", "graphs:parse_edge_list"),
    "graphs.stratify_s": ("graphs:stratify",),
    "graphs.classify_s": ("graphs:classify_qd",),
    "catalog.build_s": ("catalog:CatalogEntry.build",),
    "catalog.entry_s": (
        "catalog:make_entry",
        "catalog:entry_from_spec",
        "catalog:parse_spec",
        "catalog:is_known_family",
        "catalog:list_entries",
        "catalog:appendix_row_ids",
        "catalog:CatalogEntry.jacobi_coefficients",
        "catalog:CatalogEntry.shell_sizes",
    ),
}


def _dim(jc):
    # lanczos(..., return_basis=True) returns (coefficients, basis)
    return (jc[0] if isinstance(jc, tuple) else jc).dim


# metric -> ((function, f(args, result) -> number), ...); "sum" or "max" per metric
COUNT_METRICS = {
    "amplitudes.serialized_bytes": ("sum", (
        ("amplitudes:AmplitudeSeries.to_csv", lambda a, r: len(r)),
        ("amplitudes:AmplitudeSeries.to_json", lambda a, r: len(r)),
    )),
    "amplitudes.cells": ("sum", (("amplitudes:amplitude_series", lambda a, r: r.values.size),)),
    "stieltjes.atoms": ("sum", (("stieltjes:spectral_measure", lambda a, r: r.size),)),
    "stieltjes.merged_nodes": ("sum", (
        ("stieltjes:spectral_measure", lambda a, r: a[0].dim - r.size),
    )),
    "stieltjes.resolvent_evals": ("sum", (
        ("stieltjes:stieltjes_continued_fraction", lambda a, r: 1),
        ("stieltjes:stieltjes_pole_sum", lambda a, r: 1),
    )),
    "oracle.dim": ("sum", (
        ("oracle:eigendecompose_symmetric", lambda a, r: r.eigenvalues.size),
    )),
    "verify.checks": ("sum", (
        ("verify:check_oracle", lambda a, r: 1),
        ("verify:check_closed_form", lambda a, r: r is not None),
    )),
    "verify.max_err": ("max", (("verify:check_oracle", lambda a, r: r.max_error),)),
    "verify.typo_flags": ("sum", (
        ("verify:check_closed_form", lambda a, r: r is not None and not r.passed),
    )),
    "jacobi.lanczos_dim": ("sum", (("jacobi:lanczos", lambda a, r: _dim(r)),)),
    "jacobi.reduced_dim": ("sum", (
        ("jacobi:lanczos", lambda a, r: _dim(r)),
        ("jacobi:jacobi_from_strata", lambda a, r: r.dim),
        ("jacobi:qd_from_intersection_array", lambda a, r: r.dim),
    )),
    "graphs.vertices": ("sum", (("graphs:build_graph", lambda a, r: r.n),)),
    "graphs.edges": ("sum", (("graphs:build_graph", lambda a, r: r.edge_count),)),
    "cli.calls": ("sum", (("cli:main", lambda a, r: 1),)),
}


@dataclass
class Span:
    id: int
    parent: int       # -1 for a root span
    call: int         # id of the root span: spans of one top-level call share it
    name: str         # "module:QualName"
    start: float
    end: float
    error: bool


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval that child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        lo = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            a, b = max(c.start, lo), min(c.end, s.end)
            if b > a:
                covered += b - a
                lo = b
        out[s.id] = (s.end - s.start) - covered
    return out


@dataclass
class Tracer:
    """Wraps ``ctqw.*`` on ``install()``; records spans and return-value counts."""

    time_metrics: dict = field(default_factory=lambda: dict(TIME_METRICS))
    count_metrics: dict = field(default_factory=lambda: dict(COUNT_METRICS))
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    unreadable: set = field(default_factory=set)  # counts whose return value changed shape
    _stack: list = field(default_factory=list)
    _next_id: int = 0
    _restore: list = field(default_factory=list)
    _wrapped: set = field(default_factory=set)   # names of wrapped functions
    _counters: dict = field(default_factory=dict)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        self._wrapped.clear()
        self._counters.clear()
        for metric, (_, fns) in self.count_metrics.items():
            for name, fn in fns:
                self._counters.setdefault(name, []).append((metric, fn))
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isclass(val) and val.__module__ == mod.__name__:
                    self._wrap_class(val)
                elif self._is_target(attr, val):
                    w = wrappers.get(id(val))
                    if w is None:
                        w = wrappers[id(val)] = self._wrap(val)
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    @staticmethod
    def _is_target(attr, val) -> bool:
        return (inspect.isfunction(val) and not attr.startswith("_")
                and not val.__name__.startswith(("_", "<"))
                and val.__module__.startswith(PACKAGE + "."))

    def _wrap_class(self, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)) and inspect.isfunction(raw.__func__):
                wrapped = type(raw)(self._wrap(raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw)
            else:
                continue
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}:{fn.__qualname__}"
        self._wrapped.add(name)
        counters = self._counters.get(name, ())
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1] if stack else None
            stack.append((sid, parent[1] if parent else sid))
            error = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = time.perf_counter()
                _, call = stack.pop()
                tracer.spans.append(Span(sid, parent[0] if parent else -1, call,
                                         name, start, end, error))
            for metric, count in counters:
                try:
                    tracer._count(metric, count(args, result))
                except (AttributeError, TypeError, IndexError):
                    tracer.unreadable.add(metric)
            return result

        return wrapper

    def _count(self, metric: str, value) -> None:
        how = self.count_metrics[metric][0]
        old = self.counts.get(metric, 0)
        self.counts[metric] = max(old, value) if how == "max" else old + value

    # -- results ----------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def absent(self) -> list[str]:
        """Metrics none of whose functions exists in the installed package."""
        out = [m for m, fns in self.time_metrics.items()
               if not any(f in self._wrapped for f in fns)]
        out += [m for m, (_, fns) in self.count_metrics.items()
                if not any(f in self._wrapped for f, _ in fns)]
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers for the spans and counts recorded since ``reset``."""
        own = self_times(self.spans)
        by_name: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        errors = dict.fromkeys(LAYERS, 0)
        for s in self.spans:
            t = own[s.id]
            by_name[s.name] = by_name.get(s.name, 0.0) + t
            layer = s.name.split(":", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + t
            errors[layer] = errors.get(layer, 0) + s.error
        out = {m: sum(by_name.get(f, 0.0) for f in fns) for m, fns in self.time_metrics.items()}
        out.update({m: self.counts.get(m, 0) for m in self.count_metrics})
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
            out[f"{layer}.errors"] = errors[layer]
        out["trace.spans"] = len(self.spans)
        out["trace.self_total_s"] = sum(layer_self.values())
        return out

    def dump(self) -> list:
        return [[s.id, s.parent, s.call, s.name, s.start, s.end, s.error] for s in self.spans]
