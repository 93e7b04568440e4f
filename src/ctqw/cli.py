"""Command-line surface.

Subcommands: ``compute`` (emit an amplitude series as CSV or JSON),
``verify`` (pipeline vs oracle vs tabulated forms), ``stieltjes`` (spectral
measure and resolvent values), ``catalog`` (list known entries).

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage or input error. The WALK_LOG environment variable sets the log level.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import catalog
from .errors import CtqwError, InvalidEdgeList
from .graphs import read_edge_list
from .stieltjes import stieltjes_continued_fraction, stieltjes_pole_sum
from .verify import (
    DEFAULT_CLOSED_FORM_TOL,
    DEFAULT_ORACLE_TOL,
    Pipeline,
    check_closed_form,
    check_oracle,
    pipeline_for_entry,
    pipeline_for_graph,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class RunConfig:
    graph_spec: str
    origin: int | None = None
    t_max: float = 10.0
    samples: int = 201
    fmt: str = "csv"
    output: str = "-"
    tol: float | None = None

    def __post_init__(self):
        if not (self.t_max > 0):
            raise CtqwError(f"t-max must be positive, got {self.t_max}")
        if self.samples < 2:
            raise CtqwError(f"samples must be >= 2, got {self.samples}")
        if self.tol is not None and not (self.tol > 0):
            raise CtqwError(f"tol must be positive, got {self.tol}")

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.samples)


def _resolve_pipeline(cfg: RunConfig) -> tuple[Pipeline, "catalog.CatalogEntry | None"]:
    """Turn a graph spec into a pipeline.

    Known family names resolve through the catalog; anything else is read as
    an edge-list file (missing file reports InvalidEdgeList).
    """
    family, _ = catalog.parse_spec(cfg.graph_spec)
    if catalog.is_known_family(family):
        entry = catalog.entry_from_spec(cfg.graph_spec)
        return pipeline_for_entry(entry, origin=cfg.origin), entry
    if not Path(cfg.graph_spec).exists():
        raise InvalidEdgeList(
            f"{cfg.graph_spec!r} is neither a known family nor an existing file"
        )
    g = read_edge_list(cfg.graph_spec)
    return pipeline_for_graph(g, cfg.origin if cfg.origin is not None else 0), None


def _emit(text: str, output: str) -> None:
    if output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def cmd_compute(cfg: RunConfig) -> int:
    pipeline, _ = _resolve_pipeline(cfg)
    series = pipeline.series(cfg.times())
    payload = series.to_csv() if cfg.fmt == "csv" else series.to_json() + "\n"
    _emit(payload, cfg.output)
    print(
        f"max conservation defect: {series.conservation_defect.max():.3e}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    pipeline, entry = _resolve_pipeline(cfg)
    times = cfg.times()
    closed_tol = cfg.tol if cfg.tol is not None else DEFAULT_CLOSED_FORM_TOL
    oracle_tol = cfg.tol if cfg.tol is not None else DEFAULT_ORACLE_TOL

    failures = 0
    ran = 0
    oracle_result = None
    if pipeline.graph is not None:
        oracle_result = check_oracle(pipeline, times, tol=oracle_tol)
        ran += 1
        print(oracle_result.line())
        if not oracle_result.passed:
            failures += 1
    closed = None
    if entry is not None and cfg.origin in (None, entry.natural_origin):
        closed = check_closed_form(entry, times, tol=closed_tol, pipeline=pipeline)
    if closed is not None:
        ran += 1
        if closed.passed:
            print(closed.line())
        elif oracle_result is not None and oracle_result.passed:
            print(
                f"{closed.name}: max err {closed.max_error:.3e} tol "
                f"{closed.tolerance:.1e} MISMATCH -> paper-typo-suspect "
                f"(engine confirmed by oracle) PASS"
            )
        else:
            print(
                f"{closed.name}: max err {closed.max_error:.3e} tol "
                f"{closed.tolerance:.1e} MISMATCH (no oracle available; "
                f"engine output authoritative) paper-typo-suspect"
            )
    if ran == 0:
        print("nothing to verify: no oracle construction and no closed form")
    print("VERIFY", "FAIL" if failures else "PASS")
    return EXIT_VERIFY_FAIL if failures else EXIT_OK


def cmd_stieltjes(cfg: RunConfig, eval_points: list[str]) -> int:
    pipeline, _ = _resolve_pipeline(cfg)
    print(pipeline.measure.to_json())
    for token in eval_points:
        z = complex(token)
        g_cf = stieltjes_continued_fraction(pipeline.jc, z)
        g_poles = stieltjes_pole_sum(pipeline.measure, z)
        print(
            f"z={token} G_cf={g_cf:.12g} G_poles={g_poles:.12g} "
            f"|diff|={abs(g_cf - g_poles):.3e}"
        )
    return EXIT_OK


def cmd_catalog() -> int:
    for entry_id, schema, listing in catalog.list_entries():
        print(f"{entry_id}\t{schema}\t{listing}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctqw",
        description="Continuous-time quantum walk amplitudes via spectral measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_options(p, with_format=False):
        p.add_argument("--graph", required=True, help="family:params or edge-list path")
        p.add_argument("--origin", type=int, default=None, help="origin vertex (default: entry's natural origin or 0)")
        p.add_argument("--t-max", type=float, default=10.0)
        p.add_argument("--samples", type=int, default=201)
        p.add_argument("--tol", type=float, default=None, help="comparison tolerance override")
        if with_format:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
            p.add_argument("--output", default="-", help="output path, '-' for stdout")

    p_compute = sub.add_parser("compute", help="emit a sampled amplitude series")
    add_run_options(p_compute, with_format=True)

    p_verify = sub.add_parser("verify", help="cross-check pipeline vs oracle and closed forms")
    add_run_options(p_verify)

    p_st = sub.add_parser("stieltjes", help="print the spectral measure and resolvent values")
    add_run_options(p_st)
    p_st.add_argument(
        "--eval",
        action="append",
        default=[],
        metavar="Z",
        help="evaluation point, complex literal like 4 or 2+1j (repeatable)",
    )

    sub.add_parser("catalog", help="list catalog entries")
    return parser


def _configure_logging() -> None:
    name = os.environ.get("WALK_LOG", "").upper()
    if not name:
        return
    level = getattr(logging, name, logging.INFO)
    logging.basicConfig(level=level)
    logging.getLogger().setLevel(level)


def _join_eval_values(argv: list[str]) -> list[str]:
    """Rewrite ``--eval Z`` as ``--eval=Z``.

    argparse takes a separate value that starts with '-' and is not a plain
    negative number, such as -2.5+0.5j or -1e-3, for an option and rejects it.
    """
    out = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token == "--eval" else None
        out.append(token if value is None else f"{token}={value}")
    return out


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(_join_eval_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        if args.command == "catalog":
            return cmd_catalog()
        cfg = RunConfig(
            graph_spec=args.graph,
            origin=args.origin,
            t_max=args.t_max,
            samples=args.samples,
            fmt=getattr(args, "format", "csv"),
            output=getattr(args, "output", "-"),
            tol=args.tol,
        )
        if args.command == "compute":
            return cmd_compute(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "stieltjes":
            return cmd_stieltjes(cfg, args.eval)
        parser.error(f"unknown command {args.command!r}")
    except CtqwError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
