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
from pathlib import Path
from typing import Callable, TextIO

import numpy as np

from . import catalog
from .amplitudes import MAX_SERIES_CELLS
from .errors import CtqwError, InvalidEdgeList, InvalidParams, UnwritableOutput
from .graphs import read_edge_list
from .stieltjes import stieltjes_continued_fraction, stieltjes_pole_sum
from .verify import Pipeline, entry_status, pipeline_for_entry, pipeline_for_graph

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2


def _time_grid(t_max: float, samples: int, tol: float | None = None) -> np.ndarray:
    """The ``--samples`` point grid on [0, ``--t-max``], after checking both
    and, for ``verify``, ``--tol``."""
    if not (0 < t_max < np.inf):
        raise InvalidParams(f"t-max must be positive and finite, got {t_max}")
    if samples < 2:
        raise InvalidParams(f"samples must be >= 2, got {samples}")
    if samples > MAX_SERIES_CELLS:
        raise InvalidParams(f"samples must be <= {MAX_SERIES_CELLS}, got {samples}")
    if tol is not None and not (tol > 0):
        raise InvalidParams(f"tol must be positive, got {tol}")
    return np.linspace(0.0, t_max, samples)


def _resolve_pipeline(args: argparse.Namespace) -> Pipeline:
    """Turn ``--graph`` and ``--origin`` into a pipeline.

    Known family names resolve through the catalog; anything else is read as
    an edge-list file (missing file reports InvalidEdgeList).
    """
    spec = args.graph
    family, _ = catalog.parse_spec(spec)
    if catalog.is_known_family(family):
        return pipeline_for_entry(catalog.entry_from_spec(spec), origin=args.origin)
    if not Path(spec).exists():
        raise InvalidEdgeList(f"{spec!r} is neither a known family nor an existing file")
    return pipeline_for_graph(read_edge_list(spec), args.origin)


def _emit(write: Callable[[TextIO], object], output: str) -> None:
    """Call ``write`` on stdout ('-') or on the file ``output``."""
    if output == "-":
        write(sys.stdout)
        return
    try:
        with open(output, "w") as fh:
            write(fh)
    except OSError as exc:
        raise UnwritableOutput(f"cannot write {output!r}: {exc.strerror}") from exc


def cmd_compute(args: argparse.Namespace) -> int:
    times = _time_grid(args.t_max, args.samples)
    series = _resolve_pipeline(args).series(times)
    if args.format == "csv":
        _emit(series.to_csv, args.output)
    else:
        _emit(lambda out: out.writelines((series.to_json(), "\n")), args.output)
    print(
        f"max conservation defect: {series.conservation_defect.max():.3e}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    times = _time_grid(args.t_max, args.samples, args.tol)
    # without --tol, entry_status's own defaults apply
    tols = {} if args.tol is None else {"closed_tol": args.tol, "oracle_tol": args.tol}
    status = entry_status(_resolve_pipeline(args), times, **tols)
    print("\n".join(status.lines))
    return EXIT_OK if status.ok else EXIT_VERIFY_FAIL


def cmd_stieltjes(args: argparse.Namespace) -> int:
    pipeline = _resolve_pipeline(args)
    lines = [pipeline.measure.to_json()]
    for token in args.eval:
        z = complex(token)
        g_cf = stieltjes_continued_fraction(pipeline.jc, z)
        g_poles = stieltjes_pole_sum(pipeline.measure, z)
        lines.append(
            f"z={token} G_cf={g_cf:.12g} G_poles={g_poles:.12g} "
            f"|diff|={abs(g_cf - g_poles):.3e}"
        )
    # printed once every point is evaluated, so a refused point prints nothing
    print("\n".join(lines))
    return EXIT_OK


def cmd_catalog(args: argparse.Namespace) -> int:
    for entry_id, schema, listing in catalog.list_entries():
        print(f"{entry_id}\t{schema}\t{listing}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctqw",
        description="Continuous-time quantum walk amplitudes via spectral measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every walk subcommand takes the walk options; compute and verify sample
    # the walk on a time grid
    walk = argparse.ArgumentParser(add_help=False)
    walk.add_argument("--graph", required=True, help="family:params or edge-list path")
    walk.add_argument("--origin", type=int, default=0, help="origin vertex (default: 0)")
    grid = argparse.ArgumentParser(add_help=False, parents=[walk])
    grid.add_argument("--t-max", type=float, default=10.0)
    grid.add_argument("--samples", type=int, default=201)

    p_compute = sub.add_parser("compute", parents=[grid], help="emit a sampled amplitude series")
    p_compute.add_argument("--format", choices=("csv", "json"), default="csv")
    p_compute.add_argument("--output", default="-", help="output path, '-' for stdout")
    p_compute.set_defaults(run=cmd_compute)

    p_verify = sub.add_parser(
        "verify", parents=[grid], help="cross-check pipeline vs oracle and closed forms"
    )
    p_verify.add_argument("--tol", type=float, default=None, help="comparison tolerance override")
    p_verify.set_defaults(run=cmd_verify)

    p_st = sub.add_parser(
        "stieltjes", parents=[walk], help="print the spectral measure and resolvent values"
    )
    p_st.add_argument(
        "--eval",
        action="append",
        default=[],
        metavar="Z",
        help="evaluation point, complex literal like 4 or 2+1j (repeatable)",
    )
    p_st.set_defaults(run=cmd_stieltjes)

    sub.add_parser("catalog", help="list catalog entries").set_defaults(run=cmd_catalog)
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
        return args.run(args)
    except CtqwError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

if __name__ == "__main__":
    sys.exit(main())
