"""Command-line surface.

Subcommands: ``compute`` (emit an amplitude series as CSV or JSON),
``verify`` (pipeline vs oracle vs tabulated forms), ``stieltjes`` (spectral
measure and resolvent values), ``catalog`` (list known entries).

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage or input error. The WALK_LOG environment variable sets the log level.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import io
import logging
import os
import sys
from typing import Callable, TextIO

import numpy as np

from . import catalog
from .amplitudes import MAX_SERIES_CELLS
from .errors import CtqwError, InvalidEdgeList, InvalidParams, UnknownFamily, UnwritableOutput
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
    if tol is not None and not (0 < tol < np.inf):
        raise InvalidParams(f"tol must be positive and finite, got {tol}")
    return np.linspace(0.0, t_max, samples)


def _resolve_pipeline(args: argparse.Namespace) -> Pipeline:
    """Turn ``--graph`` and ``--origin`` into a pipeline.

    Known family names resolve through the catalog; anything else is read as
    an edge-list file (a missing or unnamable file reports InvalidEdgeList).
    """
    spec = args.graph
    try:
        entry = catalog.entry_from_spec(spec)
    except UnknownFamily:
        if os.path.exists(spec):
            return pipeline_for_graph(read_edge_list(spec), args.origin)
        raise InvalidEdgeList(f"{spec!r} is neither a known family nor an existing file") from None
    return pipeline_for_entry(entry, origin=args.origin)


# every stream gets its text in pieces of at least this many characters, all
# but the last. Grown a block at a time among the writers' block arrays, an
# in-memory stream's buffer (as a caller capturing main's output passes) left
# a varying amount resident: in-process compute on tchebichef2:400,1 (CSV) and
# path:600 (JSON) peaked at 143 or 175 MB; in pieces, at 141.7-143.9 MB.
_PIECE_CHARS = 1 << 21


class _Sink:
    """Text for ``out``, passed on in pieces of at least ``_PIECE_CHARS``
    characters; ``flush`` passes on the rest. A stream with a binary
    ``buffer`` gets each piece encoded as it encodes text, written again
    from where a write stopped: a raw buffer (unbuffered stdout) may take
    part of a write to a closed pipe. Any other stream gets the text."""

    def __init__(self, out: TextIO):
        out.flush()  # the text ``out`` holds goes first
        self.out, self.parts, self.size = out, [], 0

    def write(self, text: str) -> None:
        self.parts.append(text)
        self.size += len(text)
        if self.size >= _PIECE_CHARS:
            self.flush()

    def flush(self) -> None:
        text, self.parts, self.size = "".join(self.parts), [], 0
        if not hasattr(self.out, "buffer"):
            self.out.write(text)
        else:
            data = memoryview(text.encode(self.out.encoding, self.out.errors))
            while data:
                taken = self.out.buffer.write(data)
                if not taken:  # 0, or None where a non-blocking stream would block
                    raise OSError(errno.EIO, "no bytes taken")
                data = data[taken:]
        self.out.flush()


def _emit(write: Callable[[TextIO], object], output: str = "-") -> None:
    """Call ``write`` on a ``_Sink`` over stdout ('-') or the file ``output``.
    Every command writes its stdout here; an OSError, or stdout None (as
    Python leaves it when descriptor 1 is closed), is UnwritableOutput."""
    if output == "-" and sys.stdout is None:
        raise UnwritableOutput("cannot write stdout: it is closed")
    try:
        with open(output, "w") if output != "-" else contextlib.nullcontext(sys.stdout) as out:
            sink = _Sink(out)
            write(sink)
            sink.flush()  # a buffered write fails here, not at exit
    except OSError as exc:
        if output != "-":
            raise UnwritableOutput(f"cannot write {output!r}: {exc.strerror}") from exc
        # what the failed stdout still buffers must not be written, and fail,
        # again at exit: its descriptor, if it has one, now goes to os.devnull
        with contextlib.suppress(io.UnsupportedOperation):
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        raise UnwritableOutput(f"cannot write stdout: {exc.strerror}") from exc


def cmd_compute(args: argparse.Namespace) -> int:
    times = _time_grid(args.t_max, args.samples)
    pipeline = _resolve_pipeline(args)
    series = pipeline.series(times)
    if args.format == "csv":
        _emit(series.to_csv, args.output)
    else:
        _emit(lambda out: series.to_json(out, pipeline.kappa), args.output)
    print(f"max conservation defect: {series.conservation_defect.max():.3e}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    times = _time_grid(args.t_max, args.samples, args.tol)
    # without --tol, entry_status's own defaults apply
    tols = {} if args.tol is None else {"closed_tol": args.tol, "oracle_tol": args.tol}
    status = entry_status(_resolve_pipeline(args), times, **tols)
    _emit(lambda out: print("\n".join(status.lines), file=out))
    return EXIT_OK if status.ok else EXIT_VERIFY_FAIL


def cmd_stieltjes(args: argparse.Namespace) -> int:
    pipeline = _resolve_pipeline(args)
    lines = [pipeline.measure.to_json()]
    points, refused = [], None
    for token in args.eval:
        try:
            points.append(complex(token))
        except ValueError:
            refused = InvalidParams(f"eval point {token!r} is not a complex literal")
            break
    z = np.array(points, dtype=np.complex128)
    try:
        g_cf = stieltjes_continued_fraction(pipeline.jc, z)
    except CtqwError as exc:  # raised once the points before it are summed
        refused, z = exc, z[: exc.index]
    # one row sum per point; an earlier point refused here is the first error
    g_poles = stieltjes_pole_sum(pipeline.measure, z)
    if refused is not None:
        raise refused
    for token, cf, poles in zip(args.eval, g_cf.tolist(), g_poles.tolist()):
        lines.append(
            f"z={token} G_cf={cf:.12g} G_poles={poles:.12g} |diff|={abs(cf - poles):.3e}"
        )
    # printed once every point is evaluated, so a refused point prints nothing
    _emit(lambda out: print("\n".join(lines), file=out))
    return EXIT_OK


def cmd_catalog(args: argparse.Namespace) -> int:
    _emit(lambda out: print("\n".join(map("\t".join, catalog.list_entries())), file=out))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help on stdout goes out through ``_emit``:
    argparse itself drops a failed write of it. Subparsers are made of the
    same class."""

    def print_help(self, file=None) -> None:
        if file is not None:
            return super().print_help(file)
        _emit(lambda out: out.write(self.format_help()))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; ``parse_args`` gives each
    call a fresh namespace, and ``--eval`` appends to a copy of its default."""
    parser = _Parser(
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

    p_verify = sub.add_parser(
        "verify", parents=[grid], help="cross-check pipeline vs oracle and closed forms"
    )
    p_verify.add_argument("--tol", type=float, default=None, help="comparison tolerance override")

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

    sub.add_parser("catalog", help="list catalog entries")
    return parser


def _configure_logging() -> None:
    name = os.environ.get("WALK_LOG", "").upper()
    if not name:
        return
    level = getattr(logging, name, logging.INFO)
    logging.basicConfig(level=level)
    logging.getLogger().setLevel(level)


def _eval_value(token: str) -> str | None:
    """Z of ``--eval=Z`` or of an abbreviation such as ``--ev=Z``, which the
    stieltjes parser alone resolves to ``--eval``; else None."""
    name, eq, value = token.partition("=")
    return value if eq and len(name) > 2 and "--eval".startswith(name) else None


def _join_eval_values(argv: list[str]) -> tuple[list[str], bool]:
    """Rewrite ``--eval Z`` as ``--eval=Z``, then, in a NUL-free ``stieltjes``
    argv, each run of adjacent ``--eval=Z`` tokens before any ``--`` as one
    ``--eval=`` token whose values are NUL-separated; the flag says whether
    the values are to be split on NUL after parsing.

    argparse takes a separate value that starts with '-' and is not a plain
    negative number, such as -2.5+0.5j or -1e-3, for an option and rejects it.
    It also scans every option string again for each option, so n separate
    ``--eval`` options take O(n^2) to parse. A run stands where its first
    token stood, so every other option meets the same neighbours.
    """
    out = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token == "--eval" else None
        out.append(token if value is None else f"{token}={value}")
    if out[:1] != ["stieltjes"] or any("\0" in token for token in out):
        return out, False
    end = out.index("--") if "--" in out else len(out)
    packed = []  # a token, or the values of a run
    for token in out[:end]:
        value = _eval_value(token)
        if value is None:
            packed.append(token)
        elif packed and isinstance(packed[-1], list):
            packed[-1].append(value)
        else:
            packed.append([value])
    packed = ["--eval=" + "\0".join(t) if isinstance(t, list) else t for t in packed]
    return packed + out[end:], True


def main(argv=None) -> int:
    _configure_logging()
    argv, packed = _join_eval_values(sys.argv[1:] if argv is None else list(argv))
    try:
        # --help raises UnwritableOutput here when stdout fails
        args = _build_parser().parse_args(argv)
        if packed:
            args.eval = [z for token in args.eval for z in token.split("\0")]
        # looked up on each call, not bound into the parser built once, so a
        # cmd_* function rebound on this module since then is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except CtqwError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

if __name__ == "__main__":
    sys.exit(main())
