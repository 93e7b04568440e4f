"""The three workloads: call lists built from the seed before any timing.

Each workload loads one group of layers and leaves the others mostly idle:

* ``emit_series``: output formatting (``to_csv`` / ``to_json``) of long
  amplitude series.  No oracle, a few milliseconds of graph work.
* ``verify_ladder``: the dense Jacobi-rotation oracle, through ``verify`` on
  small constructible graphs, two non-QD (Lanczos) origins and every
  tabulated appendix row.  Nothing is serialized.
* ``reduce_large``: near-cap graph work and Lanczos: a seeded random
  edge-list file, a non-QD path origin, large Hamming / Johnson
  constructions, a non-QD glued-trees origin and one all-pairs
  ``intersection_numbers`` library call.  No oracle, little output.

The seed draws the random graph and the resolvent points of ``reduce_large``
and, in the checks, the sampled times compared against the propagator.  The
call order is fixed, because peak memory depends on it.  The
``emit_series`` payloads do not depend on the seed, so their sha256 digests
can be pinned in ``expected.json``.

A call's ``ref`` names the graph the checks rebuild on their own
(``checks.reference_adjacency``) and ``origin`` the walk's start vertex there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Appendix row ids, fixed here rather than read from the package so that the
# call list does not depend on the code under test.
APPENDIX_ROWS = (
    "icosahedron", "l-petersen", "pappus", "ig-ag24", "cover3-k99", "odd4",
    "srg-spread", "cover3-k66", "hadamard-12", "ig-ag25", "hadamard-8",
    "desargues", "klein", "h33", "coxeter", "mathon-13-3", "taylor-p17",
    "taylor-srg25", "mathon-16-3", "mathon-11-5", "mathon-19-3", "taylor-srg29",
    "taylor-p13", "gq24-spread", "doro", "locally-petersen", "taylor-gq22",
    "taylor-t6", "gosset", "taylor-co-schlafli", "gh22", "h34-doob", "wells",
    "gh21", "gh31", "dodecahedron", "perkel", "go21", "cover3-gq22", "j84",
)

# Specs whose tabulated closed form disagrees with the engine while the oracle
# (where one exists) confirms the engine: verify flags them paper-typo-suspect.
# J(8,2) is the Johnson d = 2 form; the appendix rows are the printed mass typos.
TYPO_FLAGGED = frozenset({
    "johnson:8,2", "appendix:pappus", "appendix:desargues", "appendix:ig-ag25",
    "appendix:coxeter", "appendix:gh21", "appendix:gh31", "appendix:perkel",
    "appendix:hadamard-12",
})

RANDOM_N, RANDOM_M = 800, 1600


@dataclass(frozen=True)
class Call:
    """One closed-loop call: a CLI argv, or ``library`` naming a harness function."""

    label: str                      # stable key for digests and failure reports
    argv: tuple[str, ...] = ()
    library: str = ""
    check: str = "verify"           # series | resolvent | verify | intersection
    ref: tuple = ()                 # graph the checks rebuild independently
    origin: int = 0
    expect: dict = field(default_factory=dict)


def emit_eval_points() -> list[str]:
    # written as --eval=Z: argparse rejects "--eval -2.5+0.25j" as an option
    xs = np.linspace(-2.5, 2.5, 801)
    return [f"--eval={x:.6f}+0.25j" for x in xs]


def emit_series(seed: int, workdir: Path) -> list[Call]:
    calls = [
        Call("compute tchebichef2:400,1 csv",
             ("compute", "--graph", "tchebichef2:400,1", "--samples", "1001"),
             check="series", ref=("path", 400)),
        Call("compute path:600 json",
             ("compute", "--graph", "path:600", "--samples", "501", "--format", "json"),
             check="series", ref=("path", 600)),
        Call("compute glued_trees:9 csv",
             ("compute", "--graph", "glued_trees:9", "--samples", "2001"),
             check="series", ref=("glued_trees", 9)),
        Call("stieltjes tchebichef2:400,1",
             ("stieltjes", "--graph", "tchebichef2:400,1", *emit_eval_points()),
             check="resolvent", ref=("path", 400)),
    ]
    return calls


def verify_ladder(seed: int, workdir: Path) -> list[Call]:
    specs = ["petersen", "johnson:8,2", "johnson:10,3", "hamming:3,4", "cycle:60",
             "glued_trees:5"] + [f"appendix:{r}" for r in APPENDIX_ROWS]
    calls = [Call(f"verify {s}", ("verify", "--graph", s), expect={"typo": s in TYPO_FLAGGED})
             for s in specs]
    calls += [
        # non-QD origins: the Lanczos route, checked on the return amplitude
        Call("verify path:64 --origin 5", ("verify", "--graph", "path:64", "--origin", "5")),
        Call("verify glued_trees:5 --origin 3",
             ("verify", "--graph", "glued_trees:5", "--origin", "3")),
    ]
    return calls


def random_connected_edges(n: int, m: int, rng) -> list[tuple[int, int]]:
    """A random spanning tree (each vertex attaches to an earlier one in a
    random order) topped up with uniformly drawn extra edges."""
    perm = rng.permutation(n)
    edges = set()
    for i in range(1, n):
        u, v = int(perm[i]), int(perm[rng.integers(0, i)])
        edges.add((min(u, v), max(u, v)))
    while len(edges) < m:
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def reduce_large(seed: int, workdir: Path) -> list[Call]:
    rng = np.random.default_rng(seed)
    path = workdir / f"random-{seed}.edges"
    edges = random_connected_edges(RANDOM_N, RANDOM_M, rng)
    path.write_text(f"{RANDOM_N} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))

    def evals(k):
        xs = rng.uniform(-3.0, 3.0, k)
        ys = rng.uniform(0.1, 1.0, k)
        return [f"--eval={x:.6f}+{y:.6f}j" for x, y in zip(xs, ys)]

    calls = [
        # compute on this random file overflows the Krylov-level amplitudes
        # (see README, open defects); stieltjes runs the same read + Lanczos
        Call("stieltjes random edge list",
             ("stieltjes", "--graph", str(path), *evals(3)),
             check="resolvent", ref=("edges", str(path))),
        Call("compute path:600 --origin 1",
             ("compute", "--graph", "path:600", "--origin", "1", "--samples", "21"),
             check="series", ref=("path", 600), origin=1),
        Call("compute hamming:3,12",
             ("compute", "--graph", "hamming:3,12", "--samples", "21"),
             check="series", ref=("hamming", 3, 12)),
        Call("compute johnson:16,3",
             ("compute", "--graph", "johnson:16,3", "--samples", "21"),
             check="series", ref=("johnson", 16, 3)),
        Call("stieltjes glued_trees:9 --origin 5",
             ("stieltjes", "--graph", "glued_trees:9", "--origin", "5", *evals(3)),
             check="resolvent", ref=("glued_trees", 9), origin=5),
        Call("intersection_numbers hamming:3,8", library="hamming_intersection_numbers",
             check="intersection", expect={"b": [21, 14, 7], "c": [1, 2, 3]}),
    ]
    return calls


WORKLOADS = {
    "emit_series": emit_series,
    "verify_ladder": verify_ladder,
    "reduce_large": reduce_large,
}
