"""Correctness checks on call outputs, run after timing.

The references share no code with the engine: graphs are rebuilt here from
their definitions with numpy, the propagator comes from
``scipy.sparse.linalg.expm_multiply`` (truncated Taylor, no eigensolver) and
resolvents from a sparse direct solve.  Each check returns an error message,
or ``None`` when the output is correct.
"""

from __future__ import annotations

import io
import itertools
import json

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

CONSERVATION_TOL = 1e-10   # |sum_l |q_l(t)|^2 - 1| per sample
AMPLITUDE_TOL = 1e-8       # engine vs expm_multiply, as the package's oracle tolerance
RESOLVENT_TOL = 1e-9       # relative; G is printed to 12 significant digits
CHECKED_TIMES = 4          # sampled grid points compared against expm_multiply


def _from_edges(n, u, v):
    u, v = np.asarray(u), np.asarray(v)
    data = np.ones(2 * u.size)
    a = sp.coo_matrix((data, (np.r_[u, v], np.r_[v, u])), shape=(n, n)).tocsr()
    a.sum_duplicates()
    a.data[:] = 1.0
    return a


def reference_adjacency(ref: tuple) -> sp.csr_matrix:
    """Adjacency of a graph named by ``ref``, vertex order as the catalog's."""
    kind, *params = ref
    if kind == "path":
        (n,) = params
        return _from_edges(n, np.arange(n - 1), np.arange(1, n))
    if kind == "hamming":
        d, q = params
        # itertools.product order: the first coordinate is the most significant digit
        digits = np.array(list(itertools.product(range(q), repeat=d)))
        weight = q ** np.arange(d - 1, -1, -1)
        us, vs = [], []
        for pos in range(d):
            for step in range(1, q):
                moved = digits.copy()
                moved[:, pos] = (moved[:, pos] + step) % q
                us.append(digits @ weight)
                vs.append(moved @ weight)
        return _from_edges(q ** d, np.concatenate(us), np.concatenate(vs))
    if kind == "johnson":
        n, k = params
        subsets = list(itertools.combinations(range(n), k))
        inc = np.zeros((len(subsets), n))
        for i, s in enumerate(subsets):
            inc[i, list(s)] = 1.0
        u, v = np.nonzero(np.triu(inc @ inc.T == k - 1, 1))
        return _from_edges(len(subsets), u, v)
    if kind == "glued_trees":
        (depth,) = params
        # levels 0..2*depth: binary fan-out to the middle level, fan-in after it
        sizes = [2 ** min(j, 2 * depth - j) for j in range(2 * depth + 1)]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        us, vs = [], []
        for j in range(2 * depth):
            k = np.arange(sizes[j])
            if j < depth:
                us += [offsets[j] + k] * 2
                vs += [offsets[j + 1] + 2 * k, offsets[j + 1] + 2 * k + 1]
            else:
                us.append(offsets[j] + k)
                vs.append(offsets[j + 1] + k // 2)
        return _from_edges(int(offsets[-1]), np.concatenate(us), np.concatenate(vs))
    if kind == "edges":
        (path,) = params
        rows = np.loadtxt(path, dtype=np.int64, ndmin=2)
        n = int(rows[0, 0])
        return _from_edges(n, rows[1:, 0], rows[1:, 1])
    raise ValueError(f"unknown reference graph {ref!r}")


def propagate(a: sp.csr_matrix, origin: int, times) -> np.ndarray:
    """exp(-iAt)|origin> for each t, shape (len(times), n)."""
    e = np.zeros(a.shape[0], dtype=np.complex128)
    e[origin] = 1.0
    op = (-1j * a).tocsr()
    return np.array([spla.expm_multiply(t * op, e) for t in times])


def shells(a: sp.csr_matrix, origin: int) -> np.ndarray:
    dist = csgraph.shortest_path(a, unweighted=True, indices=origin)
    return dist.astype(np.int64)


def parse_series(text: str, fmt: str):
    """(times, values[level, sample]) from a ``compute`` payload."""
    if fmt == "json":
        data = json.loads(text)
        vals = np.array(data["values"], dtype=np.float64)
        return np.array(data["times"]), vals[..., 0] + 1j * vals[..., 1]
    header, _, body = text.partition("\n")
    if header != "t,stratum,re,im,prob":
        raise ValueError(f"unexpected CSV header {header!r}")
    rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    times = np.unique(rows[:, 0])
    levels = rows.shape[0] // times.size
    if levels * times.size != rows.shape[0] or not (rows[:levels, 1] == np.arange(levels)).all():
        raise ValueError("CSV rows are not one per (sample, stratum)")
    values = (rows[:, 2] + 1j * rows[:, 3]).reshape(times.size, levels).T
    return times, values


def check_series(call, text: str, rng) -> str | None:
    fmt = "json" if "json" in call.argv else "csv"
    try:
        times, values = parse_series(text, fmt)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        return f"unparseable {fmt} payload: {exc}"
    defect = np.abs((np.abs(values) ** 2).sum(axis=0) - 1.0)
    if not np.isfinite(defect).all() or defect.max() >= CONSERVATION_TOL:
        return f"conservation defect {np.nanmax(defect):.3e} >= {CONSERVATION_TOL:.0e}"
    a = reference_adjacency(call.ref)
    idx = np.sort(rng.choice(times.size, size=min(CHECKED_TIMES, times.size), replace=False))
    psi = propagate(a, call.origin, times[idx])
    dist = shells(a, call.origin)
    qd = values.shape[0] == dist.max() + 1 and _equitable(a, dist)
    if qd:
        # stratum amplitude = shell sum / sqrt(shell size)
        want = np.array([[psi[j, dist == l].sum() / np.sqrt((dist == l).sum())
                          for j in range(idx.size)] for l in range(values.shape[0])])
        got = values[:, idx]
    else:
        # Krylov levels past 0 are no vertex sets; compare the return amplitude
        want, got = psi[:, call.origin], values[0, idx]
    err = float(np.abs(got - want).max())
    if not err < AMPLITUDE_TOL:
        return f"amplitude error {err:.3e} vs expm_multiply >= {AMPLITUDE_TOL:.0e}"
    return None


def _equitable(a: sp.csr_matrix, dist: np.ndarray) -> bool:
    """True when every vertex of a shell has the same neighbour count in each shell."""
    onehot = sp.csr_matrix((np.ones(dist.size), (dist, np.arange(dist.size))))
    counts = (onehot @ a).toarray()          # counts[l, v]: neighbours of v in shell l
    for l in range(counts.shape[0]):
        block = counts[:, dist == l]
        if (block != block[:, :1]).any():
            return False
    return True


def check_resolvent(call, text: str, rng) -> str | None:
    lines = text.splitlines()
    try:
        measure = json.loads(lines[0])
        nodes = np.array(measure["nodes"], dtype=np.float64)
        weights = np.array(measure["weights"], dtype=np.float64)
        evals = [dict(kv.split("=", 1) for kv in line.split()) for line in lines[1:]]
        points = [(complex(e["z"]), complex(e["G_cf"]), complex(e["G_poles"])) for e in evals]
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparseable stieltjes output: {exc}"
    if abs(weights.sum() - 1.0) > 1e-9 or (weights <= 0).any() or (np.diff(nodes) <= 0).any():
        return "measure is not a probability measure on increasing nodes"
    n_points = sum(a.startswith("--eval") for a in call.argv)
    if len(points) != n_points:
        return f"{len(points)} resolvent lines for {n_points} points"
    a = reference_adjacency(call.ref)
    n = a.shape[0]
    e = np.zeros(n, dtype=np.complex128)
    e[call.origin] = 1.0
    eye = sp.identity(n, format="csc", dtype=np.complex128)
    for z, g_cf, g_poles in points:
        want = spla.spsolve(z * eye - a.astype(np.complex128), e)[call.origin]
        for got in (g_cf, g_poles):
            if not abs(got - want) <= RESOLVENT_TOL * max(1.0, abs(want)):
                return f"G({z}) = {got} vs sparse solve {want}"
    # the measure's return amplitude sum_i w_i exp(-i x_i t) against the propagator
    times = np.sort(rng.uniform(0.0, 10.0, CHECKED_TIMES))
    got = (weights[None, :] * np.exp(-1j * np.outer(times, nodes))).sum(axis=1)
    want = propagate(a, call.origin, times)[:, call.origin]
    err = float(np.abs(got - want).max())
    if not err < AMPLITUDE_TOL:
        return f"measure return amplitude error {err:.3e} >= {AMPLITUDE_TOL:.0e}"
    return None


def check_verify(call, text: str, rng) -> str | None:
    lines = text.splitlines()
    if not lines or lines[-1] != "VERIFY PASS":
        return f"verify did not pass: {lines[-1] if lines else 'no output'!r}"
    for line in lines:
        if line.startswith("oracle"):
            err = float(line.split("max err ", 1)[1].split()[0])
            if not err < AMPLITUDE_TOL:
                return f"oracle error {err:.3e}"
    flagged = any("paper-typo-suspect" in line for line in lines)
    if flagged != call.expect.get("typo", False):
        return f"paper-typo-suspect flag {flagged}, expected {not flagged}"
    return None


def check_intersection(call, text: str, rng) -> str | None:
    got = json.loads(text)
    return None if got == call.expect else f"intersection array {got}, expected {call.expect}"


CHECKS = {
    "series": check_series,
    "resolvent": check_resolvent,
    "verify": check_verify,
    "intersection": check_intersection,
}
