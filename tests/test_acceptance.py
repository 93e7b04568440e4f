"""Acceptance suite: every release criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one report line per
criterion. Acceptance 04 checks the Johnson graphs J(n,2) against their exact
three-atom closed form, confirmed by the propagator oracle, and checks that the
printed two-atom form, which the catalog stores verbatim, is flagged
``paper-typo-suspect``; its deviation is printed on the report line.
"""

import math

import numpy as np
from scipy.special import jv

from ctqw import (
    amplitude_series,
    build_graph,
    make_entry,
    reduce_walk,
    stratify,
)
from ctqw.catalog import entry_from_spec
from ctqw.oracle import oracle_amplitudes
from ctqw.stieltjes import (
    spectral_measure,
    stieltjes_continued_fraction,
    stieltjes_pole_sum,
)
from ctqw.verify import (
    TYPO_SUSPECT,
    check_oracle,
    entry_status,
    pipeline_for_entry,
    pipeline_for_graph,
)

GRID = np.linspace(0.0, 10.0, 201)


def report(number, name, max_err, tol, passed, extra=""):
    status = "PASS" if passed else "FAIL"
    tail = f" {extra}" if extra else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status} max_err={max_err:.3e} tol={tol:.1e}{tail}")


def shell_sums(pvec, shell_of):
    """Per-shell amplitudes of a per-vertex state: the sum over shell l
    divided by sqrt(shell size)."""
    shells = [shell_of == level for level in range(shell_of.max() + 1)]
    return np.array([pvec[shell].sum(axis=0) / np.sqrt(shell.sum()) for shell in shells])


def test_01_petersen_closed_forms():
    tol = 1e-10
    pipe = pipeline_for_entry(make_entry("petersen"))
    series = pipe.series(GRID)
    t = GRID
    refs = [
        0.1 * (5 * np.exp(-1j * t) + 4 * np.exp(2j * t) + np.exp(-3j * t)),
        (0.5 * np.exp(-1j * t) - 0.8 * np.exp(2j * t) + 0.3 * np.exp(-3j * t)) / np.sqrt(3),
        # last coefficient is 3/5: the printed 2/5 breaks q2(0) = 0 and the
        # derivative identity; the propagator oracle confirms 3/5 below
        (-np.exp(-1j * t) + 0.4 * np.exp(2j * t) + 0.6 * np.exp(-3j * t)) / np.sqrt(6),
    ]
    err = max(
        float(np.abs(series.values[l] - refs[l]).max()) for l in range(3)
    )
    oracle_vals = shell_sums(oracle_amplitudes(pipe.graph, 0, t), stratify(pipe.graph, 0))
    ref_vs_oracle = max(
        float(np.abs(oracle_vals[l] - refs[l]).max()) for l in range(3)
    )
    report(1, "petersen stratum closed forms", max(err, ref_vs_oracle), tol, err < tol)
    assert ref_vs_oracle < tol, "reference forms no longer match the propagator"
    assert err < tol


def test_02_complete_graphs():
    tol = 1e-10
    t = GRID
    worst = 0.0
    for n in range(2, 51):
        pipe = pipeline_for_entry(make_entry("complete", (n,)))
        q0, q1 = pipe.series(t).values[:2]
        ref0 = (np.exp(-1j * (n - 1) * t) + (n - 1) * np.exp(1j * t)) / n
        ref1 = np.sqrt(n - 1) / n * (np.exp(-1j * (n - 1) * t) - np.exp(1j * t))
        worst = max(worst, float(np.abs(q0 - ref0).max()), float(np.abs(q1 - ref1).max()))
    report(2, "complete graphs n=2..50", worst, tol, worst < tol)
    assert worst < tol


def test_03_dihedral_srg():
    q0_tol, residue_tol = 1e-10, 1e-12
    t = GRID
    worst_q0 = 0.0
    worst_res = 0.0
    for m in range(2, 11):
        pipe = pipeline_for_entry(make_entry("dihedral_srg", (m,)))
        q0 = pipe.series(t).values[0]
        ref = (m - 1 + np.cos(m * t)) / m
        worst_q0 = max(worst_q0, float(np.abs(q0 - ref).max()))
        assert np.allclose(pipe.measure.nodes, (-m, 0.0, m), atol=1e-9)
        want = np.array([1 / (2 * m), (m - 1) / m, 1 / (2 * m)])
        worst_res = max(worst_res, float(np.abs(pipe.measure.weights_array() - want).max()))
    passed = worst_q0 < q0_tol and worst_res < residue_tol
    report(3, "dihedral srg q0 + residues", max(worst_q0, worst_res), q0_tol, passed,
           extra=f"(residues {worst_res:.2e} vs {residue_tol:.0e})")
    assert worst_q0 < q0_tol
    assert worst_res < residue_tol


def test_04_johnson_d2_tabulated_form():
    tol = 1e-9
    t = GRID
    worst = 0.0
    ref_vs_oracle = 0.0
    printed_worst = 0.0
    for n in range(4, 13):
        entry = make_entry("johnson", (n, 2))
        pipe = pipeline_for_entry(entry)
        q0 = pipe.series(t).values[0]
        # exact spectrum of J(n,2): 2(n-2), n-4 and -2 with multiplicities
        # 1, n-1 and n(n-3)/2; the printed two-frequency form sits at the
        # eigenvalues of the 2x2 Jacobi truncation instead, so it is kept
        # verbatim in the catalog only to be flagged
        ref = (
            np.exp(-2j * (n - 2) * t)
            + (n - 1) * np.exp(-1j * (n - 4) * t)
            + n * (n - 3) / 2 * np.exp(2j * t)
        ) / math.comb(n, 2)
        worst = max(worst, float(np.abs(q0 - ref).max()))
        oracle_q0 = oracle_amplitudes(pipe.graph, 0, t)[0]
        ref_vs_oracle = max(ref_vs_oracle, float(np.abs(oracle_q0 - ref).max()))
        printed_worst = max(printed_worst, float(np.abs(q0 - entry.closed_form(t)).max()))
        status = entry_status(pipe, GRID, closed_tol=tol, oracle_tol=1e-8)
        assert (status.status, status.ok) == (TYPO_SUSPECT, True), (
            f"J({n},2): printed form should be flagged, got {status}"
        )
    report(4, "johnson d=2 exact three-atom form", max(worst, ref_vs_oracle), tol,
           worst < tol, extra=f"(printed two-atom form off by {printed_worst:.2e}, flagged)")
    assert ref_vs_oracle < tol, "reference form no longer matches the propagator"
    assert worst < tol


def test_05_oracle_equivalence():
    tol = 1e-8
    cases = [
        ("complete:5", None),
        ("complete:12", None),
        ("cycle:8", None),
        ("cycle:9", None),
        ("petersen", None),
        ("johnson:7,2", None),
        ("dihedral_srg:3", None),
        ("path:7", None),
        ("path:7", 1),
        ("glued_trees:2", None),
        ("glued_trees:6", None),
        ("hamming:3,3", None),
    ]
    worst = 0.0
    for spec, origin in cases:
        entry = entry_from_spec(spec)
        if origin is None:
            pipe = pipeline_for_entry(entry)
        else:
            pipe = pipeline_for_graph(entry.build(), origin)
        result = check_oracle(pipe, pipe.series(GRID), pipe.krylov()[1], tol=tol)
        worst = max(worst, result.max_error)
        assert result.passed, f"{spec} origin={origin}: {result.line()}"
    report(5, "oracle equivalence (constructible entries)", worst, tol, worst < tol)
    assert worst < tol


def test_06_reference_table_regression():
    tol = 1e-9
    named = ["icosahedron", "pappus", "desargues", "dodecahedron", "h33"]
    extra = ["h34-doob", "j84"]
    outcomes = {}
    passing = 0
    for row in named + extra:
        entry = make_entry("appendix", (row,))
        status = entry_status(pipeline_for_entry(entry), GRID, closed_tol=tol, oracle_tol=1e-8)
        outcomes[row] = status.status
        # a flagged row whose engine output the oracle confirms still counts
        if status.status == "verified" or (
            status.status == "paper-typo-suspect" and status.ok
        ):
            passing += 1
        detail = "; ".join(c.line() for c in status.checks)
        print(f"    row {row}: {status.status} ({detail})")
    report(6, "reference-table rows", 0.0, tol, passing >= 5,
           extra=f"({passing}/{len(named) + len(extra)} rows pass incl. oracle-confirmed flags)")
    assert passing >= 5
    assert outcomes["icosahedron"] == "verified"
    assert outcomes["dodecahedron"] == "verified"
    assert outcomes["h33"] == "verified"
    # known defective rows must be flagged, not silently absorbed
    assert outcomes["pappus"] == "paper-typo-suspect"
    assert outcomes["desargues"] == "paper-typo-suspect"


CONSERVATION_POOL = [
    "petersen", "complete:3", "complete:20", "cycle:8", "cycle:15",
    "johnson:7,2", "johnson:8,4", "hamming:3,3", "dihedral_srg:5",
    "path:12", "path:30", "glued_trees:3", "tchebichef1:8,2",
    "tchebichef2:10,1.5", "srg:16,5,0,2", "appendix:icosahedron",
    "appendix:desargues", "appendix:klein", "appendix:wells",
    "appendix:gosset", "appendix:doro", "appendix:perkel",
    "appendix:coxeter", "appendix:j84", "appendix:go21",
]


def test_07_conservation_randomized():
    tol = 1e-10
    rng = np.random.default_rng(7)
    draws = 10_000
    entry_idx = rng.integers(0, len(CONSERVATION_POOL), size=draws)
    times = rng.uniform(0.0, 25.0, size=draws)
    worst = 0.0
    for i, spec in enumerate(CONSERVATION_POOL):
        ts = np.unique(times[entry_idx == i])
        if ts.size == 0:
            continue
        pipe = pipeline_for_entry(entry_from_spec(spec))
        series = pipe.series(ts)
        worst = max(worst, float(series.conservation_defect.max()))
    report(7, f"conservation over {draws} randomized draws", worst, tol, worst < tol)
    assert worst < tol


def test_08_stieltjes_identity():
    rel_tol = 1e-10
    rng = np.random.default_rng(8)
    worst = 0.0
    for spec in CONSERVATION_POOL:
        pipe = pipeline_for_entry(entry_from_spec(spec))
        jc, measure = pipe.jc, pipe.measure
        scale = 1.0 + max(abs(a) for a in jc.alpha) + max(jc.omega)
        x = rng.uniform(-scale, scale, size=100)
        y = rng.uniform(0.1, 2.0, size=100) * rng.choice([-1.0, 1.0], size=100)
        for z in x + 1j * y:
            cf = stieltjes_continued_fraction(jc, z)
            ps = stieltjes_pole_sum(measure, z)
            worst = max(worst, abs(cf - ps) / (1.0 + abs(cf)))
    report(8, "continued fraction vs pole sum", worst, rel_tol, worst < rel_tol)
    assert worst < rel_tol


def test_09_bessel_limits():
    tol = 1e-6
    t = np.linspace(0.0, 5.0, 101)

    path_jc = pipeline_for_entry(make_entry("path", (200,))).jc
    q0_path = amplitude_series(spectral_measure(path_jc), path_jc, t).values[0]
    ref_path = jv(0, 2 * t) + jv(2, 2 * t)
    err_path = float(np.abs(q0_path - ref_path).max())

    cycle_jc = pipeline_for_entry(make_entry("cycle", (400,))).jc
    q0_cycle = amplitude_series(spectral_measure(cycle_jc), cycle_jc, t).values[0]
    ref_cycle = jv(0, 2 * t)
    err_cycle = float(np.abs(q0_cycle - ref_cycle).max())

    # stratum amplitudes on the long path: (-i)^l (J_l + J_{l+2})(2t); the
    # printed i^l phase contradicts both the derivative identity and the
    # propagator (q_1 ~ -i t at small t), so the realized phase is pinned
    path_levels = pipeline_for_entry(make_entry("path", (200,))).series(t).values
    err_levels = 0.0
    for level in range(1, 6):
        ql = path_levels[level]
        ref = (-1j) ** level * (jv(level, 2 * t) + jv(level + 2, 2 * t))
        err_levels = max(err_levels, float(np.abs(ql - ref).max()))

    worst = max(err_path, err_cycle, err_levels)
    report(9, "large-size Bessel limits", worst, tol, worst < tol,
           extra=f"(path {err_path:.2e}, cycle {err_cycle:.2e}, levels {err_levels:.2e})")
    assert worst < tol


def test_10_lanczos_non_qd_path():
    omega_tol, oracle_tol = 1e-12, 1e-8
    worst_omega = 0.0
    worst_q0 = 0.0
    patterns = {}
    for n in range(4, 21):
        g = build_graph(n, [(i, i + 1) for i in range(n - 1)])
        jc, _ = reduce_walk(g, 1, basis=False)
        # interleaved pattern (i+1)/i at odd positions, i/(i+1) at even ones;
        # an even-length chain terminates early with 1/(n/2) instead
        count = n - 1 if n % 2 == 0 else n - 2
        expected = []
        for j in range(1, count + 1):
            i = (j + 1) // 2
            expected.append((i + 1) / i if j % 2 == 1 else i / (i + 1))
        if n % 2 == 0:
            expected[-1] = 1.0 / (n // 2)
            patterns[n] = "even: pairwise with terminal 1/(n/2)"
        else:
            patterns[n] = "odd: pairwise, one dimension deflated"
        assert len(jc.omega) == len(expected), f"n={n}: wrong Krylov dimension"
        worst_omega = max(
            worst_omega, float(np.abs(np.array(jc.omega) - expected).max())
        )
        worst_omega = max(worst_omega, float(np.abs(jc.alpha).max()))

        q0 = amplitude_series(spectral_measure(jc), jc, GRID).values[0]
        want = oracle_amplitudes(g, 1, GRID)[1]
        worst_q0 = max(worst_q0, float(np.abs(q0 - want).max()))
    passed = worst_omega < omega_tol and worst_q0 < oracle_tol
    report(10, "lanczos on non-QD paths", max(worst_omega, worst_q0), oracle_tol, passed,
           extra=f"(omega pattern err {worst_omega:.2e} vs {omega_tol:.0e})")
    assert worst_omega < omega_tol
    assert worst_q0 < oracle_tol
