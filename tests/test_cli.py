import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import grid_edges
from ctqw import build_graph, cli, pipeline_for_graph
from ctqw.cli import main
from ctqw.errors import PoleProximity
from ctqw.stieltjes import _CF_POINTS


# all a failed stdout leaves on stderr: no traceback, nothing at exit
STDOUT_ERROR = "error: UnwritableOutput: cannot write stdout: {}\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_petersen_csv_table(self, capsys):
        code, out, err = run(
            capsys, "compute", "--graph", "petersen", "--t-max", "10", "--samples", "201"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,stratum,re,im,prob"
        assert len(lines) == 1 + 201 * 3
        first = lines[1].split(",")
        assert first[:2] == ["0", "0"] and float(first[2]) == 1.0
        assert "max conservation defect" in err

    def test_k2_final_row_is_cos_pi(self, capsys):
        code, out, _ = run(
            capsys,
            "compute", "--graph", "complete:2",
            "--t-max", "3.14159265358979", "--samples", "2",
        )
        assert code == 0
        last_q0 = out.strip().splitlines()[-2].split(",")
        re, im = float(last_q0[2]), float(last_q0[3])
        assert re == pytest.approx(-1.0, abs=1e-12)
        assert im == pytest.approx(0.0, abs=1e-12)

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "compute", "--graph", "no/such/file.edges")
        assert code == 2
        assert "InvalidEdgeList" in err

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "compute", "--graph", "cycle:6", "--samples", "5", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kappa"] == [1, 2, 2, 1]
        assert len(payload["times"]) == 5
        assert payload["values"][0][0] == [1.0, 0.0]

    def test_output_file_and_bit_stability(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run(
                capsys,
                "compute", "--graph", "johnson:7,2",
                "--samples", "50", "--output", str(p),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("csv", "9c62f841b42b8cc1fbae2057da972fc8758cfca2c7f0b4e40541edff4031f61f"),
            ("json", "0feb8d6f2318ef8115b9f36c5b80c00fdde3e3fb2d201c08bf8b66b5da3c5b24"),
        ],
    )
    def test_stdout_digest_pinned(self, capsys, fmt, digest):
        # recorded from the per-cell formatter; the block formatter and the
        # tolist() JSON path must reproduce the bytes exactly
        code, out, _ = run(
            capsys,
            "compute", "--graph", "glued_trees:5", "--samples", "301", "--format", fmt,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_edge_list_input(self, capsys, tmp_path):
        path = tmp_path / "square.edges"
        path.write_text("# C4\n4 4\n0 1\n1 2\n2 3\n3 0\n")
        code, out, _ = run(
            capsys, "compute", "--graph", str(path), "--origin", "1", "--samples", "3"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 3 * 3

    def test_bad_grid_exit_2(self, capsys):
        code, _, err = run(capsys, "compute", "--graph", "petersen", "--samples", "1")
        assert code == 2
        code, _, err = run(capsys, "compute", "--graph", "petersen", "--t-max", "-1")
        assert code == 2

    def test_non_qd_origin_uses_krylov_levels(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--graph", "path:5", "--origin", "1", "--samples", "3"
        )
        assert code == 0
        # krylov dimension for a 5-path from the second vertex is 4
        strata = {line.split(",")[1] for line in out.strip().splitlines()[1:]}
        assert strata == {"0", "1", "2", "3"}


class TestVerify:
    def test_johnson_passes_with_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "--graph", "johnson:7,2", "--tol", "1e-8")
        assert code == 0
        assert "oracle vertices" in out and "PASS" in out
        assert "paper-typo-suspect" in out

    def test_icosahedron_closed_form(self, capsys):
        code, out, _ = run(capsys, "verify", "--graph", "appendix:icosahedron")
        assert code == 0
        assert "closed-form q0" in out
        assert "VERIFY PASS" in out

    def test_path_from_second_vertex(self, capsys):
        code, out, _ = run(capsys, "verify", "--graph", "path:5", "--origin", "1")
        assert code == 0
        assert "oracle vertices" in out and "(all 5 vertices, 4 levels)" in out

    def test_srg_without_construction(self, capsys):
        code, out, _ = run(capsys, "verify", "--graph", "srg:16,5,0,2")
        assert code == 0
        assert "closed-form q0" in out

    def test_near_vertex_cap(self, capsys):
        # hamming:3,12 has 1728 vertices, close to graphs.MAX_VERTICES
        code, out, _ = run(capsys, "verify", "--graph", "hamming:3,12")
        assert code == 0
        assert "VERIFY PASS" in out

    def test_tight_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--graph", "petersen", "--tol", "1e-16")
        assert code == 1
        assert "VERIFY FAIL" in out
        # --tol leaves the conservation bound alone
        assert re.search(r"^conservation: max err \S+ tol 1\.0e-10 PASS$", out, re.M)

    # argv tail -> (exit code, stdout with every number masked); one row per
    # way the closed-form line can read, plus a non-QD origin
    REPORTS = {
        ("appendix:icosahedron",): (0, [
            "oracle vertices: max err # tol # PASS (all 12 vertices, 4 levels)",
            "conservation: max err # tol # PASS",
            "closed-form q0: max err # tol # PASS",
            "VERIFY PASS",
        ]),
        ("johnson:7,2",): (0, [
            "oracle vertices: max err # tol # PASS (all 21 vertices, 3 levels)",
            "conservation: max err # tol # PASS",
            "closed-form q0: max err # tol # MISMATCH -> paper-typo-suspect "
            "(engine confirmed by oracle) PASS",
            "VERIFY PASS",
        ]),
        ("appendix:ig-ag25",): (0, [
            "conservation: max err # tol # PASS",
            "closed-form q0: max err # tol # MISMATCH (no oracle available; "
            "engine output authoritative) paper-typo-suspect",
            "VERIFY PASS",
        ]),
        # the oracle ran and refuted the engine: the mismatch is not blamed
        # on the tabulated form
        ("johnson:7,2", "--tol", "1e-16"): (1, [
            "oracle vertices: max err # tol # FAIL (all 21 vertices, 3 levels)",
            "conservation: max err # tol # PASS",
            "closed-form q0: max err # tol # MISMATCH (oracle failed too)",
            "VERIFY FAIL",
        ]),
        ("path:7", "--origin", "1"): (0, [
            "oracle vertices: max err # tol # PASS (all 7 vertices, 6 levels)",
            "conservation: max err # tol # PASS",
            "VERIFY PASS",
        ]),
    }

    @pytest.mark.parametrize("argv", list(REPORTS), ids=" ".join)
    def test_report_lines(self, capsys, argv):
        code, out, _ = run(capsys, "verify", "--graph", *argv)
        masked = re.sub(r"\d\.\d+e[+-]\d\d", "#", out)
        assert (code, masked.splitlines()) == self.REPORTS[argv]

    # (n, seed) of a random edge list; the n = 12 and 16 graphs lose 2e-10 to
    # 8e-10 of probability while every vertex stays within the oracle tolerance
    @pytest.mark.parametrize(
        "n, seed",
        [(None, None), (20, 20), (40, 40), (12, 0), (12, 1), (12, 5), (16, 4)],
        ids=["path:7 --origin 1", "random-20", "random-40",
             "random-12-s0", "random-12-s1", "random-12-s5", "random-16-s4"],
    )
    def test_verify_passes_exactly_when_compute_conserves(self, capsys, tmp_path, n, seed):
        if n is None:
            argv = ["--graph", "path:7", "--origin", "1"]
        else:
            path = tmp_path / f"random-{n}-{seed}.edges"
            write_random_edge_list(path, n, seed=seed)
            argv = ["--graph", str(path)]
        code, _, err = run(capsys, "compute", *argv)
        assert code == 0
        defect = float(err.split("max conservation defect:")[1])
        code, out, _ = run(capsys, "verify", *argv)
        assert code == (0 if defect < 1e-10 else 1), (defect, out)

    def test_conservation_failure_is_failed_not_array_only(self, tmp_path):
        from ctqw.graphs import read_edge_list
        from ctqw.verify import entry_status, pipeline_for_graph

        # random-12-s0 above: the oracle passes, the series loses 2.3e-10
        path = tmp_path / "random-12-0.edges"
        write_random_edge_list(path, 12, seed=0)
        pipe = pipeline_for_graph(read_edge_list(path), 0)
        status = entry_status(pipe, np.linspace(0.0, 10.0, 201))
        oracle, conservation = status.checks
        assert oracle.passed and not conservation.passed
        assert (status.status, status.ok) == ("failed", False)

    # one line per reduction: the cell count of the quotient and the reduced
    # dimension, which the cutoff may end below it (the ids are the names of
    # the two reductions these walks took before the quotient served both)
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("petersen", "--origin", "3"), "origin 3: 3 cells, dimension 3"),
            (("path:5", "--origin", "1"), "origin 1: 5 cells, dimension 4"),
        ],
        ids=["lanczos", "householder"],
    )
    def test_walk_log_reports_route(self, capsys, caplog, monkeypatch, argv, message):
        import logging

        monkeypatch.setenv("WALK_LOG", "INFO")
        root = logging.getLogger()
        old = root.level
        try:
            code, _, _ = run(capsys, "verify", "--graph", *argv)
        finally:
            root.setLevel(old)
        assert code == 0
        assert [r.getMessage() for r in caplog.records if r.name == "ctqw.jacobi"] == [message]


def write_random_edge_list(path, n, seed):
    """A seeded random connected graph with 2n edges: a random spanning tree
    topped up with uniformly drawn extra edges."""
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    while len(edges) < 2 * n:
        u, v = sorted(int(x) for x in rng.integers(0, n, 2))
        if u != v:
            edges.add((u, v))
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges)))


# points off the real axis, as many as the continued fraction's array route needs
MANY = tuple(f"{x:.3f}+0.5j" for x in np.linspace(-3.0, 3.0, _CF_POINTS))


class TestStieltjes:
    def test_measure_and_eval(self, capsys):
        code, out, _ = run(
            capsys, "stieltjes", "--graph", "petersen", "--eval", "4", "--eval", "2+1j"
        )
        assert code == 0
        measure = json.loads(out.splitlines()[0])
        assert np.allclose(measure["nodes"], [-2.0, 1.0, 3.0], atol=1e-9)
        assert np.allclose(measure["weights"], [0.4, 0.5, 0.1], atol=1e-9)
        assert "G_cf=0.333333333333" in out

    def test_eval_near_the_largest_double(self, capsys):
        # the pole sum's division overflows here, with no warning; both routes
        # print 0 where G is about 5e-309 (1 - i)
        code, out, err = run(capsys, "stieltjes", "--graph", "petersen", "--eval=1e308+1e308j")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "z=1e308+1e308j G_cf=0-0j G_poles=0+0j |diff|=0.000e+00"

    @pytest.mark.parametrize("count", [1, _CF_POINTS], ids=["per point", "array"])
    def test_eval_beyond_the_largest_double(self, capsys, count):
        # |z| overflows a double: the pole rule reads it as inf, on both routes
        points = ["1.7e308+1.7e308j"] * count
        code, out, err = run(
            capsys, "stieltjes", "--graph", "petersen", *(f"--eval={z}" for z in points)
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == [
            "z=1.7e308+1.7e308j G_cf=0-0j G_poles=0+0j |diff|=0.000e+00"
        ] * count

    def test_eval_values_starting_with_minus(self, capsys):
        points = ["-2.5+0.5j", "-1e-3", "-0.75"]
        code, out, _ = run(
            capsys, "stieltjes", "--graph", "petersen",
            "--eval", points[0], "--eval", points[1], f"--eval={points[2]}",
        )
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("z=")]
        assert [line.split()[0] for line in lines] == [f"z={z}" for z in points]
        assert all(" G_cf=" in line and " G_poles=" in line for line in lines)

    def test_eval_forms_keep_argv_order(self, capsys):
        code, out, _ = run(
            capsys, "stieltjes", "--eval=4", "--ev=2+1j", "--graph", "petersen",
            "--eval", "-2.5+0.5j", "--e=-0.75", "--eva", "0.5j",
        )
        assert code == 0
        lines = out.splitlines()[1:]
        assert [line.split()[0] for line in lines] == [
            "z=4", "z=2+1j", "z=-2.5+0.5j", "z=-0.75", "z=0.5j"
        ]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("stieltjes", "--graph", "petersen", "--eval=4", "--eval"),
             "argument --eval: expected one argument"),
            (("stieltjes", "--graph", "--eval=4", "--eval=2", "petersen"),
             "argument --graph: expected one argument"),
        ],
    )
    def test_eval_usage_errors(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        out, err = capsys.readouterr()
        assert (excinfo.value.code, out) == (2, "")
        assert err.rstrip().endswith(message)

    def test_eval_points_reach_argparse_as_one_option(self, capsys, monkeypatch):
        import argparse

        seen = []
        parse = argparse.ArgumentParser.parse_known_args

        def counting(self, args=None, namespace=None):
            seen.append(sum(token.startswith("-") for token in args))
            return parse(self, args, namespace)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        counts = {}
        for n in (10, 1000):
            points = [f"{x:.4f}+0.5j" for x in np.linspace(-2.5, 2.5, n)]
            seen.clear()
            code, out, _ = run(
                capsys, "stieltjes", "--graph", "petersen", *(f"--eval={z}" for z in points)
            )
            assert code == 0
            assert [line.split()[0] for line in out.splitlines()[1:]] == [f"z={z}" for z in points]
            counts[n] = list(seen)
        # the option strings each parser meets do not grow with the points
        assert counts[10] == counts[1000]

    def test_pole_adjacent_point(self, capsys):
        code, _, err = run(capsys, "stieltjes", "--graph", "petersen", "--eval", "3")
        assert code == 2
        assert "PoleProximity" in err

    @pytest.mark.parametrize(
        "points, only_poles, error",
        [
            (("4", "1.0000000000001", "abc"), False, "PoleProximity: z=(1.0000000000001+0j) is"),
            (("4", "abc", "1.0000000000001"), False, "InvalidParams: eval point 'abc'"),
            # a point only the pole sum refuses still comes before a later bad token
            (("4", "-2", "abc"), True, "PoleProximity: z=(-2+0j) is a spectral node"),
            (("4", "1.0000000000001", "abc"), True, "PoleProximity: z=(1.0000000000001+0j) is"),
            # from _CF_POINTS points on, the continued fraction runs over all at once
            (MANY + ("1.0000000000001", "abc"), False, "PoleProximity: z=(1.0000000000001+0j) is"),
            (MANY + ("abc", "1.0000000000001"), False, "InvalidParams: eval point 'abc'"),
            (MANY + ("inf", "1.0000000000001"), False, "InvalidParams: z=(inf+0j) is not finite"),
            (("4", "1.0000000000001") + MANY, False, "PoleProximity: z=(1.0000000000001+0j) is"),
            (MANY + ("-2", "abc"), True, "PoleProximity: z=(-2+0j) is a spectral node"),
            (("4", "-2") + MANY + ("1.0000000000001",), True, "PoleProximity: z=(-2+0j) is a"),
        ],
    )
    def test_first_refused_point_names_the_error(
        self, capsys, monkeypatch, points, only_poles, error
    ):
        if only_poles:
            monkeypatch.setattr(cli, "stieltjes_continued_fraction", lambda jc, z: np.zeros_like(z))
        code, out, err = run(
            capsys, "stieltjes", "--graph", "petersen", *(f"--eval={z}" for z in points)
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {error}"), err

    def test_pole_sum_stops_before_the_refused_point(self, capsys, monkeypatch):
        # the pole sum would refuse the node -2 after it: that error comes later
        def refuse_second(jc, z):
            exc = PoleProximity("z=1.5 refused")
            exc.index = 1
            raise exc

        monkeypatch.setattr(cli, "stieltjes_continued_fraction", refuse_second)
        code, out, err = run(
            capsys, "stieltjes", "--graph", "petersen", "--eval=4", "--eval=1.5", "--eval=-2"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: PoleProximity: z=1.5 refused"), err


class TestCatalogCommand:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        lines = out.strip().splitlines()
        ids = [line.split("\t")[0] for line in lines]
        assert "petersen" in ids
        assert sum(1 for i in ids if i.startswith("appendix:")) >= 10

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "catalog")
        _, second, _ = run(capsys, "catalog")
        assert first == second


class TestParser:
    def test_tree_built_once_per_process(self, capsys, monkeypatch):
        import argparse

        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for _ in range(4):
            assert run(capsys, "catalog")[0] == 0
        # at most the one tree (7 parsers), if no earlier call built it
        assert len(built) <= 7, built

    @pytest.mark.parametrize("argv", [("--help",), ("compute", "--help")], ids=" ".join)
    def test_help_on_stdout(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        out, err = capsys.readouterr()
        assert (excinfo.value.code, err) == (0, "")
        assert out.startswith(" ".join(("usage: ctqw", *argv[:-1], "[-h]")))

    def test_defaults_do_not_leak_between_calls(self, capsys):
        # K4's spectrum is {3, -1}, so z = 1 is no pole
        code, out, _ = run(capsys, "stieltjes", "--graph", "complete:4", "--eval=1")
        assert code == 0 and len(out.splitlines()) == 2
        code, out, _ = run(capsys, "stieltjes", "--graph", "complete:4")
        assert code == 0
        (line,) = out.splitlines()
        assert set(json.loads(line)) >= {"nodes", "weights"}

        code, out, _ = run(capsys, "compute", "--graph", "petersen", "--format", "json")
        assert code == 0 and out.startswith("{")
        code, out, _ = run(capsys, "compute", "--graph", "petersen")
        assert code == 0 and out.startswith("t,stratum,re,im,prob\n")


class TestExitCodes:
    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "compute", "--graph", "fancy:3")
        assert code == 2

    def test_bad_eval_literal(self, capsys):
        code, _, err = run(capsys, "stieltjes", "--graph", "petersen", "--eval", "zap")
        assert code == 2

    @pytest.mark.parametrize(
        "option, message",
        [
            (("--t-max", "inf"), "t-max must be positive and finite"),
            (("--t-max", "nan"), "t-max must be positive and finite"),
            (("--samples", "1000000000000"), "samples must be <= 16777216"),
        ],
    )
    def test_run_option_out_of_range(self, capsys, option, message):
        code, out, err = run(capsys, "compute", "--graph", "petersen", *option)
        assert code == 2
        assert out == ""
        assert f"error: InvalidParams: {message}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "--tol", "1e-3"),
            ("compute", "--eval=1"),
            ("stieltjes", "--t-max", "3"),
            ("stieltjes", "--samples", "5"),
            ("stieltjes", "--tol", "1e-3"),
        ],
        ids=" ".join,
    )
    def test_option_of_another_subcommand_rejected(self, capsys, argv):
        command, *option = argv
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--graph", "petersen", *option])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unwritable_output(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, _, err = run(capsys, "compute", "--graph", "petersen", "--output", str(target))
        assert code == 2
        assert "error: UnwritableOutput:" in err and str(target) in err

    def test_failed_in_memory_stdout(self, capsys, monkeypatch):
        class ClosedStream(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedStream())
        code = main(["verify", "--graph", "petersen"])
        assert code == 2
        assert capsys.readouterr().err == STDOUT_ERROR.format("Broken pipe")

    @pytest.mark.parametrize("limit", [None, 5000], ids=["short writes", "then none"])
    def test_stdout_taking_part_of_each_write(self, capsys, monkeypatch, limit):
        """A raw stdout that takes at most 1000 bytes a write gets every byte,
        written again from where each write stopped; one that then takes
        none fails with UnwritableOutput instead of a cut payload."""

        class Stingy(io.RawIOBase):
            def writable(self):
                return True

            def write(self, b):
                taken = b[: 1000 if limit is None else min(1000, limit - len(data))]
                data.extend(taken)
                return len(taken)

        argv = ["compute", "--graph", "path:100", "--samples", "21"]
        _, want, _ = run(capsys, *argv)
        data = bytearray()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(Stingy(), write_through=True))
        code = main(argv)
        err = capsys.readouterr().err
        if limit is None:
            assert (code, data.decode()) == (0, want)
        else:
            assert (code, len(data), err) == (2, limit, STDOUT_ERROR.format("no bytes taken"))

    @pytest.mark.parametrize("command", ["compute", "verify", "stieltjes"])
    def test_edge_list_not_utf8(self, capsys, tmp_path, command):
        path = tmp_path / "bad.edges"
        path.write_bytes(b"\xff\xfe3 2\n0 1\n1 2\n")
        code, out, err = run(capsys, command, "--graph", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: InvalidEdgeList: cannot read {path}: 'utf-8' codec can't")

    @pytest.mark.parametrize("command", ["compute", "verify", "stieltjes"])
    def test_householder_failure(self, capsys, monkeypatch, command):
        import scipy.linalg.lapack

        # every graph walk reduces by dsytrd, path:5 from vertex 1 included
        monkeypatch.setattr(scipy.linalg.lapack, "dsytrd", lambda a, **kw: (a, None, None, None, -5))
        code, out, err = run(capsys, command, "--graph", "path:5", "--origin", "1")
        assert (code, out) == (2, "")
        assert err == "error: EigensolverFailure: Householder tridiagonalization failed (LAPACK info -5)\n"

    def test_file_name_too_long(self, capsys):
        # os.stat raises ENAMETOOLONG rather than report a missing file
        code, out, err = run(capsys, "compute", "--graph", "x" * 5000)
        assert (code, out) == (2, "")
        assert err.startswith("error: InvalidEdgeList: 'xxx")
        assert err.endswith("' is neither a known family nor an existing file\n")


# every subcommand, each writing its stdout in its own way, and argparse's
# help; the compute outputs (1.8 MB of CSV, 1.0 MB of JSON) outgrow a pipe's
# buffer
STDOUT_ARGVS = [
    ("compute", "--graph", "path:100"),
    ("compute", "--graph", "path:100", "--format", "json"),
    ("verify", "--graph", "petersen"),
    ("stieltjes", "--graph", "petersen", "--eval", "4"),
    ("catalog",),
    ("--help",),
    ("compute", "--help"),
]


def _cli_child(argv, stdout, buffered):
    """``python -m ctqw.cli argv`` writing to ``stdout``, with block-buffered
    or unbuffered standard streams."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "ctqw.cli", *argv],
        env=env, stdout=stdout, stderr=subprocess.PIPE, text=True,
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", STDOUT_ARGVS, ids=" ".join)
def test_full_stdout_exits_2_with_named_error(argv, buffered):
    """A write to stdout that fails exits 2 with UnwritableOutput, with no
    traceback and nothing left to fail when the interpreter exits."""
    with open("/dev/full", "w") as full:
        proc = _cli_child(argv, full, buffered)
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (2, STDOUT_ERROR.format("No space left on device"))


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, unread",
    [pytest.param(argv, None, id=" ".join(argv)) for argv in STDOUT_ARGVS[:2]]
    + [pytest.param(STDOUT_ARGVS[0], 200_000, id="compute --graph path:100 200000 unread")],
)
def test_stdout_closed_early_exits_2(capsys, argv, unread, buffered):
    """A reader that closes the pipe after the first 4 KB (the CSV header and
    some rows, or the start of the one JSON line), as ``| head`` does, or
    ``unread`` characters before the end, during the last block: more than
    a pipe holds, so the last writes cannot all be taken."""
    if unread is not None:
        _, out, _ = run(capsys, *argv)
    proc = _cli_child(argv, subprocess.PIPE, buffered)
    try:
        if unread is None:
            proc.stdout.read(4096)
        else:  # exactly len(out) - unread bytes: no read-ahead
            left = len(out) - unread
            while left and (chunk := os.read(proc.stdout.fileno(), min(left, 1 << 16))):
                left -= len(chunk)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert (proc.returncode, err) == (2, STDOUT_ERROR.format("Broken pipe"))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_in_memory_stdout_gets_the_text_in_pieces(capsys, monkeypatch, fmt):
    """An io.StringIO stdout gets the text any other stdout gets, in pieces
    of at least _PIECE_CHARS characters but the last."""
    argv = ["compute", "--graph", "path:100", "--samples", "1001", "--format", fmt]
    code, want, _ = run(capsys, *argv)  # capsys's stdout is no io.StringIO
    assert code == 0 and len(want) > 2 * cli._PIECE_CHARS

    class Recording(io.StringIO):
        def write(self, text):
            sizes.append(len(text))
            return super().write(text)

    sizes, out = [], Recording()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(argv) == 0
    assert out.getvalue() == want
    assert len(sizes) > 2 and min(sizes[:-1]) >= cli._PIECE_CHARS


class TestGraphBuilds:
    """A catalog graph is built only when a check reads it, and at most once."""

    @pytest.fixture
    def builds(self, monkeypatch):
        import ctqw.catalog

        calls = []
        real = ctqw.catalog.build_graph

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(ctqw.catalog, "build_graph", counting)
        return calls

    @pytest.mark.parametrize("command", ["compute", "stieltjes"])
    @pytest.mark.parametrize("spec", ["hamming:3,12", "johnson:16,3"])
    def test_array_walk_builds_no_graph(self, capsys, builds, command, spec):
        code, _, _ = run(capsys, command, "--graph", spec)
        assert code == 0
        assert builds == []

    @pytest.mark.parametrize("spec", ["petersen", "glued_trees:5"])
    def test_verify_builds_once(self, capsys, builds, spec):
        code, out, _ = run(capsys, "verify", "--graph", spec, "--samples", "5")
        assert code == 0 and "oracle vertices" in out
        assert len(builds) == 1

    @pytest.mark.parametrize("spec", ["path:600", "glued_trees:9"])
    def test_stated_coefficients_build_no_graph(self, capsys, builds, spec):
        # the shell sizes of these families come from the graph, but only a
        # series reads them
        code, _, _ = run(capsys, "stieltjes", "--graph", spec)
        assert code == 0
        assert builds == []


@pytest.fixture
def reductions(monkeypatch):
    """The vertex count of each graph whose partition ``reduce_partition``
    reduces, as ``ctqw.verify`` binds it."""
    import ctqw.verify

    calls = []
    real = ctqw.verify.reduce_partition

    def counting(g, *args):
        calls.append(g.n)
        return real(g, *args)

    monkeypatch.setattr(ctqw.verify, "reduce_partition", counting)
    return calls


# the JSON reads the shell sizes from the partition the coefficients reduce
@pytest.mark.parametrize(
    "command",
    [
        ("compute", "--samples", "5"), ("compute", "--samples", "5", "--format", "json"),
        ("stieltjes",), ("verify", "--samples", "5"),
    ],
    ids=" ".join,
)
def test_edge_list_walk_reduces_once(capsys, reductions, tmp_path, command):
    path = tmp_path / "random-20-3.edges"
    write_random_edge_list(path, 20, seed=3)
    code, _, _ = run(capsys, command[0], "--graph", str(path), *command[1:])
    # verify reaches a verdict, but fails on this graph until ROADMAP item 2
    # lands (test_verify_passes_on_random_edge_list)
    assert code in ((0, 1) if command[0] == "verify" else (0,))
    assert reductions == [20]


# an --origin walk reduces once; a stated walk only for verify's oracle
@pytest.mark.parametrize(
    "argv, calls",
    [
        (("verify", "--graph", "path:64", "--origin", "5"), [64]),
        (("verify", "--graph", "glued_trees:5", "--origin", "3"), [94]),
        (("compute", "--graph", "petersen"), []),
        (("stieltjes", "--graph", "petersen"), []),
        (("verify", "--graph", "petersen"), [10]),
    ],
    ids=[
        "verify path:64 --origin 5", "verify glued_trees:5 --origin 3", "compute petersen",
        "stieltjes petersen", "verify petersen",
    ],
)
def test_catalog_walk_reductions(capsys, reductions, argv, calls):
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert reductions == calls


@pytest.fixture
def shell_calls(monkeypatch):
    """Calls of ``equitable_cells``, the walk's checked partition, as
    ``ctqw.verify`` binds it, of ``build_graph``, as ``ctqw.catalog`` binds
    it, and of ``IntersectionArray.shell_sizes``."""
    import ctqw.catalog
    import ctqw.graphs
    import ctqw.verify

    calls = {"equitable_cells": 0, "build_graph": 0, "shell_sizes": 0}
    for module, name in [
        (ctqw.verify, "equitable_cells"), (ctqw.catalog, "build_graph"),
        (ctqw.graphs.IntersectionArray, "shell_sizes"),
    ]:
        def counting(*args, _name=name, _real=getattr(module, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


# only the JSON of compute prints the shell sizes, so only it computes them,
# from the partition of a graph walk or from a stated intersection array; a
# graph walk checks its partition once, whatever of coefficients, basis and
# shell sizes it reads
@pytest.mark.parametrize(
    "argv, counts",
    [
        (("compute", "--graph", "glued_trees:9"), (0, 0, 0)),
        (("compute", "--graph", "glued_trees:9", "--format", "json"), (1, 1, 0)),
        (("compute", "--graph", "{edges}", "--format", "json"), (1, 0, 0)),
        (("verify", "--graph", "{edges}", "--samples", "5"), (1, 0, 0)),
        (("verify", "--graph", "path:64", "--origin", "5"), (1, 1, 0)),
        (("compute", "--graph", "petersen"), (0, 0, 0)),
        (("compute", "--graph", "petersen", "--format", "json"), (0, 0, 1)),
        (("verify", "--graph", "petersen"), (1, 1, 0)),
        (("stieltjes", "--graph", "petersen", "--eval", "4"), (0, 0, 0)),
    ],
    ids=[
        "compute csv", "compute json", "compute json edge list", "verify edge list",
        "verify path:64 --origin 5", "compute csv petersen", "compute json petersen",
        "verify petersen", "stieltjes petersen",
    ],
)
def test_only_json_computes_shells(capsys, shell_calls, tmp_path, argv, counts):
    path = tmp_path / "random-20-3.edges"
    write_random_edge_list(path, 20, seed=3)
    code, _, _ = run(capsys, *(a.format(edges=path) for a in argv))
    # verify fails on the edge list until ROADMAP item 2 lands
    assert code in ((0, 1) if "{edges}" in argv else (0,))
    assert tuple(shell_calls.values()) == counts


def test_one_partition_serves_coefficients_basis_and_shells(shell_calls, reductions):
    pipe = pipeline_for_graph(build_graph(30, grid_edges(5, 6)), 6)
    assert pipe.kappa is None
    _, basis = pipe.krylov()
    assert basis.shape == (30, pipe.jc.dim)
    assert shell_calls["equitable_cells"] == 1 and reductions == [30]


@pytest.fixture(scope="module")
def grid_5x6(tmp_path_factory):
    """The edge list of the grid P5 □ P6, with its adjacency matrix."""
    import scipy.sparse

    edges = grid_edges(5, 6)
    path = tmp_path_factory.mktemp("grid") / "grid-5x6.edges"
    path.write_text(f"30 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    u, v = np.array(edges).T
    adjacency = scipy.sparse.coo_array((np.ones(2 * len(edges)), (np.r_[u, v], np.r_[v, u])))
    return path, adjacency.tocsc()


# from 14 of the 30 origins, eigenvector first components that underflow to
# 0.0 once made the measure's weights 0/0
@pytest.mark.parametrize("origin", range(30))
def test_stieltjes_on_grid_from_every_origin(capsys, grid_5x6, origin):
    import scipy.sparse
    import scipy.sparse.linalg

    path, adjacency = grid_5x6
    z = 0.3 + 0.5j
    code, out, err = run(
        capsys, "stieltjes", "--graph", str(path), "--origin", str(origin), "--eval", "0.3+0.5j"
    )
    assert (code, err) == (0, "")
    e_o = np.zeros(30, dtype=complex)
    e_o[origin] = 1.0
    shifted = (z * scipy.sparse.identity(30, format="csc") - adjacency).astype(complex)
    want = scipy.sparse.linalg.spsolve(shifted, e_o)[origin]
    found = re.search(r"G_cf=(\S+) G_poles=(\S+)", out.splitlines()[-1])
    for g in found.groups():
        assert abs(complex(g) - want) < 1e-9 * abs(want)


@pytest.mark.parametrize("origin", range(30))
def test_verify_on_grid_reaches_a_verdict(capsys, grid_5x6, origin):
    # a failure, not a usage error: the series is wrong from every origin
    # until ROADMAP item 2 lands (tests/test_jacobi.py::test_product_rule_on_grids)
    code, out, _ = run(capsys, "verify", "--graph", str(grid_5x6[0]), "--origin", str(origin))
    assert code == 1 and out.endswith("VERIFY FAIL\n")


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: the orthonormal-polynomial recursion of the series "
    "loses 5.3e-6 of probability on the 20 Krylov levels of this non-QD origin",
)
def test_verify_passes_on_random_edge_list(capsys, tmp_path):
    path = tmp_path / "random-20-3.edges"
    write_random_edge_list(path, 20, seed=3)
    code, out, _ = run(capsys, "verify", "--graph", str(path), "--samples", "5")
    assert code == 0, out


# each is out of range, of the wrong kind, or larger than MAX_VERTICES; at
# the parent of the size rule several ran out of memory or hung
BAD_SPECS = [
    "complete:100000", "cycle:100000000", "path:100000000", "dihedral_srg:5000",
    "tchebichef2:100000000,1", "complete:1e20", "johnson:7,x", "glued_trees:100000000",
    "hamming:2,1000000000", "johnson:1000000000,500000000", "johnson:7,", "johnson:7,-1",
]


# srg:2m,2m-2,2m-4,2m-2 (the cocktail-party graph) with m = 10**400 is
# feasible, but no double holds its parameters
_HUGE_SRG = "srg:{},{},{},{}".format(*(2 * 10**400 - d for d in (0, 2, 4, 2)))


@pytest.mark.parametrize("command", ["compute", "stieltjes", "verify"])
def test_srg_beyond_double_precision_exits_2(capsys, command):
    code, out, err = run(capsys, command, "--graph", _HUGE_SRG)
    assert (code, out) == (2, "")
    assert err.startswith("error: InvalidParams: srg needs ") and "v <= 2**53" in err


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


# each is run as given: an oracle coefficient table beyond MAX_SERIES_CELLS
# (unchecked, a MemoryError, numpy's size error or an OverflowError
# traceback), phases that overflow to NaN, or a non-finite resolvent point
# (unchecked, both print nan and exit 0)
BAD_ARGVS = [
    ("compute", "--graph", "petersen", "--t-max", "1e308", "--samples", "3"),
    ("verify", "--graph", "petersen", "--t-max", "1e5"),
    ("verify", "--graph", "petersen", "--t-max", "1e6"),
    ("verify", "--graph", "petersen", "--t-max", "1e20"),
    ("verify", "--graph", "petersen", "--t-max", "1e308"),
    ("stieltjes", "--graph", "petersen", "--eval=nan"),
    # unchecked, complex()'s own message with no error name
    ("stieltjes", "--graph", "petersen", "--eval=abc"),
    ("stieltjes", "--graph", "petersen", "--eval="),
    ("stieltjes", "--graph", "petersen", "--eval=1+2j+3"),
    # unchecked, an infinite tolerance passes every check (1e400 parses to inf)
    ("verify", "--graph", "appendix:pappus", "--tol", "inf"),
    ("verify", "--graph", "appendix:pappus", "--tol", "1e400"),
]


@pytest.mark.parametrize(
    "bad", BAD_SPECS + BAD_ARGVS, ids=lambda bad: bad if isinstance(bad, str) else " ".join(bad)
)
def test_bad_spec_exits_2_with_named_error(bad):
    """A bad spec under each walk subcommand, or a bad argv as given, in a
    child limited to 2 GiB of address space, is rejected with InvalidParams
    within 5 s."""
    if isinstance(bad, str):
        argvs = [(command, "--graph", bad) for command in ("compute", "verify", "stieltjes")]
    else:
        argvs = [bad]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    procs = {
        argv: subprocess.Popen(
            [sys.executable, "-m", "ctqw.cli", *argv],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            preexec_fn=_limit_address_space,
        )
        for argv in argvs
    }
    try:
        for argv, proc in procs.items():
            command = " ".join(argv)
            try:
                out, err = proc.communicate(timeout=5)
            except subprocess.TimeoutExpired:
                pytest.fail(f"{command} still running after 5 s")
            assert (proc.returncode, out) == (2, ""), (command, err)
            assert err.startswith("error: InvalidParams: "), (command, err)
    finally:
        for proc in procs.values():
            proc.kill()
            proc.communicate()


def test_emit_series_payloads_match_pinned_digests(capsys, monkeypatch, tmp_path):
    """Every call of the benchmark's emit_series workload, run in-process,
    writes the bytes whose sha256 the benchmark pins."""
    import importlib.util

    bench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    pinned = json.loads((bench / "expected.json").read_text())["emit_series"]
    calls = workloads.emit_series(0, tmp_path)
    assert sorted(call.label for call in calls) == sorted(pinned)
    for call in calls:
        code, out, _ = run(capsys, *call.argv)
        assert code == 0, call.label
        assert hashlib.sha256(out.encode()).hexdigest() == pinned[call.label], call.label


@pytest.mark.parametrize(
    "argv",
    [("petersen",), ("appendix:icosahedron",), ("path:7", "--origin", "1"), ("hamming:3,4",)],
    ids=" ".join,
)
def test_passing_verify_writes_nothing_to_stderr(argv):
    # a child process, so that warnings (shown once each by -W default) and
    # anything printed at exit reach the captured stream
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-W", "default", "-m", "ctqw.cli", "verify", "--graph", *argv],
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.endswith("VERIFY PASS\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("--graph", "tchebichef2:400,1", "--samples", "1001"),
        ("--graph", "path:600", "--samples", "501", "--format", "json"),
        ("--graph", "glued_trees:9", "--samples", "2001"),
        ("--graph", "petersen", "--origin", "3"),
        ("--graph", "glued_trees:9", "--origin", "5"),
    ],
    ids=" ".join,
)
def test_bytes_do_not_depend_on_blas_threads(argv):
    # the README's contract: these walks write the same bytes under 1 and 2
    # OpenBLAS threads. Longer walks (path:700, cycle:1999) may not, since
    # eigh_tridiagonal's default driver sums in a thread-dependent order
    src = Path(__file__).resolve().parents[1] / "src"
    digests = set()
    for threads in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-m", "ctqw.cli", "compute", *argv],
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        digests.add(hashlib.sha256(out.stdout).hexdigest())
    assert len(digests) == 1


def test_readme_example_runs():
    root = Path(__file__).resolve().parents[1]
    (block,) = re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), re.S)
    out = subprocess.run(
        [sys.executable, "-c", block],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert "paper-typo-suspect True" in out.stdout


def test_walk_log_env_sets_level(capsys, monkeypatch):
    import logging

    monkeypatch.setenv("WALK_LOG", "DEBUG")
    root = logging.getLogger()
    old = root.level
    try:
        code, _, _ = run(capsys, "catalog")
        assert code == 0
        assert root.level == logging.DEBUG
    finally:
        root.setLevel(old)


def test_cli_import_leaves_scipy_sparse_unloaded():
    # scipy.sparse, scipy.linalg and numpy.fft are imported inside the
    # functions that need them, so that a CLI start does not pay for them;
    # nothing needs scipy.special
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import ctqw.cli, sys; print([m for m in "
        "('scipy.sparse', 'scipy.linalg', 'scipy.special', 'numpy.fft') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_star_import_and_every_export_resolves():
    import ctqw

    namespace = {}
    exec("from ctqw import *", namespace)
    for name in ctqw.__all__:
        assert name in namespace, name
        assert getattr(ctqw, name) is namespace[name]


def test_every_export_has_a_caller_in_src_or_the_readme():
    """``__all__`` is the documented surface: each name is read somewhere in
    the package beyond its own definition, or the README names it."""
    import ast

    import ctqw

    root = Path(__file__).resolve().parents[1]
    read = set()
    for path in (root / "src" / "ctqw").glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    readme = (root / "README.md").read_text()
    orphans = [name for name in ctqw.__all__ if name not in read and f"`{name}`" not in readme]
    assert orphans == []
