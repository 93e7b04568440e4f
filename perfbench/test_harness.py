"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py     (from the repository root)
"""

from __future__ import annotations

import gc
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
for p in (HERE, HERE.parent / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import ctqw.cli  # noqa: E402
import ctqw.graphs  # noqa: E402
import ctqw.verify  # noqa: E402
import harness  # noqa: E402
from tracer import COUNT_METRICS, TIME_METRICS, Span, Tracer, self_times  # noqa: E402
from workloads import Call  # noqa: E402

SMALL = [
    Call("csv", ("compute", "--graph", "petersen", "--samples", "11")),
    Call("json", ("compute", "--graph", "path:12", "--origin", "3", "--format", "json")),
    Call("verify", ("verify", "--graph", "cycle:8")),
    Call("stieltjes", ("stieltjes", "--graph", "petersen", "--eval=2+1j", "--eval=-2.5+0.5j")),
]


def digests(calls):
    out = []
    for call in calls:
        o = harness.invoke(call)
        assert not o.error, o.error
        out.append(harness.digest(o.text))
    return out


class WrappedRun(unittest.TestCase):
    def test_wrapped_and_unwrapped_outputs_are_identical(self):
        plain = digests(SMALL)
        tr = Tracer()
        tr.install()
        try:
            wrapped = digests(SMALL)
        finally:
            tr.uninstall()
        self.assertEqual(plain, wrapped)
        self.assertEqual(tr.metrics()["cli.calls"], len(SMALL))
        self.assertEqual(digests(SMALL), plain)

    def test_names_bound_by_from_import_are_recorded_and_restored(self):
        original = ctqw.graphs.stratify
        tr = Tracer()
        tr.install()
        try:
            # verify.py and the package namespace hold the same function object
            self.assertIs(ctqw.verify.stratify, ctqw.graphs.stratify)
            self.assertIsNot(ctqw.graphs.stratify, original)
            harness.invoke(SMALL[2])
        finally:
            tr.uninstall()
        names = {s.name for s in tr.spans}
        self.assertIn("graphs:stratify", names)        # reached as verify.stratify
        self.assertIn("verify:pipeline_for_entry", names)  # reached as cli.pipeline_for_entry
        self.assertIn("graphs:Graph.adjacency_float", names)  # a method
        self.assertIs(ctqw.graphs.stratify, original)
        self.assertIs(ctqw.verify.stratify, original)
        self.assertIs(ctqw.cli.main, ctqw.cli.main.__globals__["main"])
        self.assertFalse(hasattr(ctqw.cli.main, "__wrapped__"))

    def test_spans_nest_under_one_call(self):
        tr = Tracer()
        tr.install()
        try:
            harness.invoke(SMALL[0])
        finally:
            tr.uninstall()
        roots = [s for s in tr.spans if s.parent == -1]
        self.assertEqual([s.name for s in roots], ["cli:main"])
        self.assertTrue(all(s.call == roots[0].id for s in tr.spans))
        self.assertAlmostEqual(tr.metrics()["trace.self_total_s"],
                               roots[0].end - roots[0].start, places=9)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            Span(0, -1, 0, "cli:main", 0.0, 10.0, False),
            Span(1, 0, 0, "verify:check_oracle", 1.0, 4.0, False),
            Span(2, 1, 0, "oracle:eigendecompose_symmetric", 2.0, 3.0, False),
            Span(3, 0, 0, "graphs:stratify", 5.0, 6.0, False),
            # a child that outlives its parent by clock jitter is clipped
            Span(4, 3, 0, "graphs:bfs_distances", 5.5, 6.5, False),
        ]
        own = self_times(spans)
        self.assertEqual(own, {0: 6.0, 1: 2.0, 2: 1.0, 3: 0.5, 4: 1.0})


class AbsentLayer(unittest.TestCase):
    def test_missing_function_is_reported_absent(self):
        time_metrics = dict(TIME_METRICS, **{"graphs.gone_s": ("graphs:no_such_function",)})
        count_metrics = dict(COUNT_METRICS, **{
            "graphs.gone": ("sum", (("graphs:no_such_function", lambda a, r: 1),)),
            # a count whose return value no longer has the attribute it reads
            "graphs.reshaped": ("sum", (("graphs:stratify", lambda a, r: r.no_such_field),)),
        })
        tr = Tracer(time_metrics=time_metrics, count_metrics=count_metrics)
        tr.install()
        try:
            o = harness.invoke(SMALL[2])
        finally:
            tr.uninstall()
        self.assertEqual(o.error, "")
        m = tr.metrics()
        self.assertEqual(m["graphs.gone_s"], 0)
        self.assertEqual(m["graphs.gone"], 0)
        self.assertEqual(sorted(tr.absent()), ["graphs.gone", "graphs.gone_s"])
        self.assertEqual(tr.unreadable, {"graphs.reshaped"})


class Calibration(unittest.TestCase):
    def test_scaling_uses_the_mean_of_the_two_probes(self):
        ref = calibrate.REF_S
        self.assertAlmostEqual(calibrate.at_reference(3.0, ref, ref), 3.0)
        # the host ran at half the reference speed before the call, a third after
        self.assertAlmostEqual(calibrate.at_reference(5.0, 2 * ref, 3 * ref), 2.0)

    def test_probe_restores_the_garbage_collector(self):
        self.assertTrue(gc.isenabled())
        self.assertGreater(calibrate.probe(), 0.0)
        self.assertTrue(gc.isenabled())
        gc.disable()
        try:
            calibrate.probe()
            self.assertFalse(gc.isenabled())
        finally:
            gc.enable()


class Checks(unittest.TestCase):
    def test_series_check_rejects_a_wrong_amplitude(self):
        call = Call("p", ("compute", "--graph", "path:20", "--samples", "21"),
                    check="series", ref=("path", 20))
        text = harness.invoke(call).text
        self.assertIsNone(checks.check_series(call, text, np.random.default_rng(0)))
        header, *rows = text.splitlines()
        # swap real and imaginary parts: conservation still holds, the amplitudes are wrong
        swapped = [",".join((r := row.split(","))[:2] + [r[3], r[2], r[4]]) for row in rows]
        bad = checks.check_series(call, "\n".join([header, *swapped]) + "\n",
                                  np.random.default_rng(0))
        self.assertIn("amplitude error", bad)

    def test_resolvent_check_rejects_a_wrong_value(self):
        call = Call("s", ("stieltjes", "--graph", "path:9", "--origin", "2", "--eval=0.3+0.2j"),
                    check="resolvent", ref=("path", 9), origin=2)
        text = harness.invoke(call).text
        self.assertIsNone(checks.check_resolvent(call, text, np.random.default_rng(0)))
        self.assertIsNotNone(checks.check_resolvent(call, text.replace("z=0.3+0.2j", "z=0.3+0.3j"),
                                                    np.random.default_rng(0)))

    def test_reference_graphs_match_the_catalog(self):
        # vertex order matters for origins other than 0, hence the resolvent calls
        for spec, ref in [("hamming:3,4", ("hamming", 3, 4)), ("johnson:7,3", ("johnson", 7, 3)),
                          ("glued_trees:4", ("glued_trees", 4)), ("path:7", ("path", 7))]:
            for origin in (0, 5):
                call = Call(spec, ("stieltjes", "--graph", spec, "--origin", str(origin),
                                   "--eval=0.3+0.2j"),
                            check="resolvent", ref=ref, origin=origin)
                problem = checks.check_resolvent(call, harness.invoke(call).text,
                                                 np.random.default_rng(0))
                self.assertIsNone(problem, f"{spec} origin {origin}")


if __name__ == "__main__":
    unittest.main()
