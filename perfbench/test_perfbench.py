"""Self-tests of the benchmark (not of harmext).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

run from the root of the checkout.  The last test runs the benchmark for
real on the pointwise workload, in both modes, and takes about two
minutes.
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import gate  # noqa: E402
from bench import END_TO_END  # noqa: E402
from spread import quartile_spread  # noqa: E402
from tracing import PER_LAYER, Tracer, self_times, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0, 10] with children [1, 4], [3, 6] (overlapping) and
        # [9, 12] (running past the root); [2, 3] is a child of [1, 4]
        spans = [
            ["root", 0.0, 10.0, -1, {}],
            ["a", 1.0, 4.0, 0, {}],
            ["b", 3.0, 6.0, 0, {}],
            ["c", 9.0, 12.0, 0, {}],
            ["d", 2.0, 3.0, 1, {"points": 5}],
        ]
        got = self_times(spans)
        # root covers [1, 6] and [9, 10]: 10 - 6
        self.assertEqual(got, [4.0, 2.0, 3.0, 3.0, 1.0])
        summary = summarize(spans + [["d", 3.0, 3.5, 1, {"points": 2}]])
        self.assertEqual(summary["d"]["calls"], 2)
        self.assertEqual(summary["d"]["points"], 7)

    def test_install_patches_every_alias_and_uninstalls(self):
        import harmext.boundary
        import harmext.cli
        import harmext.orlicz
        import harmext.poisson
        originals = (harmext.cli.from_description, harmext.poisson.phi,
                     harmext.boundary.phi, harmext.orlicz.phi)
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIs(harmext.poisson.phi, harmext.orlicz.phi)
            self.assertIsNot(harmext.poisson.phi, originals[1])
            tracer.active = True
            harmext.cli.from_description("identity")
            tracer.active = False
            names = [s[0] for s in tracer.take()]
        finally:
            tracer.uninstall()
        self.assertEqual(names[0], "circle_map.from_description")
        self.assertIn("circle_map.lift_eval", names)
        self.assertEqual((harmext.cli.from_description, harmext.poisson.phi,
                          harmext.boundary.phi, harmext.orlicz.phi),
                         originals)


class QuartileTest(unittest.TestCase):
    def test_spread(self):
        # statistics.quantiles(1..10, n=4) = [2.75, 5.5, 8.25]
        self.assertAlmostEqual(quartile_spread(range(1, 11)), 1.0)
        self.assertEqual(quartile_spread([2.0] * 10), 0.0)


class GateTest(unittest.TestCase):
    """The gate must fire on a wrong value handed to the checker."""

    ref = {"value": 2.5, "per_level": [1.0, 1.5],
           "classification": "converged"}

    def test_reports(self):
        good = dict(self.ref, functional="length_power")
        self.assertEqual(gate.check_reports([good], {"length_power": self.ref},
                                            "t"), {"length_power": []})
        for key, bad in (("value", 2.5 * (1 + 1e-5)),
                         ("per_level", [1.0, 1.6]),
                         ("classification", "diverging")):
            report = dict(good, **{key: bad})
            got = gate.check_reports([report], {"length_power": self.ref}, "t")
            self.assertTrue(got["length_power"], key)
        self.assertTrue(gate.check_reports([], {"length_power": self.ref},
                                           "t")["length_power"])

    def test_anchors(self):
        import harmext.circle_map
        series = gate.BoundarySeries(harmext.circle_map.identity(), n=1 << 12)
        self.assertAlmostEqual(series.dirichlet, 1.0)
        exact = {"length_power": {"value": 4 * math.pi ** 2 * (1 - 2 ** -14)},
                 "kernel_weight": {"value": math.pi * (1 - 2 ** -14) ** 2},
                 "gauge_pair": {"value": 4 * math.pi ** 2}}
        got = gate.anchor_problems("identity", exact, series, (2, 0, 0), 0.0)
        self.assertFalse(any(got.values()))
        for name in exact:
            wrong = {k: dict(v) for k, v in exact.items()}
            wrong[name]["value"] *= 1.05
            got = gate.anchor_problems("identity", wrong, series, (2, 0, 0),
                                       0.0)
            self.assertTrue(got[name], name)

    def test_points(self):
        import harmext.circle_map
        series = gate.BoundarySeries(harmext.circle_map.rotation_map(0.3),
                                     n=1 << 12)
        z = 0.8 * np.exp(2j * np.pi * np.array([0.1, 0.7]))
        h = np.exp(0.6j * np.pi) * z
        self.assertEqual(gate.point_problems("r", "extend", z, h, series,
                                             0.3), [])
        self.assertTrue(gate.point_problems("r", "extend", z, h + 1e-4,
                                            series, 0.3))
        hz = np.full(2, np.exp(0.6j * np.pi))
        self.assertEqual(gate.point_problems(
            "r", "wirtinger", z, (hz, np.zeros(2)), series, 0.3), [])
        self.assertTrue(gate.point_problems(
            "r", "wirtinger", z, (hz, np.full(2, 1e-3)), series, 0.3))
        zero = np.zeros(1, dtype=complex)
        self.assertTrue(gate.point_problems(
            "r", "extend", zero, np.array([0.01]), series, None))


class MetricNamesTest(unittest.TestCase):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_tables_match_benchmark_json(self):
        self.assertEqual([(m["name"], m["unit"]) for m in
                          self.spec["end_to_end"]], list(END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in
                          self.spec["per_layer"]], list(PER_LAYER))
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(WORKLOADS))

    def test_printed_names(self):
        for trace, table in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 "pointwise", "--seed", "3", "--seconds", "1",
                 "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True,
                timeout=170, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            self.assertEqual(sorted(result), ["attempted", "correct",
                                              "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertEqual(
                {k: v["unit"] for k, v in result["metrics"].items()},
                {m["name"]: m["unit"] for m in self.spec[table]})


if __name__ == "__main__":
    unittest.main()
