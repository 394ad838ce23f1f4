"""Fast tests: each output check passes on a real output and fails on a
corrupted copy of it, and the trace totals fail on inconsistent spans.

    python3 perfbench/selftest.py

The outputs come from small `curvgraph` commands (a 300-point sphere
sprinkle, a level-3 fractal) run in a temporary directory.
"""

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from curvgraph import cli  # noqa: E402

N, P = 300, 0.25
SPHERE = {"type": "sphere2", "radius": 1.0}


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    return out.getvalue()


def write_edges(prefix, n, keys):
    with open(f"{prefix}.edges", "w") as fh:
        fh.write(f"{n} {len(keys)}\n")
        for key in keys:
            fh.write("%d %d\n" % divmod(int(key), n))


class SprinkleChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = Path(tempfile.mkdtemp())
        cls.prefix = str(cls.tmp / "g")
        cls.stdout = run_cli(["sprinkle", "--manifold", json.dumps(SPHERE), "--n", str(N),
                              "--p", str(P), "--out", cls.prefix, "--seed", "7"])
        cls.summary = json.loads(cls.stdout)
        _, _, cls.keys = checks.read_edge_list(f"{cls.prefix}.edges")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def copy(self, name, keys=None, length=None):
        """A copy of the output with other edges and/or another length."""
        prefix = str(self.tmp / name)
        with open(f"{self.prefix}.json") as fh:
            sidecar = json.load(fh)
        summary = dict(self.summary, out=prefix)
        if length is not None:
            sidecar["connection_length"] = summary["connectionLength"] = length
        keys = self.keys if keys is None else keys
        summary["edgeCount"] = len(keys)
        write_edges(prefix, N, keys)
        with open(f"{prefix}.json", "w") as fh:
            json.dump(sidecar, fh)
        return json.dumps(summary), prefix

    def problems(self, stdout, prefix):
        return checks.check_sprinkle(stdout, prefix, N, P)

    def test_real_output_passes(self):
        self.assertEqual(self.problems(self.stdout, self.prefix), [])

    def test_dropped_edge(self):
        found = self.problems(*self.copy("dropped", keys=self.keys[1:]))
        self.assertTrue(any("not stored" in p for p in found), found)

    def test_added_out_of_annulus_edge(self):
        with open(f"{self.prefix}.json") as fh:
            coords = np.asarray(json.load(fh)["coordinates"])
        # the point farthest from vertex 0 is nowhere near the annulus
        far = int(np.argmin(coords @ coords[0]))
        keys = np.sort(np.append(self.keys, far))  # edge (0, far): key 0 * N + far
        found = self.problems(*self.copy("added", keys=keys))
        self.assertTrue(any("break" in p for p in found), found)

    def test_connected_one_step_below_l(self):
        with open(f"{self.prefix}.json") as fh:
            coords = json.load(fh)["coordinates"]
        l = self.summary["connectionLength"]
        window = reference.PairWindow(SPHERE, coords, P, l, 2 * l)
        longer = next(x for x in l * np.linspace(1.05, 1.5, 46)
                      if window.connected(x) and window.connected(x * (1 - checks.BRACKET_REL)))
        keys = np.sort((window.i * N + window.j)[window.edges(longer)])
        found = self.problems(*self.copy("longer", keys=keys, length=float(longer)))
        self.assertEqual(len(found), 1, found)
        self.assertIn("still connected", found[0])

    def test_edge_count_mismatch(self):
        stdout, prefix = self.copy("count")
        summary = dict(json.loads(stdout), edgeCount=len(self.keys) + 1)
        found = self.problems(json.dumps(summary), prefix)
        self.assertTrue(any("summary says" in p for p in found), found)

    def test_schema(self):
        summary = dict(self.summary, extra=1)
        self.assertTrue(self.problems(json.dumps(summary), self.prefix))


class EstimateChecks(unittest.TestCase):
    def report(self, mean, count=600, rejected=None):
        return {"count": count, "mean": mean, "rejected": rejected or {}}

    def test_report_counts(self):
        stdout = json.dumps({"schemaVersion": 1, "estimator": "sectional", "count": 598,
                             "mean": 1.0, "standardError": 0.01, "trimmedMean": 1.0,
                             "median": 1.0, "rejected": {"triangle_inequality": 2}})
        self.assertEqual(checks.check_report_counts(stdout, "curvature_report", 600), [])
        self.assertTrue(checks.check_report_counts(stdout, "curvature_report", 601))

    def test_shifted_curvature_mean(self):
        good = [self.report(1.0)], [self.report(-1.0)], [self.report(1.1)]
        self.assertEqual(checks.check_estimate_pool(*good), [])
        for shifted in ([self.report(1.08)], good[1], good[2]), \
                       (good[0], [self.report(0.01)], good[2]), \
                       (good[0], good[1], [self.report(1.51)]):
            self.assertEqual(len(checks.check_estimate_pool(*shifted)), 1, shifted)


class ApplicationChecks(unittest.TestCase):
    LEVEL = 3

    @classmethod
    def setUpClass(cls):
        cls.tmp = Path(tempfile.mkdtemp())
        cls.prefix = str(cls.tmp / "f")
        cls.stdout = run_cli(["fractal", "--level", str(cls.LEVEL), "--exact",
                              "--out", cls.prefix, "--seed", "1"])
        cls.expectation = checks.fractal_expectation(cls.LEVEL)
        cls.earth = run_cli(["earth", "--samples", "2000", "--max-length", "6400",
                             "--seed", "3"])

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def fractal(self, stdout):
        return checks.check_fractal(stdout, self.prefix + ".csv", self.expectation)

    def test_real_fractal_passes(self):
        self.assertEqual(self.fractal(self.stdout), [])

    def test_off_by_one_quadruple_count(self):
        stats = json.loads(self.stdout)
        stats["count"] += 1
        self.assertTrue(any("enumerated quadruples" in p for p in self.fractal(json.dumps(stats))))

    def test_shifted_fractal_mean(self):
        stats = json.loads(self.stdout)
        stats["mean"] *= 1 + 1e-8
        found = self.fractal(json.dumps(stats))
        self.assertEqual(len(found), 1, found)
        self.assertIn("cosine-rule mean", found[0])

    def test_cosine_rule_reference(self):
        for a, b, k in [(0.3, 0.4, 1.0), (1.0, 2.0, -1.0), (0.5, 0.5, 2.5), (2.0, 0.1, -0.3)]:
            if k > 0:
                c = math.acos(math.cos(a * math.sqrt(k)) * math.cos(b * math.sqrt(k))) / math.sqrt(k)
            else:
                t = math.sqrt(-k)
                c = math.acosh(math.cosh(a * t) * math.cosh(b * t)) / t
            self.assertAlmostEqual(reference.cosine_rule_curvature(a, b, c), k, delta=1e-9)
        self.assertEqual(reference.cosine_rule_curvature(3.0, 4.0, 5.0), 0.0)

    def test_earth(self):
        self.assertEqual(checks.check_earth(self.earth, 2000), [])
        report = json.loads(self.earth)
        self.assertEqual(checks.check_earth_pool([report], 6378.0, 6357.0), [])
        bad = dict(report, ksDistanceToExpectedPdf=0.09)
        self.assertEqual(len(checks.check_earth(json.dumps(bad), 2000)), 1)
        shifted = dict(report, mean=report["mean"] + 6.0)
        self.assertEqual(len(checks.check_earth_pool([shifted], 6378.0, 6357.0)), 1)

    def test_changed_bytes_on_repeat(self):
        self.assertEqual(checks.check_repeat(self.stdout, self.stdout), [])
        changed = self.stdout.replace('"n":3', '"n":4')
        self.assertNotEqual(changed, self.stdout)
        self.assertEqual(len(checks.check_repeat(self.stdout, changed)), 1)


class TraceChecks(unittest.TestCase):
    """One curvature command with one triangle: three BFS rows, one solve."""

    SPANS = [
        ("cli.main", 0.0, 10.0, -1, True, None),
        ("curvature.estimate_curvature", 1.0, 9.0, 0, True, None),
        ("curvature.sample_triangle", 1.0, 2.0, 1, True, None),
        ("graphs.bfs_hops", 1.0, 1.1, 2, True, None),
        ("graphs.bfs_hops", 1.1, 1.2, 2, True, None),
        ("graphs.bfs_hops", 1.2, 1.3, 2, True, None),
        ("curvature.curvature_from_triangle", 2.0, 2.5, 1, True, None),
    ]
    OUTPUTS = [(["curvature", "--graph", "g", "--samples", "1"],
                json.dumps({"count": 1, "mean": 1.0, "rejected": {}}))]

    def test_consistent_spans_pass(self):
        self.assertEqual(checks.trace_problems(self.SPANS, self.OUTPUTS), [])
        metrics = tracing.layer_metrics(self.SPANS)
        self.assertEqual(metrics["curvature.rows_per_triangle"][0], 3.0)
        self.assertAlmostEqual(metrics["curvature.triangle_self_s"][0], 0.7)
        self.assertAlmostEqual(metrics["cli.self_s"][0], 2.0)
        self.assertEqual(metrics["curvature.accept_ratio"][0], 1.0)

    def test_missing_bfs_row(self):
        found = checks.trace_problems(self.SPANS[:5] + self.SPANS[6:], self.OUTPUTS)
        self.assertTrue(any("fewer than three" in p for p in found), found)

    def test_extra_root_solve(self):
        spans = self.SPANS + [("curvature.curvature_from_triangle", 3.0, 3.5, 1, True, None)]
        self.assertTrue(checks.trace_problems(spans, self.OUTPUTS))


if __name__ == "__main__":
    unittest.main()
