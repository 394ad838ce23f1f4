"""The three workloads: their set-up, the commands of one round, and checks.

A round is the workload's fixed list of operations; an operation is one
or two `curvgraph` commands run back to back.  Every operation of every
round gets its own seed from the run's seed, so the same seed gives the
same inputs.  `check` returns (operation index or None, problem) pairs,
and `repeat` names the command a run repeats to test byte determinism.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

SPHERE = {"type": "sphere2", "radius": 1.0}
HYPERBOLIC = {"type": "hyperbolic", "curvature_scale": 1.0, "disk_radius": math.acosh(3.0)}
PLANE = {"type": "euclidean", "radius": 2.0}
EARTH_AXES_KM = (6378.0, 6357.0)  # the CLI's default spheroid


def op_seed(seed, round_index, slot):
    """Seed of one operation, drawn from the run's seed."""
    return int(np.random.SeedSequence([seed, round_index, slot]).generate_state(1)[0])


class Op:
    """One timed operation: its commands, and after the run their results."""

    def __init__(self, round_index, slot, commands, **info):
        self.round_index = round_index
        self.slot = slot
        self.commands = commands  # list of argv lists
        self.info = info
        self.results = []  # (exit code, stdout, stderr, seconds) per command

    @property
    def seconds(self):
        return sum(r[3] for r in self.results)

    @property
    def ok(self):
        return len(self.results) == len(self.commands) and all(r[0] == 0 for r in self.results)

    def stdout(self, k):
        return self.results[k][1]


class Workload:
    def __init__(self, seed, workdir, trace_path=None):
        self.seed, self.workdir, self.trace_path = seed, Path(workdir), trace_path

    def setup(self):
        """Make the stored inputs; return the spans another process recorded."""
        return []


class Sprinkle5k(Workload):
    name = "sprinkle-5k"
    N, P = 5000, 0.25
    MANIFOLDS = [("sphere", SPHERE), ("hyperbolic", HYPERBOLIC), ("euclidean", PLANE)]

    def round(self, r):
        ops = []
        for slot, (kind, manifold) in enumerate(self.MANIFOLDS):
            prefix = str(self.workdir / f"{kind}-{r}")
            argv = ["sprinkle", "--manifold", json.dumps(manifold), "--n", str(self.N),
                    "--p", str(self.P), "--out", prefix, "--seed", str(op_seed(self.seed, r, slot))]
            ops.append(Op(r, slot, [argv], prefix=prefix))
        return ops

    def repeat(self, ops):
        """The sphere command of round 0, with its two output files."""
        return ops[0], 0, [ops[0].info["prefix"] + ext for ext in (".edges", ".json")]

    def check(self, ops):
        import checks

        problems = []
        for k, op in enumerate(ops):
            if op.ok:
                problems += [(k, p) for p in checks.check_sprinkle(
                    op.stdout(0), op.info["prefix"], self.N, self.P)]
        return problems


class Estimate5k(Workload):
    name = "estimate-5k"
    SAMPLES, CENTRES = 600, 300
    graphs = None  # [{"prefix", "kind", "length"}] once set up

    def setup(self):
        """Write the two stored graphs in a child process; return its spans."""
        argv = [sys.executable, str(HERE / "make_graphs.py"), "--dir", str(self.workdir),
                "--seed", str(self.seed)]
        if self.trace_path:
            argv += ["--trace", str(self.trace_path)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
        self.graphs = json.loads(proc.stdout)["graphs"]
        if self.trace_path:
            from tracing import read_spans
            return read_spans(self.trace_path)
        return []

    def round(self, r):
        ops = []
        for slot, graph in enumerate(self.graphs):
            s = str(op_seed(self.seed, r, slot))
            ops.append(Op(r, slot, [
                ["curvature", "--graph", graph["prefix"], "--samples", str(self.SAMPLES),
                 "--threads", "1", "--seed", s],
                ["wolfram", "--graph", graph["prefix"], "--vertices", str(self.CENTRES),
                 "--seed", s],
            ], kind=graph["kind"]))
        return ops

    def repeat(self, ops):
        """The ball-volume command on the sphere graph of round 0."""
        return ops[0], 1, []

    def check(self, ops):
        import checks

        problems = []
        pools = {("sphere", 0): [], ("hyperbolic", 0): [], ("sphere", 1): []}
        for k, op in enumerate(ops):
            if not op.ok:
                continue
            for cmd, (schema, asked) in enumerate([("curvature_report", self.SAMPLES),
                                                   ("curvature_report", self.CENTRES)]):
                found = checks.check_report_counts(op.stdout(cmd), schema, asked)
                problems += [(k, p) for p in found]
                if not found and (op.info["kind"], cmd) in pools:
                    pools[(op.info["kind"], cmd)].append(json.loads(op.stdout(cmd)))
        if all(pools.values()):
            problems += [(None, p) for p in checks.check_estimate_pool(
                pools[("sphere", 0)], pools[("hyperbolic", 0)], pools[("sphere", 1)])]
        return problems


class Applications(Workload):
    name = "applications"
    EARTH_SAMPLES, EARTH_MAX_KM, LEVEL = 10000, 6400, 5
    _expectation = None

    def round(self, r):
        s = str(op_seed(self.seed, r, 0))
        prefix = str(self.workdir / f"fractal-{r}")
        return [Op(r, 0, [
            ["earth", "--samples", str(self.EARTH_SAMPLES), "--max-length", str(self.EARTH_MAX_KM),
             "--seed", s],
            ["fractal", "--level", str(self.LEVEL), "--exact", "--out", prefix, "--seed", s],
        ], prefix=prefix)]

    def repeat(self, ops):
        """The earth command of round 0."""
        return ops[0], 0, []

    def fractal_expectation(self):
        """(quadruples, shapes, mean curvature) of the benchmark's own enumeration."""
        import checks

        if self._expectation is None:
            self._expectation = checks.fractal_expectation(self.LEVEL)
        return self._expectation

    def check(self, ops):
        import checks

        problems = []
        earth = []
        for k, op in enumerate(ops):
            if not op.ok:
                continue
            found = checks.check_earth(op.stdout(0), self.EARTH_SAMPLES)
            if not found:
                earth.append(json.loads(op.stdout(0)))
            found += checks.check_fractal(op.stdout(1), op.info["prefix"] + ".csv",
                                          self.fractal_expectation())
            problems += [(k, p) for p in found]
        if earth:
            problems += [(None, p) for p in checks.check_earth_pool(earth, *EARTH_AXES_KM)]
        return problems


WORKLOADS = {w.name: w for w in (Sprinkle5k, Estimate5k, Applications)}
