"""Error-vs-distortion convergence sweeps.

For each vertex count, several seeded graphs are sprinkled; per count the
sweep records the mean metric distortion, the mean absolute error of the
individual curvature samples, and the absolute error of the pooled mean
estimate against the manifold's known curvature.  A linear model of error
against distortion summarizes how the estimate converges as distortion
goes to zero.
"""

from dataclasses import dataclass, field

import numpy as np

from .curvature import estimate_curvature
from .distortion import distortion_report
from .errors import CurvGraphError, DegenerateFit
from .rng import substream
from .sprinkle import DEFAULT_TOLERANCE, sprinkle


@dataclass
class ConvergencePoint:
    vertex_count: int
    mean_distortion: float
    mean_absolute_error: float
    absolute_error_of_mean: float
    seeds: list = field(default_factory=list)
    failures: int = 0

    def to_json(self):
        """JSON form; a value left NaN by a count with no usable graph is null."""
        def finite(x):
            return x if np.isfinite(x) else None

        return {
            "vertexCount": self.vertex_count,
            "meanDistortion": finite(self.mean_distortion),
            "meanAbsoluteError": finite(self.mean_absolute_error),
            "absoluteErrorOfMean": finite(self.absolute_error_of_mean),
            "seeds": [int(s) for s in self.seeds],
            "failures": self.failures,
        }


def linear_fit(xs, ys):
    """Ordinary least squares line with r^2.

    When the responses are constant (zero total variance) r^2 is reported
    as 0 with the ``degenerate`` flag set.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size != ys.size or xs.size < 2 or np.unique(xs).size < 2:
        raise DegenerateFit("need at least 2 distinct x values")
    design = np.column_stack([xs, np.ones_like(xs)])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    ss_res = float(np.sum((ys - (slope * xs + intercept)) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    if ss_tot == 0.0:
        return {"slope": slope, "intercept": intercept, "rSquared": 0.0, "degenerate": True}
    return {
        "slope": slope,
        "intercept": intercept,
        "rSquared": 1.0 - ss_res / ss_tot,
        "degenerate": False,
    }


def run_sweep(manifold, true_k, vertex_counts, seeds_per_count, samples_per_graph,
              master_seed):
    """ConvergencePoint per vertex count, pooling samples across seeds.

    Per-graph failures (no connected length, too few accepted samples) are
    recorded on the point without aborting the sweep.
    """
    points = []
    for count_idx, n in enumerate(vertex_counts):
        distortions = []
        pooled = []
        seeds = []
        failures = 0
        for seed_idx in range(seeds_per_count):
            stream = substream(master_seed, count_idx, seed_idx)
            seeds.append(seed_idx)
            try:
                gg = sprinkle(manifold, n, DEFAULT_TOLERANCE, rng=stream)
                rep = distortion_report(gg, rng=stream)
                cur = estimate_curvature(
                    gg.graph, rep.effective_edge_length, samples_per_graph, rng=stream,
                )
            except CurvGraphError:
                failures += 1
                continue
            distortions.append(rep.distortion)
            pooled.append(cur.samples)
        if not pooled:
            points.append(ConvergencePoint(n, float("nan"), float("nan"),
                                           float("nan"), seeds, failures))
            continue
        ks = np.concatenate(pooled)
        points.append(ConvergencePoint(
            vertex_count=n,
            mean_distortion=float(np.mean(distortions)),
            mean_absolute_error=float(np.mean(np.abs(ks - true_k))),
            absolute_error_of_mean=float(abs(ks.mean() - true_k)),
            seeds=seeds,
            failures=failures,
        ))
    return points


def sweep_report(points, true_k):
    """JSON-ready sweep summary with linear fits of both error types."""
    ok = [p for p in points if np.isfinite(p.mean_distortion)]
    out = {
        "trueK": true_k,
        "points": [p.to_json() for p in points],
        "fitMeanAbsoluteError": None,
        "fitAbsoluteErrorOfMean": None,
    }
    if len(ok) >= 2:
        xs = [p.mean_distortion for p in ok]
        try:
            out["fitMeanAbsoluteError"] = linear_fit(xs, [p.mean_absolute_error for p in ok])
            out["fitAbsoluteErrorOfMean"] = linear_fit(xs, [p.absolute_error_of_mean for p in ok])
        except DegenerateFit:
            pass
    return out


def sweep_csv(points, path):
    """CSV export of (distortion, mae, aem) triples."""
    with open(path, "w") as fh:
        fh.write("vertexCount,meanDistortion,meanAbsoluteError,absoluteErrorOfMean\n")
        for p in points:
            fh.write(f"{p.vertex_count},{p.mean_distortion!r},"
                     f"{p.mean_absolute_error!r},{p.absolute_error_of_mean!r}\n")
