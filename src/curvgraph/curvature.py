"""Discrete sectional curvature of path metric spaces.

The generalized cosine rule for a geodesic right triangle with legs a, b
and hypotenuse c in constant sectional curvature K is

    cos(c sqrt(K)) = cos(a sqrt(K)) cos(b sqrt(K)),

where for K < 0 the identity cos(i s) = cosh(s) applies.  K = 0 is always
a trivial root; besides it the equation has exactly one root in
(-inf, pi^2 / max(a,b,c)^2], whose sign equals sign(a^2 + b^2 - c^2), and
that root is the curvature estimate.

The solver scales the sides by the longest one, m, solves the unit-scale
triangle for K_unit and returns K_unit / m^2, raising RootNotFound when
that is not a finite nonzero float.  It solves the half-angle form of the
rule, S_a + S_b - 2 S_a S_b - S_c = 0 with S_x = sin^2(x sqrt(K)/2) (the
sinh^2 analogue for K < 0), divided by K so that the trivial root is gone
and the residual tends to gap/4 at K = 0, gap = a^2 + b^2 - c^2.  Unlike
cos(c sqrt(K)) - cos(a sqrt(K)) cos(b sqrt(K)), it does not lose the root's
last digits to cancellation on small triangles.  Newton steps start from the
root of the residual's quadratic Taylor series and stay inside a
closed-form bracket, [0, pi^2] when gap > 0, where the longest side
reaches pi at the upper end, and [-(3 ln 2 m / (a + b - c))^2, 0]
otherwise, from log cosh x >= x - ln 2; a step that leaves the bracket, or
is not half the step before last, is replaced by bisection.  The solve
ends when a step is below 1e-8 relative, after which quadratic
convergence leaves the error at rounding, or when the bracket is below
4 eps relative.  Far out on the negative branch the residual takes log
cosh, which stays near linear and cannot overflow.

Graph, earth and fractal triangles share one solve path:
``solve_triangles`` takes the side arrays of a run's draws, in draw order,
and returns K aligned with them and the rejections tallied by reason.  It
is the only caller of ``curvature_from_triangle``, one call per triangle:
perfbench's trace check counts the calls of that function as root solves,
so a batched solver waits for a change to that check.

On a graph, approximate right triangles are built from hop distances:
pick an apex u, two vertices v, w at equal hop distance from u with an
even-length base between them, and a base midpoint m; then (a, b, c) =
(d(u,m), d(v,w)/2, d(u,v)) in hops.  A run's hop sides are converted to
lengths by one multiplication with the effective edge length.  Curvature
statistics are aggregated over many sampled triangles.
"""

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (
    Disconnected,
    InvalidInput,
    NoCandidate,
    RootNotFound,
    TooFewAccepted,
    TriangleInequalityViolated,
)
from .graphs import bfs_hops, diameter_estimate, is_connected
from .rng import chunk_streams

_FLAT_REL_TOL = 1e-12     # |a^2+b^2-c^2| below this (relative to c^2) is flat
_RETRIES = 64             # triangle constructions tried per sample
_ROOT_RTOL = 4 * sys.float_info.epsilon  # a bracket this narrow (relative) ends a solve
_STEP_RTOL = 1e-8         # so does a Newton step this small (relative)
_MAX_STEPS = 100          # Newton or bisection steps per solve
_SINH_MAX = 5.0           # unit-scale sqrt(-K) past which the residual takes log cosh


@dataclass
class CurvatureReport:
    samples: np.ndarray
    mean: float
    standard_error: float
    trimmed_mean: float
    median: float
    rejected: dict = field(default_factory=dict)
    estimator: str = "sectional"

    @classmethod
    def from_samples(cls, samples, rejected=None, estimator="sectional"):
        ks = np.asarray(samples, dtype=np.float64)
        if ks.size == 0:
            raise TooFewAccepted("no accepted samples")
        mean, standard_error = mean_and_standard_error(ks)
        return cls(
            samples=ks,
            mean=mean,
            standard_error=standard_error,
            trimmed_mean=_trimmed_mean(ks),
            median=float(np.median(ks)),
            rejected=dict(rejected or {}),
            estimator=estimator,
        )

    @property
    def accepted_count(self):
        return int(self.samples.size)

    def to_json(self, include_samples=False):
        out = {
            "estimator": self.estimator,
            "count": self.accepted_count,
            "mean": self.mean,
            "standardError": self.standard_error,
            "trimmedMean": self.trimmed_mean,
            "median": self.median,
            "rejected": {k: int(v) for k, v in sorted(self.rejected.items())},
        }
        if include_samples:
            out["samples"] = self.samples.tolist()
        return out

    def write_csv(self, path):
        write_column_csv(path, "K", ((k, 1) for k in self.samples))


def mean_and_standard_error(values):
    """Mean and standard error (ddof=1, or 0 for one value) of a float64 array."""
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return float(values.mean()), se


def _trimmed_mean(values):
    """Mean of a float64 array without its int(0.05 n) lowest and highest values.

    The same partition and slice as scipy.stats.trim_mean(values, 0.05), so
    the result is bit-identical to it.
    """
    lo = int(0.05 * values.size)
    hi = values.size - lo
    return float(np.partition(values, (lo, hi - 1))[lo:hi].mean())


def require_accepted(accepted, asked, rejected):
    """Raise TooFewAccepted when fewer than max(10, asked / 100) samples were accepted."""
    needed = max(10, asked / 100)
    if accepted < needed:
        raise TooFewAccepted(
            f"{accepted} of {asked} samples accepted, below the minimum of "
            f"{needed:g} for a meaningful report (rejections: {dict(rejected)})"
        )


def write_column_csv(path, header, rows):
    """One-column CSV: ``header``, then each (value, count) row's ``repr(float(value))`` count times.

    Each value is formatted once however often it repeats.
    """
    with open(path, "w") as fh:
        fh.write(f"{header}\n")
        for value, count in rows:
            fh.write(f"{float(value)!r}\n" * count)


def _check_triangle(a, b, c):
    if not (a > 0 and b > 0 and c > 0):
        raise TriangleInequalityViolated(f"sides must be positive: {(a, b, c)}")
    if not (a < b + c and b < a + c and c < a + b):
        raise TriangleInequalityViolated(f"strict triangle inequality fails: {(a, b, c)}")


def _logcosh(x):
    """log cosh x, as log1p(2 sinh^2(x/2)) so that small x keeps its digits."""
    x = abs(x)
    if x > 300.0:
        return x - math.log(2.0)
    return math.log1p(2.0 * math.sinh(0.5 * x) ** 2)


def _newton(a, b, c, b_c, k):
    """(f, Newton step -f/f') at k != 0 for unit-scale sides with legs a <= b.

    f is the half-angle residual S_a + S_b - 2 S_a S_b - S_c over k, with
    S_x = sin^2(x sqrt(k)/2), or -sinh^2(x sqrt(-k)/2) for k < 0; f tends
    to gap/4 at k = 0.  It is evaluated as S_a cos(b sqrt(k)) plus
    S_b - S_c = sin((b-c) sqrt(k)/2) sin((b+c) sqrt(k)/2), so that the
    longer leg and the hypotenuse do not cancel; b_c is b - c, taken before
    the sides were scaled.  Past _SINH_MAX, f is the log-cosh residual over
    k, which has the same sign and does not overflow.
    """
    if k < -_SINH_MAX * _SINH_MAX:
        t = math.sqrt(-k)
        r = _logcosh(c * t) - _logcosh(a * t) - _logcosh(b * t)
        kdr = 0.5 * t * (c * math.tanh(c * t) - a * math.tanh(a * t) - b * math.tanh(b * t))
        f = r / k
    else:
        # r is the residual for k > 0 and its negative for k < 0; k dr/dk
        # uses k dy/dk = y/2 and S_b - S_c = (cos(c sqrt(k)) - cos(b sqrt(k)))/2
        if k > 0:
            s, sin, cos, sign = math.sqrt(k), math.sin, math.cos, -1.0
        else:
            s, sin, cos, sign = math.sqrt(-k), math.sinh, math.cosh, 1.0
        half_a, full_b, full_c = 0.5 * a * s, b * s, c * s
        sa, sb, cb = sin(half_a), sin(full_b), cos(full_b)
        sa2 = sa * sa
        r = sa2 * cb + sin(0.5 * b_c * s) * sin(0.5 * (b + c) * s)
        kdr = (sa * cos(half_a) * half_a * cb + sign * 0.5 * sa2 * sb * full_b
               + 0.25 * (full_b * sb - full_c * sin(full_c)))
        f = r / abs(k)
    # the Newton step on r/k: -(r/k) / ((k dr/dk - r)/k^2)
    den = kdr - r
    return f, (-r * k / den if den else math.nan)


def curvature_from_triangle(a, b, c):
    """Sectional curvature of the right triangle with legs a, b, hypotenuse c.

    Returns the unique nonzero root of cos(c sqrt(K)) - cos(a sqrt(K)) cos(b sqrt(K))
    in (-inf, pi^2/max(a,b,c)^2], or exactly 0 for a Pythagorean triple.
    Raises RootNotFound when no root is found or it is not a finite
    nonzero float at this length scale.
    """
    sides = a, b, c = float(a), float(b), float(c)
    _check_triangle(a, b, c)
    if a > b:
        a, b = b, a  # the rule is symmetric in the legs; b is the longer
    # scale by the longest side; a + b - c and b - c are taken first, where
    # the checked a + b > c keeps the one positive and the other carries no
    # rounding of the scaled b and c, which would swamp it when b is near c
    m = max(b, c)
    slack, b_c = (a + b - c) / m, (b - c) / m
    a, b, c = a / m, b / m, c / m
    a2, b2, c2 = a * a, b * b, c * c
    gap = a2 + b_c * (b + c)
    if abs(gap) <= _FLAT_REL_TOL * c2:
        return 0.0
    if gap > 0:
        # the longest side reaches pi at the upper end, where the strict
        # triangle inequality makes the residual negative
        lo, hi = 0.0, math.pi ** 2
    else:
        # log cosh x >= x - ln 2 makes the residual positive at the lower end
        lo, hi = -(3.0 * math.log(2.0) / slack) ** 2, 0.0
    # the smaller root of the residual's Taylor series gap/4 + q1 k + q2 k^2
    q1 = -(a2 * a2 + b2 * b2 - c2 * c2) / 48.0 - a2 * b2 / 8.0
    q2 = (a2 ** 3 + b2 ** 3 - c2 ** 3) / 1440.0 + a2 * b2 * (a2 + b2) / 96.0
    den = q1 + math.copysign(math.sqrt(max(q1 * q1 - gap * q2, 0.0)), q1)
    k = -0.5 * gap / den if den else math.nan
    if not lo < k < hi:
        # far from 0 the series fails: the bracket's midpoint, or on the
        # negative branch the root of log cosh x = x - ln 2
        k = 0.5 * hi if gap > 0 else -(math.log(2.0) / slack) ** 2
    before_last = last = math.inf
    for _ in range(_MAX_STEPS):
        f, step = _newton(a, b, c, b_c, k)
        if f > 0:
            lo = k
        elif f < 0:
            hi = k
        else:
            break
        if abs(step) <= _STEP_RTOL * abs(k):
            # quadratic convergence leaves the error at rounding
            k += step
            break
        # bisect when the step leaves the bracket or, as in a cycle at the
        # residual's rounding floor, is not half the step before last
        new = k + step
        if not (lo < new < hi and abs(step) <= 0.5 * before_last):
            new = 0.5 * (lo + hi)
        before_last, last = last, abs(new - k)
        k = new
        if hi - lo <= _ROOT_RTOL * max(-lo, hi):
            break
    else:
        raise RootNotFound(f"no root after {_MAX_STEPS} steps for {sides}")
    scaled = k / m / m
    if scaled == 0.0 or not math.isfinite(scaled):
        raise RootNotFound(f"curvature {k!r} / {m!r}^2 of {sides} is not a finite nonzero "
                           f"float at length scale {m!r}")
    return scaled


def ricci_scalar_from_mean_sectional(kappa, n):
    """Ricci scalar from the mean sectional curvature in dimension n."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    return n * (n - 1) * kappa


def sample_triangle(g, s_min_hops, s_max_hops, rng, apex_row=None):
    """Construct one approximate right triangle from hop distances.

    All three sides are required to reach the minimum hop scale: the
    half-base b = d(v,w)/2 and the median a = d(u,m) are each >= s_min,
    and the hypotenuse c = d(u,v) lies in [ceil(sqrt(2) s_min), s_max].
    The sqrt(2) floor keeps flat right triangles with both legs at the
    minimum constructible; below it only positively-curved shapes satisfy
    the leg constraints, which would bias the estimate.  The base midpoint
    is drawn uniformly among the qualifying vertices.  ``apex_row`` is a
    fixed apex and its hop row, ``(u, bfs_hops(g, u))``, or None for an
    apex drawn per retry.  Returns the sides in hops, ``(a, b, c)``, and
    the vertices ``(apex, v, w, midpoint)``.  Raises NoCandidate when no
    valid triple is found within the retry budget.
    """
    if not 2 <= s_min_hops <= s_max_hops:
        raise InvalidInput(f"need 2 <= s_min_hops <= s_max_hops, got ({s_min_hops}, {s_max_hops})")
    c_min = math.ceil(math.sqrt(2.0) * s_min_hops)
    n = g.vertex_count
    for _ in range(_RETRIES):
        if apex_row is None:
            u = int(rng.integers(n))
            du = bfs_hops(g, u)
        else:
            u, du = apex_row
        v_cand = np.nonzero((du >= c_min) & (du <= s_max_hops))[0]
        if v_cand.size == 0:
            if apex_row is not None:
                break
            continue
        v = int(v_cand[rng.integers(v_cand.size)])
        dv = bfs_hops(g, v)
        # w comes from the hop ring of radius du[v] around u, m from the ring
        # of radius half around v: filtering a ring keeps the ascending order
        # a full-length mask gives, so the same vertices are drawn
        ring = np.flatnonzero(du == du[v])
        base = dv[ring]
        w_cand = ring[(base % 2 == 0) & (base >= 2 * s_min_hops) & (ring != v)]
        if w_cand.size == 0:
            continue
        w = int(w_cand[rng.integers(w_cand.size)])
        dw = bfs_hops(g, w)
        half = int(dv[w]) // 2
        m_cand = np.flatnonzero(dv == half)
        m_cand = m_cand[(dw[m_cand] == half) & (du[m_cand] >= s_min_hops)]
        if m_cand.size == 0:
            continue
        mid = int(m_cand[rng.integers(m_cand.size)])
        return (int(du[mid]), half, int(du[v])), (u, v, w, mid)
    raise NoCandidate(f"no valid triangle after {_RETRIES} retries")


def _drawn_hops(draw, streams):
    """Hop sides of ``draw(gen)``, once per triangle of each (count, gen) chunk, in chunk order.

    One float64 row ``(a, b, c)`` per draw; a draw that raises NoCandidate
    is a row of NaN.
    """
    rows = []
    for count, stream in streams:
        for _ in range(count):
            try:
                rows.append(draw(stream)[0])
            except NoCandidate:
                rows.append((math.nan,) * 3)
    return np.array(rows, dtype=np.float64).reshape(-1, 3)


def check_length_scale(max_length_scale):
    """Raise ValueError unless ``max_length_scale`` is None or finite and > 0.

    The estimators call it before they draw, so a bad scale is reported
    ahead of any sampling failure.
    """
    if max_length_scale is not None and not 0 < max_length_scale < math.inf:
        raise ValueError(f"max_length_scale must be None or finite and > 0, "
                         f"got {max_length_scale!r}")


def solve_triangles(a, b, c, max_length_scale=None):
    """Curvature of each drawn triangle, in draw order, and the rejections by reason.

    ``a``, ``b`` and ``c`` are float64 side arrays, one element per draw;
    a draw with a NaN side found no candidate.  A triangle with a side
    above ``max_length_scale`` (None, or a scale that check_length_scale
    accepts) is rejected without a root solve.  Returns K aligned with the
    draws, NaN where rejected, and a Counter of the reasons in the order
    they first occur.
    """
    ks = np.full(len(a), math.nan)
    rejected = Counter()
    drawn = ~(np.isnan(a) | np.isnan(b) | np.isnan(c))
    for i, (ok, *sides) in enumerate(zip(drawn.tolist(), a.tolist(), b.tolist(), c.tolist())):
        if not ok:
            reason = "no_candidate"
        elif max_length_scale is not None and max(sides) > max_length_scale:
            reason = "max_length_scale"
        else:
            try:
                ks[i] = curvature_from_triangle(*sides)
                continue
            except TriangleInequalityViolated:
                reason = "triangle_inequality"
            except RootNotFound:
                reason = "root_not_found"
        rejected[reason] += 1
    return ks, rejected


def hop_window(g, rng, s_min_hops=None, s_max_hops=None):
    """The hop window (s_min, s_max), each missing end taken from the graph.

    The defaults are max(2, ceil(d / 3)) and d, for the diameter estimate d
    drawn from ``rng``; when both ends are given nothing is drawn.
    """
    if s_min_hops is None or s_max_hops is None:
        diam = diameter_estimate(g, rng)
        s_min_hops = max(2, math.ceil(diam / 3)) if s_min_hops is None else s_min_hops
        s_max_hops = diam if s_max_hops is None else s_max_hops
    return s_min_hops, s_max_hops


def estimate_curvature(g, l_e, n_samples, s_min_hops=None, s_max_hops=None,
                       rng=None, max_length_scale=None):
    """Curvature report over ``n_samples`` triangle draws.

    Draws are split into fixed-size chunks, each with its own random
    sub-stream spawned from ``rng``, and merged in chunk order, so the
    result depends only on ``rng`` and the arguments.  Samples whose
    construction or root solve fails are tallied by reason, not propagated.
    An ``l_e`` that is not finite and > 0 raises ValueError before anything
    is drawn.  A missing hop-window end comes from :func:`hop_window`; a
    window that is empty, or starts below 2, raises InvalidInput.
    """
    if n_samples < 1:
        raise ValueError("need n_samples >= 1")
    if rng is None:
        raise ValueError("an explicit rng is required for reproducibility")
    if not 0 < l_e < math.inf:
        raise ValueError(f"l_e must be finite and > 0, got {l_e!r}")
    if not is_connected(g):
        raise Disconnected("curvature estimation requires a connected graph")
    s_min_hops, s_max_hops = hop_window(g, rng, s_min_hops, s_max_hops)
    check_length_scale(max_length_scale)
    hops = _drawn_hops(partial(sample_triangle, g, s_min_hops, s_max_hops),
                       chunk_streams(n_samples, rng))
    ks, rejected = solve_triangles(*(hops * l_e).T, max_length_scale)
    ks = ks[~np.isnan(ks)]
    require_accepted(ks.size, n_samples, rejected)
    return CurvatureReport.from_samples(ks, rejected)


def vertex_curvature(g, l_e, samples_per_vertex, s_min_hops=None, s_max_hops=None, rng=None):
    """Mean curvature per vertex over triangles having that vertex as apex.

    ``l_e`` and the hop window are checked and resolved as in
    :func:`estimate_curvature`, before one sub-stream per vertex is spawned
    from ``rng``.  Returns an array with NaN for vertices with no accepted
    sample; a disconnected graph raises Disconnected, as it does for
    :func:`estimate_curvature`, and when no vertex has an accepted sample
    TooFewAccepted names the rejections summed over every vertex.
    """
    if samples_per_vertex < 1:
        raise ValueError("need samples_per_vertex >= 1")
    if rng is None:
        raise ValueError("an explicit rng is required for reproducibility")
    if not 0 < l_e < math.inf:
        raise ValueError(f"l_e must be finite and > 0, got {l_e!r}")
    if not is_connected(g):
        raise Disconnected("per-vertex curvature requires a connected graph")
    s_min_hops, s_max_hops = hop_window(g, rng, s_min_hops, s_max_hops)
    n = g.vertex_count
    out = np.full(n, np.nan)
    rejected = Counter()
    for v, stream in enumerate(rng.spawn(n)):
        # the apex's hop row is built once and shared by all its draws
        draw = partial(sample_triangle, g, s_min_hops, s_max_hops, apex_row=(v, bfs_hops(g, v)))
        hops = _drawn_hops(draw, [(samples_per_vertex, stream)])
        ks, vertex_rejected = solve_triangles(*(hops * l_e).T)
        rejected += vertex_rejected
        ks = ks[~np.isnan(ks)]
        if ks.size:
            out[v] = float(ks.mean())
    if np.isnan(out).all():
        raise TooFewAccepted(f"0 of {n * samples_per_vertex} samples accepted, so no vertex of "
                             f"{n} has a curvature (rejections: {dict(rejected)})")
    return out
