"""Earth radius estimation from geodesic right triangles on a spheroid.

A right angle is imposed by construction: from a uniform surface point m,
follow perpendicular azimuths to place the base ends v, w (half-base legB
each way) and the apex u (legA).  The hypotenuse is measured twice, u-v
and u-w, and averaged; a relative asymmetry above 0.5% rejects the sample
as a construction-error diagnostic.  Curvature comes from the right
triangle (legA, legB, c) and the local radius estimate is R = 1/sqrt(K).

Defaults use the stated earth parameters: equatorial 6378 km, polar
6357 km.  On that spheroid the pointwise radius 1/sqrt(Gaussian curvature)
is supported on [6357, 6399.07] km, with surface-area density approximated
by p(R) = 0.077088 / sqrt(R - 6357).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .curvature import (
    TriangleSample,
    mean_and_standard_error,
    require_accepted,
    solve_triangles,
    write_column_csv,
)
from .errors import NonPositiveCurvature, SamplingStalled, SpheroidNonConvergence
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


def radius_from_curvature(curvature):
    """R = 1/sqrt(K); raises for K <= 0."""
    if curvature <= 0:
        raise NonPositiveCurvature(f"cannot take a radius for K = {curvature}")
    return 1.0 / math.sqrt(curvature)


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


def sample_spheroid_triangle(spheroid, leg_a, leg_b, rng):
    """One geodesic right triangle (legA, legB, averaged hypotenuse)."""
    if not (leg_a > 0 and leg_b > 0):
        raise ValueError("legs must be positive")
    if max(leg_a, leg_b) >= _quarter_minor_circumference(spheroid):
        raise ValueError("legs must stay below a quarter of the minor circumference")
    rejections = 0
    while True:
        mid = spheroid.sample_point(rng)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        try:
            v = spheroid.direct(mid, theta, leg_b)
            w = spheroid.direct(mid, theta + math.pi, leg_b)
            u = spheroid.direct(mid, theta + 0.5 * math.pi, leg_a)
            c1 = spheroid.distance(u, v)
            c2 = spheroid.distance(u, w)
        except SpheroidNonConvergence:
            rejections += 1
            if rejections >= _STALL_LIMIT:
                raise SamplingStalled("geodesic construction kept failing")
            continue
        c = 0.5 * (c1 + c2)
        if abs(c1 - c2) > _ASYMMETRY_REL * c:
            rejections += 1
            if rejections >= _STALL_LIMIT:
                raise SamplingStalled("hypotenuse asymmetry kept exceeding 0.5%")
            continue
        return TriangleSample(a=leg_a, b=leg_b, c=c)


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
    Draws run in chunks as in ``estimate_curvature``; K <= 0 counts as
    rejectedNegativeK and every other rejection as rejectedOther.
    """
    if spheroid is None:
        spheroid = earth_spheroid()
    if rng is None:
        raise ValueError("an explicit rng is required for reproducibility")
    if not 0 < leg_range[0] <= leg_range[1] < _quarter_minor_circumference(spheroid):
        raise ValueError(f"leg_range must satisfy 0 < min <= max < a quarter of the minor "
                         f"circumference, got {tuple(leg_range)}")

    def draw(stream):
        leg_a = stream.uniform(*leg_range)
        leg_b = stream.uniform(*leg_range)
        return sample_spheroid_triangle(spheroid, leg_a, leg_b, stream)

    ks, rejected = solve_triangles(draw, chunk_streams(n_samples, rng), max_length_scale)
    radii = np.asarray([radius_from_curvature(k) for k in ks if k > 0], dtype=np.float64)
    neg, other = len(ks) - radii.size, sum(rejected.values())
    require_accepted(radii.size, n_samples, {**rejected, "non_positive_k": neg})
    mean, standard_error = mean_and_standard_error(radii)
    report = EarthRadiusReport(
        radii=radii,
        mean=mean,
        standard_error=standard_error,
        rejected_negative_k=neg,
        rejected_other=other,
        leg_range=tuple(leg_range),
    )
    if max_length_scale is not None:
        report.ks_distance = ks_distance_to_expected(radii)
    return report
