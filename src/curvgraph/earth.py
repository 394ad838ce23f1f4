"""Earth radius estimation from geodesic right triangles on a spheroid.

A right angle is imposed by construction: from a uniform surface point m,
follow perpendicular azimuths to place the base ends v, w (half-base legB
each way) and the apex u (legA).  The hypotenuse is measured twice, u-v
and u-w, and averaged; a relative asymmetry above 0.5% rejects the sample
as a construction-error diagnostic.  Curvature comes from the right
triangle (legA, legB, c) and the local radius estimate is R = 1/sqrt(K).

Triangles are built a chunk of samples at a time with array geodesics
(``Spheroid.direct`` and ``Spheroid.distance`` over arrays).  One block of
uniforms holds each sample's two legs and its first construction: a round
of candidate points for the base midpoint, and the azimuth.  A sample whose
construction is not kept (no accepted candidate, a geodesic that does not
converge, or the asymmetry rejection) is pending: the pending samples draw
one more construction each, in sample order, and are built again, until
none is pending.  ``sample_spheroid_triangle`` is the same loop on one
sample.  Each triangle then gets one call of ``curvature_from_triangle``, a
few bracketed Newton steps on the half-angle cosine rule (about 2.3 on
earth triangles); the solves stay one call per triangle because
perfbench's trace check counts those calls.

Defaults use the stated earth parameters: equatorial 6378 km, polar
6357 km.  On that spheroid the pointwise radius 1/sqrt(Gaussian curvature)
is supported on [6357, 6399.07] km, with surface-area density approximated
by p(R) = 0.077088 / sqrt(R - 6357).
"""

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .curvature import (
    TriangleSample,
    mean_and_standard_error,
    require_accepted,
    solve_triangles,
    write_column_csv,
)
from .errors import NonPositiveCurvature, SamplingStalled
from .manifolds import MIN_CANDIDATES, Spheroid
from .rng import chunk_streams, uniform_from

EARTH_EQUATORIAL_KM = 6378.0
EARTH_POLAR_KM = 6357.0
DEFAULT_LEG_RANGE_KM = (500.0, 4000.0)

_PDF_COEFF = 0.077088
_PDF_LO = 6357.0
_PDF_HI = 6399.07
_ASYMMETRY_REL = 0.005
_STALL_LIMIT = 10**3
# uniforms of one construction: a round of candidate latitudes, longitudes
# and acceptances for the base midpoint, and the azimuth
_ATTEMPT_DRAWS = 3 * MIN_CANDIDATES + 1


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


def _midpoints(spheroid, u):
    """Base midpoints, azimuths and whether a candidate was accepted, per row of ``u``.

    A row holds the _ATTEMPT_DRAWS uniforms of one construction: a round of
    MIN_CANDIDATES latitude, longitude and acceptance draws, as
    ``Spheroid.candidates`` reads them, then the azimuth.  The midpoint is the
    round's first accepted candidate.
    """
    lat, lon, keep = spheroid.candidates(u[:, :-1].reshape(len(u), 3, MIN_CANDIDATES))
    rows, first = np.arange(len(u)), keep.argmax(axis=1)
    return (np.column_stack([lat[rows, first], lon[rows, first]]),
            uniform_from(u[:, -1], 0.0, 2.0 * math.pi), keep[rows, first])


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


def _retried_hypotenuses(spheroid, leg_a, leg_b, u, stream):
    """Averaged hypotenuse of each sample's first kept construction.

    Row i of ``u`` holds the _ATTEMPT_DRAWS of sample i's first
    construction, on legs ``leg_a[i]`` and ``leg_b[i]``.  A construction is
    not kept when its round of candidates accepted none or ``_hypotenuses``
    does not keep it; the samples still pending then draw one more
    construction each, in sample order, with one ``stream.random`` call, and
    are built again.  A sample rejected _STALL_LIMIT times stalls.
    """
    c = np.empty(len(u))
    pending = np.arange(len(u))
    for _ in range(_STALL_LIMIT):
        mid, theta, accepted = _midpoints(spheroid, u)
        h, kept = _hypotenuses(spheroid, mid, theta, leg_a[pending], leg_b[pending])
        kept &= accepted
        c[pending[kept]] = h[kept]
        pending, h = pending[~kept], h[~kept]
        if not pending.size:
            return c
        u = stream.random((pending.size, _ATTEMPT_DRAWS))
    raise SamplingStalled("geodesic construction kept failing" if math.isnan(h[0])
                          else "hypotenuse asymmetry kept exceeding 0.5%")


def sample_spheroid_triangle(spheroid, leg_a, leg_b, rng):
    """One geodesic right triangle (legA, legB, averaged hypotenuse).

    A construction that is not kept draws a new midpoint and azimuth, up to
    _STALL_LIMIT times: ``_retried_hypotenuses`` on one sample.
    """
    if not (leg_a > 0 and leg_b > 0):
        raise ValueError("legs must be positive")
    if max(leg_a, leg_b) >= _quarter_minor_circumference(spheroid):
        raise ValueError("legs must stay below a quarter of the minor circumference")
    c = _retried_hypotenuses(spheroid, np.array([leg_a]), np.array([leg_b]),
                             rng.random((1, _ATTEMPT_DRAWS)), rng)
    return TriangleSample(a=leg_a, b=leg_b, c=float(c[0]))


def _triangle_chunk(spheroid, leg_range, count, stream):
    """``count`` triangles with legs from ``leg_range``, built as arrays.

    One ``stream.random`` call takes each sample's two legs and the
    _ATTEMPT_DRAWS of its first construction; the samples whose
    construction is not kept draw again after it, in ``_retried_hypotenuses``.
    """
    u = stream.random((count, 2 + _ATTEMPT_DRAWS))
    legs = uniform_from(u[:, :2], *leg_range)
    c = _retried_hypotenuses(spheroid, legs[:, 0], legs[:, 1], u[:, 2:], stream)
    return [TriangleSample(a=a, b=b, c=h)
            for a, b, h in zip(legs[:, 0].tolist(), legs[:, 1].tolist(), c.tolist())]


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
    Draws run in the chunks of ``estimate_curvature``, each built as arrays
    by ``_triangle_chunk``; K <= 0 counts as rejectedNegativeK and every
    other rejection as rejectedOther.
    """
    if spheroid is None:
        spheroid = earth_spheroid()
    if rng is None:
        raise ValueError("an explicit rng is required for reproducibility")
    if not 0 < leg_range[0] <= leg_range[1] < _quarter_minor_circumference(spheroid):
        raise ValueError(f"leg_range must satisfy 0 < min <= max < a quarter of the minor "
                         f"circumference, got {tuple(leg_range)}")

    ks, rejected = solve_triangles(partial(_triangle_chunk, spheroid, leg_range),
                                   chunk_streams(n_samples, rng), max_length_scale)
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
