"""Constant-curvature spaces and the oblate spheroid.

Each manifold provides uniform sampling with respect to its area/volume
measure, exact geodesic distance and a check that points lie on it; the
spheroid also solves the direct geodesic problem, which earth-radius
triangles are built with.  Points are plain numpy arrays:

* spheres: embedding coordinates with norm equal to the radius
  (3 components for the 2-sphere, 4 for the 3-sphere),
* hyperbolic disk: polar coordinates ``(r, theta)`` about the disk center,
* Euclidean disk: Cartesian ``(x, y)``,
* spheroid: geodetic ``(latitude, longitude)`` in radians.

All operations are pure functions of their inputs plus an explicit random
generator.
"""

import math
import sys

import numpy as np

from .errors import InvalidInput, SamplingFailure, SpheroidNonConvergence

_REJECTION_CAP = 10**6
# a spheroid rejection round draws at least this many candidates
_MIN_CANDIDATES = 64
# largest hyperbolic R/k with cosh(R/k)^2 finite
_MAX_HYPERBOLIC_RATIO = math.acosh(math.sqrt(sys.float_info.max))
# relative slack of ``Manifold.outside``: a sampled point's norm or radius is
# within a few ulps of the sphere's radius or the disk's rim
_ON_MANIFOLD_RTOL = 1e-9


class Manifold:
    """Common interface; see the concrete classes for coordinate conventions.

    ``params`` names the constructor's arguments, in order; each is stored
    as the attribute of that name and is a key of the JSON form.
    ``coordinate_width`` is the number of coordinates of one point.
    """

    kind = None
    params = ()
    coordinate_width = 2

    def sample_points(self, n, rng):
        """Draw ``n`` points uniformly w.r.t. the area/volume measure."""
        raise NotImplementedError

    def sample_point(self, rng):
        return self.sample_points(1, rng)[0]

    def outside(self, points):
        """Mask of the rows of ``points`` that do not lie on the manifold.

        Each manifold states its bound; where rounding can put a sampled
        point past it, the bound has a relative slack of _ON_MANIFOLD_RTOL.
        """
        raise NotImplementedError

    def distances_from(self, p, qs):
        """Geodesic distances from ``p`` to each row of ``qs``.

        ``p`` is one point, or an array of points aligned row for row with
        ``qs``.  Either way each element goes through the same operations,
        so a pair's distance has the same bits whatever else shares the
        call: one aligned-array call over many pairs equals a loop of
        one-source calls.
        """
        raise NotImplementedError

    def diameter(self):
        """Upper bound on the distance between any two points."""
        raise NotImplementedError

    def chart(self, points):
        """Euclidean coordinates in which the chord never exceeds ``chord_bound(d)``.

        Points at geodesic distance at most ``L`` are then at most
        ``chord_bound(L)`` apart in the chart, so a k-d tree query of that
        radius finds every pair within ``L``.  The default is the points
        themselves, right for embedded spheres and the Euclidean disk.
        """
        return np.asarray(points, dtype=np.float64)

    def chord_bound(self, length):
        """Largest chart chord of two points at most ``length`` apart."""
        raise NotImplementedError

    def to_json(self):
        return {"type": self.kind, **{name: getattr(self, name) for name in self.params}}

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)}" for name in self.params)
        return f"{type(self).__name__}({args})"


def _check_positive(**lengths):
    for name, value in lengths.items():
        # the upper bound also refuses a JSON integer too large for a float
        if not 0 < value <= sys.float_info.max:
            raise ValueError(f"{name} must be finite and strictly positive, got {value}")


def _check_square(name, value, scale=1.0):
    """Refuse a length whose ``scale`` multiple has no finite normal square."""
    length = scale * value
    if not sys.float_info.min <= length * length < math.inf:
        what = "square" if scale == 1.0 else f"square of {scale:g} * {name}"
        raise ValueError(f"{name} must have a finite normal {what}, got {value}")


def _flat(shape, *arrays):
    """Each array broadcast to ``shape`` and flattened to a float64 vector."""
    return [np.broadcast_to(np.asarray(x, dtype=np.float64), shape).ravel() for x in arrays]


class _EmbeddedSphere(Manifold):
    """Round sphere represented by embedding coordinates (chart-free)."""

    params = ("radius",)

    def __init__(self, radius):
        _check_positive(radius=radius)
        self.radius = float(radius)
        # distances divide by radius**2, which must neither underflow nor overflow
        _check_square("radius", radius)

    def sample_points(self, n, rng):
        v = rng.normal(size=(n, self.coordinate_width))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return v * self.radius

    def outside(self, points):
        # the norm, within the slack of the radius
        return np.abs(np.linalg.norm(points / self.radius, axis=1) - 1.0) > _ON_MANIFOLD_RTOL

    def distances_from(self, p, qs):
        # Dot products column by column, not ``qs @ p``: a BLAS product rounds
        # a row differently with the number of rows, and arccos near 1 turns
        # one ulp into ~1e-8, so a pair's distance would depend on its batch.
        r = self.radius
        u = np.asarray(p) / (r * r)
        dot = qs[:, 0] * u[..., 0]
        for k in range(1, self.coordinate_width):
            dot += qs[:, k] * u[..., k]
        return r * np.arccos(np.clip(dot, -1.0, 1.0))

    def diameter(self):
        return math.pi * self.radius

    def chord_bound(self, length):
        r = self.radius
        return 2.0 * r * math.sin(min(length / (2.0 * r), math.pi / 2.0))


class Sphere2(_EmbeddedSphere):
    kind = "sphere2"
    coordinate_width = 3


class Sphere3(_EmbeddedSphere):
    kind = "sphere3"
    coordinate_width = 4


class HyperbolicDisk(Manifold):
    """Geodesic disk in the hyperbolic plane of curvature -1/k^2.

    ``disk_radius`` is the hyperbolic radius of the sampled region.
    """

    kind = "hyperbolic"
    params = ("curvature_scale", "disk_radius")

    def __init__(self, curvature_scale, disk_radius):
        _check_positive(curvature_scale=curvature_scale, disk_radius=disk_radius)
        self.curvature_scale = float(curvature_scale)
        self.disk_radius = float(disk_radius)
        # distances multiply cosh(r/k) of two points, so cosh(R/k)^2 must be a float
        if not self.disk_radius / self.curvature_scale < _MAX_HYPERBOLIC_RATIO:
            raise ValueError(f"disk_radius {disk_radius} / curvature_scale {curvature_scale} must "
                             f"be below {_MAX_HYPERBOLIC_RATIO:.6g}, where cosh(R/k)^2 overflows")

    def sample_points(self, n, rng):
        k, R = self.curvature_scale, self.disk_radius
        # radial density ~ sinh(r/k): invert the CDF (cosh(r/k)-1)/(cosh(R/k)-1)
        u = rng.random(n)
        r = k * np.arccosh(1.0 + u * (math.cosh(R / k) - 1.0))
        theta = rng.random(n) * (2.0 * math.pi)
        return np.column_stack([r, theta])

    def outside(self, points):
        # 0 <= r <= R, with the slack at the rim; any angle
        r = points[:, 0]
        return (r < 0.0) | (r > self.disk_radius * (1.0 + _ON_MANIFOLD_RTOL))

    def distances_from(self, p, qs):
        """Hyperbolic law of cosines from ``p`` (one or aligned) to each row of ``qs``.

        The source terms cosh(r1/k) and sinh(r1/k) come from ``math``, once
        per distinct source radius, as in a one-source call: numpy's cosh
        and sinh differ from ``math`` in the last ulp for about a fifth of
        arguments, which would move stored distances and graphs.
        """
        k = self.curvature_scale
        p = np.asarray(p, dtype=np.float64)
        r1, inverse = np.unique(p[..., 0] / k, return_inverse=True)
        cosh1 = np.array([math.cosh(x) for x in r1.tolist()])[inverse]
        sinh1 = np.array([math.sinh(x) for x in r1.tolist()])[inverse]
        r2, t2 = qs[:, 0] / k, qs[:, 1]
        arg = cosh1 * np.cosh(r2) - sinh1 * np.sinh(r2) * np.cos(p[..., 1] - t2)
        return k * np.arccosh(np.maximum(arg, 1.0))

    def diameter(self):
        return 2.0 * self.disk_radius

    def chart(self, points):
        # Poincare disk: sinh(d / 2k) = |x - y| / sqrt((1 - |x|^2)(1 - |y|^2)) >= |x - y|
        rho = np.tanh(points[:, 0] / (2.0 * self.curvature_scale))
        return np.column_stack([rho * np.cos(points[:, 1]), rho * np.sin(points[:, 1])])

    def chord_bound(self, length):
        # chords of the unit disk are at most 2 = sinh(asinh 2)
        return math.sinh(min(length / (2.0 * self.curvature_scale), math.asinh(2.0)))


class EuclideanDisk(Manifold):
    kind = "euclidean"
    params = ("radius",)

    def __init__(self, radius):
        _check_positive(radius=radius)
        self.radius = float(radius)
        # a norm squares coordinate differences up to the diameter
        _check_square("radius", radius, 2.0)

    def sample_points(self, n, rng):
        r = self.radius * np.sqrt(rng.random(n))
        theta = rng.random(n) * (2.0 * math.pi)
        return np.column_stack([r * np.cos(theta), r * np.sin(theta)])

    def outside(self, points):
        # |x| <= R, with the slack at the rim
        return np.hypot(points[:, 0], points[:, 1]) > self.radius * (1.0 + _ON_MANIFOLD_RTOL)

    def distances_from(self, p, qs):
        return np.linalg.norm(qs - np.asarray(p), axis=1)

    def diameter(self):
        return 2.0 * self.radius

    def chord_bound(self, length):
        return length


class Spheroid(Manifold):
    """Oblate ellipsoid of revolution, lengths in kilometers by convention.

    Geodesics use Vincenty's inverse and direct solutions (*Survey Review*
    23, 1975): reduced latitudes, an iterated longitude difference (inverse)
    or arc length (direct) and series in the flattening.  Both run over numpy
    arrays.  Each element iterates until its own variable moves by less than
    1e-12, at most 200 times, so it stops at the same step and gets the same
    bits as a one-element call: a result never depends on its batch.  An
    element that has not converged by then (near-antipodal inverse problems)
    is NaN in an array call; a one-point call, and ``distances_from``, raise
    :class:`SpheroidNonConvergence` instead, and callers reject such pairs.
    Coincident points are at distance 0.
    """

    kind = "spheroid"
    params = ("equatorial_radius", "polar_radius")
    _MAX_ITER = 200
    _TOL = 1e-12

    def __init__(self, equatorial_radius, polar_radius):
        _check_positive(equatorial_radius=equatorial_radius, polar_radius=polar_radius)
        if polar_radius > equatorial_radius:
            raise ValueError("spheroid must be oblate: polar_radius <= equatorial_radius")
        self.equatorial_radius = float(equatorial_radius)
        self.polar_radius = float(polar_radius)
        if self.eccentricity_sq == 1.0:
            raise ValueError(f"spheroid too flat: 1 - e^2 rounds to 0 for equatorial_radius "
                             f"{self.equatorial_radius} and polar_radius {self.polar_radius}")
        # the geodesics take a^2 - b^2 and divide by b^2
        _check_square("equatorial_radius", equatorial_radius)
        _check_square("polar_radius", polar_radius)

    @property
    def flattening(self):
        return (self.equatorial_radius - self.polar_radius) / self.equatorial_radius

    @property
    def eccentricity_sq(self):
        b_over_a = self.polar_radius / self.equatorial_radius
        return 1.0 - b_over_a * b_over_a

    def sample_points(self, n, rng):
        """Rejection sampling against the surface-area element in geodetic latitude.

        Candidates are uniform in latitude and longitude, and one is accepted
        with probability dA ~ cos(lat) / (1 - e^2 sin^2 lat)^2 under the
        always-valid envelope 1/(1-e^2)^2.  Each round draws its latitudes,
        longitudes and acceptances with one ``uniform`` call each.
        """
        e2 = self.eccentricity_sq
        out = np.empty((n, 2))
        filled = 0
        attempts = 0
        while filled < n:
            batch = max(_MIN_CANDIDATES, 2 * (n - filled))
            attempts += batch
            if attempts > _REJECTION_CAP + batch:
                raise SamplingFailure("spheroid rejection sampling exceeded attempt cap")
            lat = rng.uniform(-math.pi / 2, math.pi / 2, batch)
            lon = rng.uniform(0.0, 2.0 * math.pi, batch)
            dens = np.cos(lat) / (1.0 - e2 * np.sin(lat) ** 2) ** 2
            sel = np.flatnonzero(rng.uniform(0.0, 1.0 / (1.0 - e2) ** 2, batch) <= dens)
            sel = sel[: n - filled]
            out[filled : filled + sel.size] = np.column_stack([lat[sel], lon[sel]])
            filled += sel.size
        return out

    def outside(self, points):
        # |lat| <= pi/2 with no slack, as sampled; any longitude
        return np.abs(points[:, 0]) > math.pi / 2

    def distance(self, p, q):
        """Geodesic distance between points, or between rows of point arrays.

        ``p`` and ``q`` are (lat, lon) points or arrays of them whose leading
        shapes broadcast; one pair gives a float.
        """
        p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
        shape = np.broadcast_shapes(p.shape[:-1], q.shape[:-1])
        lat1, lon1, lat2, lon2 = _flat(shape, p[..., 0], p[..., 1], q[..., 0], q[..., 1])
        a, b, f = self.equatorial_radius, self.polar_radius, self.flattening
        dist = np.full(lat1.size, np.nan)
        dist[(lat1 == lat2) & (np.mod(lon1 - lon2, 2.0 * math.pi) == 0.0)] = 0.0
        # the elements still iterating, and their terms
        idx = np.flatnonzero(np.isnan(dist))
        U1 = np.arctan((1.0 - f) * np.tan(lat1[idx]))
        U2 = np.arctan((1.0 - f) * np.tan(lat2[idx]))
        L = lon2[idx] - lon1[idx]
        sinU1, cosU1 = np.sin(U1), np.cos(U1)
        sinU2, cosU2 = np.sin(U2), np.cos(U2)
        lam = L
        for _ in range(self._MAX_ITER):
            if idx.size == 0:
                break
            sin_lam, cos_lam = np.sin(lam), np.cos(lam)
            sin_sig = np.hypot(cosU2 * sin_lam, cosU1 * sinU2 - sinU1 * cosU2 * cos_lam)
            cos_sig = sinU1 * sinU2 + cosU1 * cosU2 * cos_lam
            sig = np.arctan2(sin_sig, cos_sig)
            # sin_sig == 0 (coincident) divides by zero here; those elements stop at 0
            with np.errstate(divide="ignore", invalid="ignore"):
                sin_alp = cosU1 * cosU2 * sin_lam / sin_sig
                cos2_alp = 1.0 - sin_alp * sin_alp
                # equatorial geodesic: cos2_alp == 0
                cos_2sigm = np.where(cos2_alp != 0.0,
                                     cos_sig - 2.0 * sinU1 * sinU2 / cos2_alp, 0.0)
            C = f / 16.0 * cos2_alp * (4.0 + f * (4.0 - 3.0 * cos2_alp))
            lam_prev = lam
            lam = L + (1.0 - C) * f * sin_alp * (
                sig + C * sin_sig * (cos_2sigm + C * cos_sig * (-1.0 + 2.0 * cos_2sigm**2))
            )
            coincident = sin_sig == 0.0
            stop = coincident | (np.abs(lam - lam_prev) < self._TOL)
            if not stop.any():
                continue
            dist[idx[coincident]] = 0.0
            last = stop & ~coincident
            ss, cs, sg, c2sm = sin_sig[last], cos_sig[last], sig[last], cos_2sigm[last]
            u2 = cos2_alp[last] * (a * a - b * b) / (b * b)
            A = 1.0 + u2 / 16384.0 * (4096.0 + u2 * (-768.0 + u2 * (320.0 - 175.0 * u2)))
            B = u2 / 1024.0 * (256.0 + u2 * (-128.0 + u2 * (74.0 - 47.0 * u2)))
            d_sig = B * ss * (
                c2sm
                + B / 4.0 * (
                    cs * (-1.0 + 2.0 * c2sm**2)
                    - B / 6.0 * c2sm * (-3.0 + 4.0 * ss**2) * (-3.0 + 4.0 * c2sm**2)
                )
            )
            dist[idx[last]] = b * A * (sg - d_sig)
            go = ~stop
            idx, L, lam, sinU1, cosU1, sinU2, cosU2 = (
                x[go] for x in (idx, L, lam, sinU1, cosU1, sinU2, cosU2))
        if shape == ():
            if idx.size:
                raise SpheroidNonConvergence("inverse geodesic did not converge "
                                             "(near-antipodal pair?)")
            return float(dist[0])
        return dist.reshape(shape)

    def distances_from(self, p, qs):
        dist = self.distance(p, qs)
        if np.isnan(dist).any():
            raise SpheroidNonConvergence("inverse geodesic did not converge (near-antipodal pair?)")
        return dist

    def direct(self, p, azimuth, s):
        """Point reached by following the geodesic from ``p`` for arclength ``s``.

        The azimuth is measured clockwise from north.  ``p`` is one (lat, lon)
        point or an array of them, and ``azimuth`` and ``s`` broadcast against
        its leading shape; the result has that shape plus the last axis of 2.
        """
        p = np.asarray(p, dtype=np.float64)
        shape = np.broadcast_shapes(p.shape[:-1], np.shape(azimuth), np.shape(s))
        lat1, lon1, azimuth, s = _flat(shape, p[..., 0], p[..., 1], azimuth, s)
        a, b, f = self.equatorial_radius, self.polar_radius, self.flattening
        tanU1 = (1.0 - f) * np.tan(lat1)
        U1 = np.arctan(tanU1)
        sig1 = np.arctan2(tanU1, np.cos(azimuth))
        sin_alp = np.cos(U1) * np.sin(azimuth)
        cos2_alp = 1.0 - sin_alp * sin_alp
        u2 = cos2_alp * (a * a - b * b) / (b * b)
        A = 1.0 + u2 / 16384.0 * (4096.0 + u2 * (-768.0 + u2 * (320.0 - 175.0 * u2)))
        B = u2 / 1024.0 * (256.0 + u2 * (-128.0 + u2 * (74.0 - 47.0 * u2)))
        base = s / (b * A)
        sig, sig_2m = base.copy(), np.zeros_like(base)
        # the elements still iterating, and their terms
        idx, sig_t, sig1_t, B_t, base_t = np.arange(s.size), base, sig1, B, base
        for _ in range(self._MAX_ITER):
            if idx.size == 0:
                break
            s2m = 2.0 * sig1_t + sig_t
            d_sig = B_t * np.sin(sig_t) * (
                np.cos(s2m)
                + B_t / 4.0 * (
                    np.cos(sig_t) * (-1.0 + 2.0 * np.cos(s2m) ** 2)
                    - B_t / 6.0 * np.cos(s2m)
                    * (-3.0 + 4.0 * np.sin(sig_t) ** 2)
                    * (-3.0 + 4.0 * np.cos(s2m) ** 2)
                )
            )
            sig_prev, sig_t = sig_t, base_t + d_sig
            stop = np.abs(sig_t - sig_prev) < self._TOL
            if not stop.any():
                continue
            sig[idx[stop]], sig_2m[idx[stop]] = sig_t[stop], s2m[stop]
            go = ~stop
            idx, sig_t, sig1_t, B_t, base_t = (x[go] for x in (idx, sig_t, sig1_t, B_t, base_t))
        sinU1, cosU1 = np.sin(U1), np.cos(U1)
        sin_sig, cos_sig = np.sin(sig), np.cos(sig)
        cos_az = np.cos(azimuth)
        lat2 = np.arctan2(
            sinU1 * cos_sig + cosU1 * sin_sig * cos_az,
            (1.0 - f) * np.hypot(sin_alp, sinU1 * sin_sig - cosU1 * cos_sig * cos_az),
        )
        lam = np.arctan2(sin_sig * np.sin(azimuth), cosU1 * cos_sig - sinU1 * sin_sig * cos_az)
        C = f / 16.0 * cos2_alp * (4.0 + f * (4.0 - 3.0 * cos2_alp))
        L = lam - (1.0 - C) * f * sin_alp * (
            sig + C * sin_sig * (np.cos(sig_2m) + C * cos_sig * (-1.0 + 2.0 * np.cos(sig_2m) ** 2))
        )
        out = np.column_stack([lat2, lon1 + L])
        out[idx] = np.nan
        if shape == () and idx.size:
            raise SpheroidNonConvergence("direct geodesic did not converge")
        return out.reshape(*shape, 2)

    def diameter(self):
        return math.pi * self.equatorial_radius

    def chart(self, points):
        # geocentric (ECEF) coordinates: a straight chord never exceeds the geodesic
        lat, lon = points[:, 0], points[:, 1]
        e2 = self.eccentricity_sq
        prime = self.equatorial_radius / np.sqrt(1.0 - e2 * np.sin(lat) ** 2)
        return np.column_stack([prime * np.cos(lat) * np.cos(lon),
                                prime * np.cos(lat) * np.sin(lon),
                                prime * (1.0 - e2) * np.sin(lat)])

    def chord_bound(self, length):
        return length


_KINDS = {cls.kind: cls for cls in (Sphere2, Sphere3, HyperbolicDisk, EuclideanDisk, Spheroid)}


def manifold_from_json(obj):
    """Build a manifold from its JSON object form (see ``Manifold.to_json``).

    The object must hold a known ``type`` and exactly that kind's numeric
    parameters, as ``manifold.schema.json`` requires; anything else raises
    :class:`InvalidInput`.
    """
    kind = obj.get("type") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in _KINDS:
        raise InvalidInput(f"not a manifold object of a known type: {obj!r}")
    cls = _KINDS[kind]
    values = [obj.get(name) for name in cls.params]
    numeric = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in values)
    if set(obj) != {"type", *cls.params} or not numeric:
        raise InvalidInput(f"a {kind} manifold takes exactly the numbers "
                           f"{', '.join(cls.params)}: {obj!r}")
    return cls(*values)
