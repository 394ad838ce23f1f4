"""Oracles shared by several test modules: the forward cosine rule and one-pair distances."""
import math

import numpy as np


def _logcosh(x):
    """log cosh x, as log1p(2 sinh^2(x/2)) so that small x keeps its digits."""
    x = abs(x)
    if x > 300.0:
        return x - math.log(2.0)
    return math.log1p(2.0 * math.sinh(0.5 * x) ** 2)


def forward_hypotenuse(a, b, curvature):
    """Hypotenuse of the right triangle with legs a, b in constant curvature.

    Forward evaluation of the generalized cosine rule; the independent check
    for the root solver.
    """
    if curvature > 0:
        s = math.sqrt(curvature)
        if max(a, b) * s >= math.pi:
            raise ValueError("legs do not fit on the sphere")
        # the half-angle form sin^2(c s/2) = S_a + S_b - 2 S_a S_b, S_x = sin^2(x s/2),
        # as a sum of squares: acos of cos(a s) cos(b s) loses digits near flat
        sin_a, cos_a = math.sin(0.5 * a * s), math.cos(0.5 * a * s)
        sin_b, cos_b = math.sin(0.5 * b * s), math.cos(0.5 * b * s)
        return 2.0 * math.asin(min(1.0, math.hypot(sin_a * cos_b, cos_a * sin_b))) / s
    if curvature < 0:
        # acosh z = ln z + log1p(sqrt(1 - z^-2)) with ln z = log cosh(at) + log cosh(bt),
        # so that long sides do not overflow cosh
        t = math.sqrt(-curvature)
        log_z = _logcosh(a * t) + _logcosh(b * t)
        return (log_z + math.log1p(math.sqrt(-math.expm1(-2.0 * log_z)))) / t
    return math.hypot(a, b)


def manifold_distance(manifold, p, q):
    """Geodesic distance between two points, as a float, from one ``distances_from`` row."""
    return float(manifold.distances_from(p, np.asarray(q)[None, :])[0])
