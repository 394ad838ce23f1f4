"""Curvature from geodesic-ball volume growth (comparison estimator).

In two dimensions the area of a geodesic ball of radius r expands as

    V_r = a r^2 (1 - K r^2 / 12 + O(r^4)),

(on the unit sphere, 2 pi (1 - cos r) = pi r^2 (1 - r^2/12 + ...)), so a
least-squares fit of vertex counts against the basis {r^2, r^4} yields the
normalization a and the sectional curvature K = -12 beta / alpha.  The
expansion is only trusted up to K r^2 ~ 1: the fit runs once with a
unit-curvature radius cap, then once more with the cap implied by the
first K estimate; a fit whose own cap leaves fewer than 3 radii is
degenerate and rejected.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureReport, require_accepted
from .errors import DegenerateFit, Disconnected
from .graphs import UNREACHABLE, bfs_hops, is_connected


@dataclass
class BallFit:
    curvature: float
    normalization: float
    radii_used: int


def ball_profile(g, v, r_max_hops):
    """Cumulative vertex counts |B_r(v)| for r = 0..r_max_hops, one BFS."""
    if r_max_hops < 1:
        raise ValueError("need r_max_hops >= 1")
    hops = bfs_hops(g, v)
    hops = hops[hops != UNREACHABLE]
    counts = np.bincount(hops.astype(np.int64), minlength=r_max_hops + 1)[: r_max_hops + 1]
    return np.cumsum(counts)


def _fit_basis(radii, counts):
    # least squares on {r^2, r^4}; normal equations are fine at this size
    x2, x4 = radii**2, radii**4
    design = np.column_stack([x2, x4])
    coef, *_ = np.linalg.lstsq(design, counts, rcond=None)
    return coef  # alpha, beta


VOLUME_QUARTIC = 12.0  # V_r = a r^2 (1 - K r^2 / 12); exact for S^2 and H^2


def wolfram_ricci_K(profile, l_e):
    """(K, a) from a ball-count profile via the r^2/r^4 volume fit.

    The center count at r=0 is excluded (the continuum expansion has no
    constant term).  Radii begin capped at r * l_e <= 1 (unit-curvature
    prior); when the fitted K implies a *larger* validity range
    |K| (r l_e)^2 <= 1, one re-fit pass extends to it.  A smaller implied
    range keeps the initial fit: shrinking onto the few smallest radii
    measures hop quantization rather than curvature and inflates the
    estimator's tails badly.  Fewer than 3 usable radii is a degenerate
    fit.
    """
    profile = np.asarray(profile, dtype=np.float64)
    if profile.size < 4:
        raise DegenerateFit("need ball counts for at least 3 radii beyond r=0")
    hops = np.arange(1, profile.size)
    radii = hops * l_e
    counts = profile[1:]

    usable = radii <= 1.0
    if usable.sum() < 3:
        raise DegenerateFit("fewer than 3 radii under the unit-curvature cap")
    alpha, beta = _fit_basis(radii[usable], counts[usable])
    if alpha <= 0:
        raise DegenerateFit("non-positive r^2 coefficient")
    k_hat = -VOLUME_QUARTIC * beta / alpha

    refit = np.abs(k_hat) * radii**2 <= 1.0
    if refit.sum() > usable.sum():
        alpha2, beta2 = _fit_basis(radii[refit], counts[refit])
        if alpha2 > 0:
            alpha, beta = alpha2, beta2
            k_hat = -VOLUME_QUARTIC * beta / alpha
            usable = refit
    return BallFit(curvature=float(k_hat), normalization=float(alpha),
                   radii_used=int(usable.sum()))


def estimate_wolfram(g, l_e, n_vertices, rng):
    """Curvature report from ball-volume fits at sampled center vertices."""
    if n_vertices < 1:
        raise ValueError(f"need n_vertices >= 1, got {n_vertices}")
    n = g.vertex_count
    # no hop count reaches V, so a radius past it would only ask for empty shells
    if not (0 < l_e < math.inf and 1.5 / l_e <= n):
        raise ValueError(f"l_e must be finite and > 0 with ceil(1.5 / l_e) at most the "
                         f"vertex count {n}, got l_e = {l_e!r}")
    if not is_connected(g):
        raise Disconnected("ball-volume estimation requires a connected graph")
    # headroom past the unit-curvature cap so the re-fit can widen
    r_max_hops = max(3, math.ceil(1.5 / l_e))
    centers = rng.choice(n, size=min(n_vertices, n), replace=False)
    ks = []
    rejected = Counter()
    for v in centers:
        profile = ball_profile(g, int(v), r_max_hops)
        try:
            fit = wolfram_ricci_K(profile, l_e)
        except DegenerateFit:
            rejected["degenerate_fit"] += 1
            continue
        ks.append(fit.curvature)
    require_accepted(len(ks), len(centers), rejected)
    return CurvatureReport.from_samples(ks, rejected, estimator="wolfram-ricci")
