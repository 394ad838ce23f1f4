"""Computations the benchmark checks the program against.

Nothing here imports curvgraph: geodesic distances, the annulus edge rule,
connectivity, the cosine-rule root, the Sierpinski quadruple enumeration
and the earth's mean radius of curvature are all derived again from their
definitions with numpy and scipy.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

BLOCK_ROWS = 256


# --- geodesics ---------------------------------------------------------------
#
# Each manifold gives a cheap monotone "closeness" score from one matrix
# product, used to pick the candidate pairs, and the exact distance for
# those pairs alone.

def _sphere_pairs(radius, pts, rows, lo, hi):
    """Great-circle distance r atan2(|p x q|, p . q)."""
    dot = pts[rows] @ pts.T
    r2 = radius * radius
    bi, bj = np.nonzero((dot <= r2 * math.cos(min(lo / radius, math.pi)) + 1e-9 * r2)
                        & (dot >= r2 * math.cos(min(hi / radius, math.pi)) - 1e-9 * r2))
    p, q = pts[rows[bi]], pts[bj]
    return bi, bj, radius * np.arctan2(np.linalg.norm(np.cross(p, q), axis=1),
                                        (p * q).sum(axis=1))


def _hyperbolic_pairs(scale, lifted, rows, lo, hi):
    """d = k arccosh(x0 y0 - x1 y1 - x2 y2) on the unit hyperboloid."""
    x = lifted[rows]
    form = np.outer(x[:, 0], lifted[:, 0]) - x[:, 1:] @ lifted[:, 1:].T
    bi, bj = np.nonzero((form >= math.cosh(lo / scale) * (1 - 1e-9))
                        & (form <= math.cosh(hi / scale) * (1 + 1e-9)))
    return bi, bj, scale * np.arccosh(np.maximum(form[bi, bj], 1.0))


def _plane_pairs(pts, rows, lo, hi):
    """Euclidean distance hypot(dx, dy)."""
    sq = (pts[rows] ** 2).sum(axis=1)[:, None] + (pts ** 2).sum(axis=1)[None, :] \
        - 2.0 * pts[rows] @ pts.T
    bi, bj = np.nonzero((sq >= lo * lo * (1 - 1e-9) - 1e-12) & (sq <= hi * hi * (1 + 1e-9) + 1e-12))
    diff = pts[rows[bi]] - pts[bj]
    return bi, bj, np.hypot(diff[:, 0], diff[:, 1])


def _pair_finder(manifold, pts):
    kind = manifold["type"]
    if kind == "sphere2":
        return lambda rows, lo, hi: _sphere_pairs(manifold["radius"], pts, rows, lo, hi)
    if kind == "hyperbolic":
        scale = manifold["curvature_scale"]
        rho = pts[:, 0] / scale
        lifted = np.column_stack([np.cosh(rho), np.sinh(rho) * np.cos(pts[:, 1]),
                                  np.sinh(rho) * np.sin(pts[:, 1])])
        return lambda rows, lo, hi: _hyperbolic_pairs(scale, lifted, rows, lo, hi)
    if kind == "euclidean":
        return lambda rows, lo, hi: _plane_pairs(pts, rows, lo, hi)
    raise ValueError(f"no reference geodesic for manifold type {kind!r}")


def pairs_within(manifold, coords, lo, hi):
    """Every pair i < j with lo <= d(i, j) <= hi, as arrays (i, j, d).

    ``manifold`` is the sidecar's JSON form; the 2-sphere, the hyperbolic
    disk (polar coordinates) and the Euclidean disk are supported.
    """
    pts = np.asarray(coords, dtype=np.float64)
    n = len(pts)
    find = _pair_finder(manifold, pts)
    out_i, out_j, out_d = [], [], []
    for r0 in range(0, n, BLOCK_ROWS):
        rows = np.arange(r0, min(r0 + BLOCK_ROWS, n))
        bi, bj, d = find(rows, lo, hi)
        keep = (rows[bi] < bj) & (d >= lo) & (d <= hi)
        out_i.append(rows[bi][keep])
        out_j.append(bj[keep])
        out_d.append(d[keep])
    return np.concatenate(out_i), np.concatenate(out_j), np.concatenate(out_d)


# --- annulus rule and connectivity -------------------------------------------

class PairWindow:
    """Candidate pairs that can obey |d - l| <= l p for l in [l_lo, l_hi].

    Pairs are kept sorted by distance, so the pairs near one length are a
    slice found by binary search.
    """

    def __init__(self, manifold, coords, p, l_lo, l_hi):
        self.n = len(coords)
        self.p = float(p)
        i, j, d = pairs_within(manifold, coords, l_lo * (1.0 - p) * (1.0 - 1e-6),
                               l_hi * (1.0 + p) * (1.0 + 1e-6))
        order = np.argsort(d, kind="stable")
        self.i, self.j, self.d = i[order], j[order], d[order]
        self.l_lo, self.l_hi = l_lo, l_hi

    def _near(self, length):
        if not self.l_lo <= length <= self.l_hi:
            raise ValueError(f"length {length} outside the window [{self.l_lo}, {self.l_hi}]")
        return slice(np.searchsorted(self.d, length * (1.0 - self.p) * (1.0 - 1e-6)),
                     np.searchsorted(self.d, length * (1.0 + self.p) * (1.0 + 1e-6), side="right"))

    def edges(self, length):
        """Mask of the window's pairs that obey the annulus rule at ``length``."""
        mask = np.zeros(self.d.size, dtype=bool)
        near = self._near(length)
        mask[near] = np.abs(self.d[near] - length) <= length * self.p
        return mask

    def borderline(self, length, rel=1e-9):
        """Mask of the pairs within ``rel * length`` of either annulus boundary."""
        mask = np.zeros(self.d.size, dtype=bool)
        near = self._near(length)
        mask[near] = np.abs(np.abs(self.d[near] - length) - length * self.p) <= rel * length
        return mask

    def connected(self, length):
        near = self._near(length)
        keep = np.abs(self.d[near] - length) <= length * self.p
        return is_connected(self.n, self.i[near][keep], self.j[near][keep])


def is_connected(n, us, vs):
    graph = coo_matrix((np.ones(len(us), dtype=np.int8), (us, vs)), shape=(n, n))
    count, _ = connected_components(graph, directed=False)
    return count == 1


def choose_connection_length(manifold, coords, p, area):
    """The benchmark's own connection length for a point set.

    Scans lengths upward in 2% steps from half the random-geometric-graph
    connectivity radius sqrt(area log V / (pi V)) for the first connected
    one, bisects back towards the last disconnected step, and then returns
    the smallest length at or just above that threshold (relative steps of
    1e-4) that stays connected and has no pair within 1e-9 of an annulus
    boundary, so that no rounding can move an edge.
    """
    n = len(coords)
    r_c = math.sqrt(area * math.log(n) / (math.pi * n))
    lo_l, hi_l = 0.5 * r_c, 4.0 * r_c
    window = PairWindow(manifold, coords, p, lo_l, hi_l)
    prev = lo_l
    length = lo_l
    while not window.connected(length):
        prev, length = length, length * 1.02
        if length > hi_l:
            raise ValueError("no connected length below four connectivity radii")
    lo, hi = prev, length
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if window.connected(mid):
            hi = mid
        else:
            lo = mid
    length = hi
    while not window.connected(length) or window.borderline(length).any():
        length *= 1.0 + 1e-4
    return length


# --- cosine rule --------------------------------------------------------------

def _logcosh(x):
    """log cosh x, as log1p(2 sinh^2(x/2)) so that small x keeps its digits."""
    x = abs(x)
    if x > 300.0:
        return x - math.log(2.0)
    return math.log1p(2.0 * math.sinh(0.5 * x) ** 2)


_RTOL = 4 * np.finfo(float).eps


def cosine_rule_curvature(a, b, c):
    """Nonzero root K of cos(c sqrt K) = cos(a sqrt K) cos(b sqrt K).

    The root lies in (-inf, pi^2 / max(a, b, c)^2] and has the sign of
    a^2 + b^2 - c^2; a Pythagorean triple gives 0.  Solved with brentq on
    the equation with the trivial root K = 0 divided out, and for K < 0 on
    the log-cosh form of cosh(c t) = cosh(a t) cosh(b t) with K = -t^2.
    """
    gap = a * a + b * b - c * c
    if abs(gap) <= 1e-12 * c * c:
        return 0.0
    m = max(a, b, c)
    if gap > 0:
        def g(k):
            s = math.sqrt(k)
            return (math.cos(c * s) - math.cos(a * s) * math.cos(b * s)) / k

        k_hi = math.pi * math.pi / (m * m)
        k_lo = 0.5 * k_hi
        while g(k_lo) <= 0.0:
            k_lo *= 0.5
        return brentq(g, k_lo, k_hi, xtol=1e-300, rtol=_RTOL)

    def h(t):
        return _logcosh(c * t) - _logcosh(a * t) - _logcosh(b * t)

    t_hi = 1e-3 / m
    while h(t_hi) > 0.0:
        t_hi *= 2.0
    t_lo = 0.5 * t_hi
    while h(t_lo) <= 0.0:
        t_lo *= 0.5
    return -brentq(h, t_lo, t_hi, xtol=1e-300, rtol=_RTOL) ** 2


# --- Sierpinski triangle ------------------------------------------------------

def sierpinski_hops(level):
    """All-pairs hop distances of the level-n Sierpinski triangle graph.

    The unit up-triangles of the level-n gasket on the integer triangle
    lattice sit at the offsets (x, y) with x + y < 2^n and x & y == 0
    (Pascal's triangle mod 2); the graph is the union of their edges.
    """
    side = 2 ** level
    ids = {}
    us, vs = [], []
    for x in range(side):
        for y in range(side - x):
            if x & y:
                continue
            corners = [ids.setdefault(pt, len(ids)) for pt in ((x, y), (x + 1, y), (x, y + 1))]
            us += [corners[0], corners[0], corners[1]]
            vs += [corners[1], corners[2], corners[2]]
    n = len(ids)
    adj = coo_matrix((np.ones(len(us)), (us, vs)), shape=(n, n)).tocsr()
    return shortest_path(adj, directed=False, unweighted=True).astype(np.int64)


def sierpinski_shapes(level):
    """{(a, b, c): number of quadruples} over even-base isosceles triangles.

    A quadruple is a base pair {v, w} at even hop distance 2b >= 2, a
    midpoint m with d(v, m) = d(w, m) = b, and an apex u with
    d(u, v) = d(u, w) = c and a = d(u, m) >= 1, where (a, b, c) obeys the
    strict triangle inequalities.
    """
    hops = sierpinski_hops(level)
    n = hops.shape[0]
    size = 2 ** level + 1  # hop distances are at most 2^level
    flat = []
    for v in range(n - 1):
        row = hops[v]
        for w in (v + 1 + np.nonzero((row[v + 1:] % 2 == 0) & (row[v + 1:] >= 2))[0]).tolist():
            b = row[w] // 2
            mids = np.nonzero((row == b) & (hops[w] == b))[0]
            apexes = np.nonzero(row == hops[w])[0]
            a = hops[np.ix_(apexes, mids)]
            c = row[apexes][:, None]
            ok = (a >= 1) & (a < b + c) & (b < a + c) & (c < a + b)
            flat.append(((a * size + b) * size + c)[ok])
    counts = np.bincount(np.concatenate(flat), minlength=size ** 3)
    shapes = {}
    for key in np.nonzero(counts)[0].tolist():
        a, rest = divmod(key, size * size)
        b, c = divmod(rest, size)
        shapes[(a, b, c)] = int(counts[key])
    return shapes


# --- earth spheroid -----------------------------------------------------------

def mean_gaussian_radius(equatorial, polar):
    """Area-weighted mean of sqrt(M N) over an oblate spheroid.

    M and N are the meridional and prime-vertical radii of curvature at
    geodetic latitude phi; the area element is M N cos(phi) dphi dlambda.
    """
    e2 = 1.0 - (polar / equatorial) ** 2

    def mn(phi):
        w2 = 1.0 - e2 * math.sin(phi) ** 2
        return equatorial * (1.0 - e2) / w2 ** 1.5, equatorial / math.sqrt(w2)

    def weighted(phi, power):
        m, n = mn(phi)
        return (m * n) ** power * m * n * math.cos(phi)

    top, _ = quad(weighted, 0.0, math.pi / 2, args=(0.5,), epsabs=0, epsrel=1e-12)
    area, _ = quad(weighted, 0.0, math.pi / 2, args=(0.0,), epsabs=0, epsrel=1e-12)
    return top / area
