"""Hard-annulus random geometric graphs on manifolds.

Points sampled uniformly on a manifold are connected when their geodesic
distance d satisfies |d - l| <= l * p for a connection length l and
tolerance p.  The minimal l giving a connected graph is located by binary
search; because connectivity is not monotone in l for an annulus rule, the
search keeps the smallest connected l seen and then walks it down until the
bracket property holds.

No pairwise distance matrix is formed: the search and the builder read one
:class:`CandidatePairs` table, the pairs within the longest length probed,
sorted by distance, so each probe's edges are one slice of it.
"""

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import CurvGraphError, NoConnectedLength
from .graphs import GeometricGraph, Graph

DEFAULT_TOLERANCE = 0.25  # p ~ 0.25 keeps edge counts low at similar distortion
_BISECT_ITERS = 24
_BRACKET_REL = 1e-3
# Relative slack on lengths, far above the rounding of the distances and of
# the chart chords: a window or a k-d tree query never misses a pair.
_PAD_REL = 1e-6
_WIDEN = 1.25  # a query that must grow covers at least this much more length
_VERIFY_FRACTION = 0.01  # share of built edges re-checked with the exact distance
_PAIR_BLOCK = 1 << 15  # candidate pairs per distance call: bounds its temporaries


def pairwise_distances(manifold, points):
    """Full float64 pairwise distance matrix, row by row: the brute-force oracle."""
    n = len(points)
    out = np.empty((n, n))
    for i in range(n):
        out[i] = manifold.distances_from(points[i], points)
    return out


class CandidatePairs:
    """Pairs i < j of ``points`` with geodesic distance up to ``reach``, by distance.

    A k-d tree fixed-radius query in ``manifold.chart`` coordinates finds a
    superset of the pairs within a length (chords are at most
    ``manifold.chord_bound`` of it); aligned-array calls
    ``manifold.distances_from(points[i], points[j])`` then give their exact
    distances, bit for bit those of one-source calls (see
    :meth:`Manifold.distances_from`), over blocks of ``_PAIR_BLOCK`` pairs
    so that their temporaries stay small.  ``d`` holds these float64
    distances in ascending order, with ``i``, ``j`` alongside, and every
    probe reads it.  The query widens only when a probe asks for a longer
    length.

    A connectivity probe first looks for a vertex without an edge, which
    settles most disconnected lengths, and its answer is kept per slice
    until the table widens: the bisection's last steps revisit slices.
    """

    def __init__(self, manifold, points):
        self.manifold = manifold
        self.points = np.asarray(points, dtype=np.float64)
        self.n = len(self.points)
        # chart lengths in a power-of-two unit near the chart's extent: exact, and the
        # tree's squared radii stay finite at any manifold scale
        self._unit = 2.0 ** -math.frexp(manifold.chord_bound(manifold.diameter()))[1]
        self._tree = cKDTree(self._unit * manifold.chart(self.points)) if self.n > 1 else None
        self.reach = 0.0
        self.i = self.j = np.empty(0, dtype=np.intp)
        self.d = np.empty(0, dtype=np.float64)
        self._probed = {}  # (a, b) -> connectivity of the slice's edges

    def _cover(self, length):
        """Hold every pair with distance at most ``length``."""
        if length <= self.reach or self._tree is None:
            return
        length = max(length, _WIDEN * self.reach)
        radius = self.manifold.chord_bound(length + _PAD_REL * self.manifold.diameter())
        ij = self._tree.query_pairs(self._unit * radius * (1.0 + _PAD_REL), output_type="ndarray")
        d = np.empty(len(ij))
        for s in range(0, len(ij), _PAIR_BLOCK):
            i, j = ij[s : s + _PAIR_BLOCK].T
            d[s : s + _PAIR_BLOCK] = self.manifold.distances_from(self.points[i], self.points[j])
        keep = np.flatnonzero(d <= length)
        keep = keep[np.argsort(d[keep])]
        self.i, self.j, self.d = ij[keep, 0], ij[keep, 1], d[keep]
        self.reach = length
        self._probed.clear()  # slice bounds index the old table

    def _window(self, l, p):
        """The slice [a, b) of the table holding the pairs with |d - l| <= l * p.

        Rounding is monotone, so ``d - l`` is nondecreasing along the sorted
        table and the pairs that pass form one run; the padded search only
        bounds where it can lie.
        """
        pad = _PAD_REL * l
        hi = l * (1.0 + p) + pad
        self._cover(hi)
        a = np.searchsorted(self.d, l * (1.0 - p) - pad, side="left")
        b = np.searchsorted(self.d, hi, side="right")
        hit = np.flatnonzero(np.abs(self.d[a:b] - l) <= l * p)
        return (a + hit[0], a + hit[-1] + 1) if hit.size else (a, a)

    def edges(self, l, p):
        """Pairs (u, v) with |d - l| <= l * p.

        The arrays are views of the table, ordered by distance.
        """
        a, b = self._window(l, p)
        return self.i[a:b], self.j[a:b]

    def connected(self, l, p):
        """Connectivity of the annulus graph at length l."""
        window = self._window(l, p)
        if window not in self._probed:
            self._probed[window] = self._slice_connected(*window)
        return self._probed[window]

    def _slice_connected(self, a, b):
        u, v = self.i[a:b], self.j[a:b]
        # with two or more vertices, one that has no edge disconnects the graph
        if self.n >= 2 and not np.all(np.bincount(u, minlength=self.n)
                                      + np.bincount(v, minlength=self.n)):
            return False
        adj = coo_matrix((np.ones(u.size, dtype=np.int8), (u, v)), shape=(self.n, self.n))
        return connected_components(adj, directed=False, return_labels=False) == 1

    def shortest_positive(self):
        """Smallest nonzero distance held (infinity when there is none)."""
        k = np.searchsorted(self.d, 0.0, side="right")
        return float(self.d[k]) if k < self.d.size else float("inf")


def build_annulus_graph(pairs, l, p):
    """Annulus graph on the points of ``pairs`` with edge rule |d(u,v) - l| <= l * p.

    ``pairs`` is the :class:`CandidatePairs` of a manifold and its points;
    the edges are read from it.  Deterministic given its inputs.  A
    fixed-seed 1% sample of the produced edges is re-checked against the
    geodesic distance, in one aligned call, as a self-test of the builder.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("tolerance p must be in (0, 1]")
    if not l > 0.0:
        raise ValueError("connection length must be positive")
    manifold, points = pairs.manifold, pairs.points
    graph = Graph(pairs.n, *pairs.edges(l, p))

    if graph.edge_count:
        us, vs = graph.edge_arrays()
        m = max(1, int(_VERIFY_FRACTION * graph.edge_count))
        pick = np.random.default_rng(0).choice(graph.edge_count, size=m, replace=False)
        d = manifold.distances_from(points[us[pick]], points[vs[pick]])
        if not np.all(np.abs(d - l) <= l * p):
            raise CurvGraphError("annulus invariant violated by builder")

    return GeometricGraph(graph, manifold, points, l, p)


def min_connection_length(pairs, p):
    """Approximate minimal connection length giving a connected graph.

    ``pairs`` is the :class:`CandidatePairs` of a manifold and its points,
    which every probe reads.  Connectivity is not monotone in l for an
    annulus rule, so a plain bisection can step over the connected region
    entirely.  The search therefore first scans a uniform grid of 24
    intervals over [0, diameter] for the lowest connected length, then
    bisects between that grid point and its disconnected predecessor,
    retaining the smallest connected l seen.  The result is finally walked
    down in relative steps of 1e-3 until the bracket property holds:
    connected at l, not connected at l * (1 - 1e-3).  Every probe reads the
    float64 distances.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("tolerance p must be in (0, 1]")
    if pairs.n < 2:
        raise ValueError("need at least 2 points")

    diam = pairs.manifold.diameter()
    grid = [diam * i / _BISECT_ITERS for i in range(1, _BISECT_ITERS + 1)]
    best = None
    lo = 0.0
    for l in grid:
        if pairs.connected(l, p):
            best = l
            break
        lo = l
    if best is None:
        raise NoConnectedLength(f"no connection length in (0, {diam:.6g}] yields a connected graph")
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + best)
        if pairs.connected(mid, p):
            best = mid
        else:
            lo = mid

    # best only ever takes a length that probed connected
    while pairs.connected(best * (1.0 - _BRACKET_REL), p):
        best *= 1.0 - _BRACKET_REL
        if best * (1.0 + p + _PAD_REL) < pairs.shortest_positive():
            # only coincident points are joined, at every smaller length too
            raise NoConnectedLength(
                f"connected at every length below {best:.9g}: the points coincide")
    return best


def sprinkle(manifold, n, p=DEFAULT_TOLERANCE, rng=None, l_override=None):
    """Sample n uniform points from ``rng`` and build the annulus graph.

    Uses ``l_override`` when given, otherwise the minimal connected length.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if rng is None:
        raise ValueError("an explicit rng is required for reproducibility")
    pairs = CandidatePairs(manifold, manifold.sample_points(n, rng))
    l = min_connection_length(pairs, p) if l_override is None else float(l_override)
    return build_annulus_graph(pairs, l, p)
