"""Hard-annulus random geometric graphs on manifolds.

Points sampled uniformly on a manifold are connected when their geodesic
distance d satisfies |d - l| <= l * p for a connection length l and
tolerance p.  The minimal l giving a connected graph is located by binary
search; because connectivity is not monotone in l for an annulus rule, the
search keeps the smallest connected l seen and then verifies the bracket
property on the exact builder.
"""

import numpy as np

from .errors import CurvGraphError, NoConnectedLength
from .graphs import GeometricGraph, Graph, is_connected
from .rng import substream

DEFAULT_TOLERANCE = 0.25  # p ~ 0.25 keeps edge counts low at similar distortion
_BISECT_ITERS = 24
_BRACKET_REL = 1e-3


def _distance_block(manifold, points, i0, i1, dtype=np.float64):
    """Rows [i0, i1) of the pairwise geodesic distance matrix."""
    out = np.empty((i1 - i0, len(points)), dtype=dtype)
    for i in range(i0, i1):
        out[i - i0] = manifold.distances_from(points[i], points)
    return out


def pairwise_distances(manifold, points, dtype=np.float32, block=1024):
    """Full pairwise distance matrix, computed in row blocks."""
    n = len(points)
    out = np.empty((n, n), dtype=dtype)
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        out[i0:i1] = _distance_block(manifold, points, i0, i1, dtype=dtype)
    return out


def _connected_at(dist_matrix, l, p):
    """Connectivity of the annulus graph at length l, via dense-frontier BFS."""
    adj = np.abs(dist_matrix - l) <= l * p
    np.fill_diagonal(adj, False)
    n = adj.shape[0]
    visited = np.zeros(n, dtype=bool)
    visited[0] = True
    frontier = visited.copy()
    while frontier.any():
        nxt = adj[frontier].any(axis=0) & ~visited
        visited |= nxt
        frontier = nxt
    return bool(visited.all())


def build_annulus_graph(manifold, points, l, p, *, verify_fraction=0.01, rng=None):
    """Annulus graph with edge rule |d(u,v) - l| <= l * p.

    Deterministic given its inputs.  A ``verify_fraction`` sample of the
    produced edges is re-checked against the scalar geodesic distance as a
    self-test of the builder.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("tolerance p must be in (0, 1]")
    if not l > 0.0:
        raise ValueError("connection length must be positive")
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    us, vs = [], []
    block = max(1, min(n, int(2**24 // max(n, 1)) or 1))
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        d = _distance_block(manifold, points, i0, i1)
        hit = np.abs(d - l) <= l * p
        bi, bj = np.nonzero(hit)
        keep = (bi + i0) < bj  # upper triangle only
        us.append((bi + i0)[keep])
        vs.append(bj[keep])
    us = np.concatenate(us) if us else np.empty(0, dtype=np.int64)
    vs = np.concatenate(vs) if vs else np.empty(0, dtype=np.int64)
    graph = Graph(n, us, vs)

    if verify_fraction > 0 and graph.edge_count:
        check_rng = rng if rng is not None else np.random.default_rng(0)
        m = max(1, int(verify_fraction * graph.edge_count))
        pick = check_rng.choice(graph.edge_count, size=min(m, graph.edge_count), replace=False)
        for idx in pick:
            d = manifold.distance(points[us[idx]], points[vs[idx]])
            if not abs(d - l) <= l * p:
                raise CurvGraphError("annulus invariant violated by builder")

    return GeometricGraph(graph, manifold, points, l, p)


def min_connection_length(manifold, points, p, *, dist_matrix=None):
    """Approximate minimal connection length giving a connected graph.

    Connectivity is not monotone in l for an annulus rule, so a plain
    bisection can step over the connected region entirely.  The search
    therefore first scans a uniform grid of 24 intervals over
    [0, diameter] for the lowest connected length, then bisects between
    that grid point and its disconnected predecessor, retaining the
    smallest connected l seen.  The result is finally walked down in
    relative steps of 1e-3 until the bracket property holds on the exact
    builder: connected at l, not connected at l * (1 - 1e-3).
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("tolerance p must be in (0, 1]")
    points = np.asarray(points, dtype=np.float64)
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    D = dist_matrix if dist_matrix is not None else pairwise_distances(manifold, points)

    diam = manifold.diameter()
    grid = [diam * i / _BISECT_ITERS for i in range(1, _BISECT_ITERS + 1)]
    best = None
    lo = 0.0
    for l in grid:
        if _connected_at(D, l, p):
            best = l
            break
        lo = l
    if best is None:
        raise NoConnectedLength(
            f"no connection length in (0, {diam:.6g}] yields a connected graph",
            best_length=grid[-1],
        )
    hi = best
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if _connected_at(D, mid, p):
            best = min(best, mid)
            hi = mid
        else:
            lo = mid

    # Bracket verification on the exact (float64) builder; the float32 search
    # matrix can disagree on borderline edges.
    for _ in range(64):
        if is_connected(build_annulus_graph(manifold, points, best, p, verify_fraction=0).graph):
            break
        best *= 1.0 + _BRACKET_REL
    for _ in range(64):
        lower = best * (1.0 - _BRACKET_REL)
        if not is_connected(build_annulus_graph(manifold, points, lower, p,
                                                verify_fraction=0).graph):
            break
        best = lower
    return best


def sprinkle(manifold, n, p=DEFAULT_TOLERANCE, rng=None, l_override=None, seed=None):
    """Sample n uniform points and build the annulus graph.

    Uses ``l_override`` when given, otherwise the minimal connected length.
    Pass either an explicit generator or a seed (the generator is derived
    from it via a fixed sub-stream, so results are reproducible).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if rng is None:
        rng = substream(0 if seed is None else seed, 0)
    points = manifold.sample_points(n, rng)
    if l_override is not None:
        l = float(l_override)
        return build_annulus_graph(manifold, points, l, p)
    D = pairwise_distances(manifold, points)
    l = min_connection_length(manifold, points, p, dist_matrix=D)
    del D
    return build_annulus_graph(manifold, points, l, p)
