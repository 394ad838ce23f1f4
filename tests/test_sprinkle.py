import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from curvgraph import (
    EuclideanDisk,
    HyperbolicDisk,
    Sphere2,
    Sphere3,
    Spheroid,
    bfs_hops,
    build_annulus_graph,
    is_connected,
    min_connection_length,
    sprinkle,
)
from curvgraph.errors import NoConnectedLength, SpheroidNonConvergence
from curvgraph.sprinkle import CandidatePairs, pairwise_distances


def edge_list(g):
    """Each edge once as (u, v) with u < v, ordered by u then v."""
    us, vs = g.edge_arrays()
    return list(zip(us.tolist(), vs.tolist()))


def collinear_points():
    # 0, 1, 2 on a line inside a radius-2.5 disk
    return EuclideanDisk(2.5), np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])


def test_annulus_edges_basic():
    m, pts = collinear_points()
    gg = build_annulus_graph(CandidatePairs(m, pts), l=1.0, p=0.1)
    assert edge_list(gg.graph) == [(0, 1), (1, 2)]  # d(0,2)=2 outside [0.9,1.1]


def test_annulus_edges_wide_tolerance():
    m, pts = collinear_points()
    gg = build_annulus_graph(CandidatePairs(m, pts), l=1.0, p=1.0)
    assert edge_list(gg.graph) == [(0, 1), (0, 2), (1, 2)]


def test_annulus_contains_ball_rule():
    # |d - l| <= l is exactly d <= 2l: a classic ball-rule RGG of radius 2l
    rng = np.random.default_rng(41)
    m = EuclideanDisk(1.0)
    pts = m.sample_points(80, rng)
    l = 3.0  # huge: annulus [0, 6] covers the whole disk
    gg = build_annulus_graph(CandidatePairs(m, pts), l=l, p=1.0)
    assert gg.graph.edge_count == 80 * 79 // 2


def test_annulus_inequality_exact():
    rng = np.random.default_rng(42)
    m = Sphere2(1.0)
    pts = m.sample_points(150, rng)
    l, p = 0.7, 0.25
    gg = build_annulus_graph(CandidatePairs(m, pts), l, p)
    for u, v in edge_list(gg.graph):
        assert abs(m.distance(pts[u], pts[v]) - l) <= l * p
    # and non-edges violate it
    adj = set(edge_list(gg.graph))
    checked = 0
    for u in range(0, 150, 10):
        for v in range(u + 1, 150, 7):
            if (u, v) not in adj:
                assert abs(m.distance(pts[u], pts[v]) - l) > l * p
                checked += 1
    assert checked > 50


def grid_scan_min_l(m, pts, p, step=1e-3):
    """Independent oracle: scan an l grid, return the smallest connected l."""
    D = pairwise_distances(m, pts)
    for l in np.arange(step, m.diameter() + step, step):
        adj = np.abs(D - l) <= l * p
        np.fill_diagonal(adj, False)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in np.nonzero(adj[u])[0]:
                if v not in seen:
                    seen.add(int(v))
                    stack.append(int(v))
        if len(seen) == len(pts):
            return float(l)
    return None


def test_min_connection_length_collinear():
    m, pts = collinear_points()
    l = min_connection_length(CandidatePairs(m, pts), 0.25)
    oracle = grid_scan_min_l(m, pts, 0.25)
    # connectivity needs the unit gaps inside the annulus: l in [0.8, 1.0]
    assert 0.8 - 2e-3 <= l <= 1.0
    assert l == pytest.approx(oracle, abs=3e-3)


def test_min_connection_length_two_points():
    m = EuclideanDisk(2.0)
    d = 1.3
    pts = np.array([[0.0, 0.0], [d, 0.0]])
    l = min_connection_length(CandidatePairs(m, pts), 0.25)
    assert l == pytest.approx(d / 1.25, rel=5e-3)


def test_min_connection_length_bracket_on_sphere():
    rng = np.random.default_rng(43)
    m = Sphere2(1.0)
    pts = m.sample_points(100, rng)
    l = min_connection_length(CandidatePairs(m, pts), 0.25)
    assert is_connected(build_annulus_graph(CandidatePairs(m, pts), l, 0.25).graph)
    below = build_annulus_graph(CandidatePairs(m, pts), l * (1 - 1e-3), 0.25)
    assert not is_connected(below.graph)


def test_no_connected_length():
    # two tight clusters far apart, tiny tolerance: the annulus can hold the
    # far pairs or the near pairs, never both
    m = EuclideanDisk(2.0)
    pts = np.array([[0.0, 0.0], [0.001, 0.0], [1.9, 0.0], [1.9, 0.001]])
    with pytest.raises(NoConnectedLength):
        min_connection_length(CandidatePairs(m, pts), 0.01)


def test_no_minimal_length_for_coincident_points():
    # at p = 1 coincident points are joined at every length: none is minimal
    pts = np.array([[0.3, 0.1]] * 3)
    with pytest.raises(NoConnectedLength):
        min_connection_length(CandidatePairs(EuclideanDisk(1.0), pts), 1.0)


@pytest.mark.parametrize("m", [Sphere2(1e39), Sphere2(1e150),
                               EuclideanDisk(7.5e-155), EuclideanDisk(6.7e153),
                               Sphere2(1.5e-154), Sphere2(1.34e154)])
def test_bracket_at_extreme_scales(m):
    # on the first two spheres l (1 + p) passes float32's largest value, 3.4e38;
    # the others are the smallest and largest radii their manifolds take, which
    # the k-d tree reaches because it holds the chart in a unit near its extent
    gg = sprinkle(m, 200, 0.25, rng=np.random.default_rng(49))
    l = gg.connection_length
    assert is_connected(gg.graph)
    below = build_annulus_graph(CandidatePairs(m, gg.coordinates), l * (1 - 1e-3), 0.25)
    assert not is_connected(below.graph)


@pytest.mark.parametrize("m", [Sphere2(1.0), HyperbolicDisk(1.0, math.acosh(3.0)),
                               EuclideanDisk(2.0)])
@pytest.mark.parametrize("n", [12, 400])
def test_shared_table_builds_as_a_fresh_one(monkeypatch, m, n):
    # the search probes, widens and caches the table it is given; a build from
    # that table after the search equals a build from a fresh table
    widenings = []
    cover = CandidatePairs._cover

    def counted_cover(self, length):
        reach = self.reach
        cover(self, length)
        widenings.append(self.reach > reach)

    monkeypatch.setattr(CandidatePairs, "_cover", counted_cover)
    pts = m.sample_points(n, np.random.default_rng(50))
    pairs = CandidatePairs(m, pts)
    l = min_connection_length(pairs, 0.25)
    if n == 12:
        assert sum(widenings) >= 2  # the grid widened the table more than once
    for length in (l, l * (1 - 1e-3), l * (1 + 1e-3)):
        shared = build_annulus_graph(pairs, length, 0.25).graph.edge_arrays()
        fresh = build_annulus_graph(CandidatePairs(m, pts), length, 0.25).graph.edge_arrays()
        assert all(np.array_equal(a, b) for a, b in zip(shared, fresh))


def test_sprinkle_two_points():
    gg = sprinkle(EuclideanDisk(1.0), 2, 0.25, rng=np.random.default_rng(44))
    assert gg.graph.edge_count == 1


def test_sprinkle_requires_rng():
    with pytest.raises(ValueError):
        sprinkle(EuclideanDisk(1.0), 5, 0.25)


def test_sprinkle_deterministic():
    m = Sphere2(1.0)
    g1 = sprinkle(m, 150, 0.25, rng=np.random.default_rng(45))
    g2 = sprinkle(m, 150, 0.25, rng=np.random.default_rng(45))
    assert edge_list(g1.graph) == edge_list(g2.graph)
    assert np.array_equal(g1.coordinates, g2.coordinates)
    assert g1.connection_length == g2.connection_length


def test_sprinkle_records_parameters_and_l_override():
    m = Sphere2(1.0)
    gg = sprinkle(m, 50, 0.3, rng=np.random.default_rng(46), l_override=0.9)
    assert gg.tolerance == 0.3
    assert gg.connection_length == 0.9


def test_distortion_decreases_with_vertex_count():
    # over 5 seeds each, the mean distortion of sphere sprinkles drops
    # when the vertex count quadruples
    from curvgraph import distortion_report
    from curvgraph.rng import substream

    def mean_distortion(n, seeds):
        vals = []
        for s in range(seeds):
            rng = substream(400 + n, s)
            gg = sprinkle(Sphere2(1.0), n, 0.25, rng=rng)
            vals.append(distortion_report(gg, rng=rng).distortion)
        return np.mean(vals)

    assert mean_distortion(1600, 5) < mean_distortion(400, 5)


def test_mean_degree_lower_at_small_p():
    # identical points: p = 0.25 keeps strictly fewer edges than p = 1
    rng = np.random.default_rng(47)
    m = Sphere2(1.0)
    pts = m.sample_points(400, rng)
    l = min_connection_length(CandidatePairs(m, pts), 0.25)
    e_small = build_annulus_graph(CandidatePairs(m, pts), l, 0.25).graph.edge_count
    e_large = build_annulus_graph(CandidatePairs(m, pts), l, 1.0).graph.edge_count
    assert is_connected(build_annulus_graph(CandidatePairs(m, pts), l, 0.25).graph)
    assert e_small < e_large


# --- property tests against the dense brute force ---------------------------


@st.composite
def point_sets(draw):
    """A manifold and a few of its points, some of them coincident."""
    kind = draw(st.sampled_from(["sphere2", "sphere3", "hyperbolic", "euclidean", "spheroid"]))
    scale = draw(st.floats(0.25, 4.0))
    if kind == "spheroid":  # pure-Python geodesics: keep it to a few points
        m, n = Spheroid(6378.0, 6357.0), draw(st.integers(2, 5))
    elif kind == "hyperbolic":
        m, n = HyperbolicDisk(scale, scale * draw(st.floats(0.2, 4.0))), draw(st.integers(2, 40))
    else:
        m = {"sphere2": Sphere2, "sphere3": Sphere3, "euclidean": EuclideanDisk}[kind](scale)
        n = draw(st.integers(2, 40))
    pts = m.sample_points(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    repeat = draw(st.integers(0, n // 2))
    if repeat:
        pts[n - repeat:] = pts[:repeat]
    return m, pts


def exact_distances(m, pts):
    """Float64 pairwise distances; a spheroid pair that does not converge rules the case out."""
    try:
        return pairwise_distances(m, pts)
    except SpheroidNonConvergence:
        return None


def brute_force_connected(D64, l, p):
    """Annulus-graph connectivity from the upper triangle of the float64 matrix."""
    upper = np.triu(D64, 1)
    return dense_connected_at(upper + upper.T, l, p)


def dense_connected_at(dist_matrix, l, p):
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


def dense_min_connection_length(m, D64, p):
    """The connection-length search on the dense float64 matrix.

    Same grid, bisection and downward 1e-3 bracket walk, the walk capped at
    64 steps.  Returns (l, whether the walk used up its steps).
    """
    diam = m.diameter()
    grid = [diam * i / 24 for i in range(1, 25)]
    best = None
    lo = 0.0
    for l in grid:
        if brute_force_connected(D64, l, p):
            best = l
            break
        lo = l
    if best is None:
        raise NoConnectedLength("no connected grid length")
    hi = best
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        if brute_force_connected(D64, mid, p):
            best = min(best, mid)
            hi = mid
        else:
            lo = mid
    for _ in range(64):
        lower = best * (1.0 - 1e-3)
        if not brute_force_connected(D64, lower, p):
            return best, False
        best = lower
    return best, True


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


@PROPERTY_SETTINGS
@given(case=point_sets(), reach=st.floats(1e-3, 1.0), p=st.floats(1e-3, 1.0))
def test_annulus_edges_match_brute_force(case, reach, p):
    m, pts = case
    D64 = exact_distances(m, pts)
    if D64 is None:
        return
    l = reach * m.diameter()
    iu, ju = np.triu_indices(len(pts), 1)
    rule = np.abs(D64[iu, ju] - l) <= l * p
    gg = build_annulus_graph(CandidatePairs(m, pts), l, p)
    assert edge_list(gg.graph) == list(zip(iu[rule].tolist(), ju[rule].tolist()))


@PROPERTY_SETTINGS
@given(case=point_sets(), p=st.floats(1e-3, 1.0))
def test_min_connection_length_matches_dense_search(case, p):
    m, pts = case
    D64 = exact_distances(m, pts)
    if D64 is None:
        return
    try:
        expected, capped = dense_min_connection_length(m, D64, p)
    except NoConnectedLength:
        with pytest.raises(NoConnectedLength):
            min_connection_length(CandidatePairs(m, pts), p)
        return
    try:
        l = min_connection_length(CandidatePairs(m, pts), p)
    except NoConnectedLength:
        # only where the dense walk ran out of bracket steps
        assert capped
        return
    if not capped:
        assert l.hex() == expected.hex()
    assert brute_force_connected(D64, l, p)
    assert not brute_force_connected(D64, l * (1.0 - 1e-3), p)


def _probe_oracle(D, l, p):
    """Edge set and connectivity of the annulus rule on the float64 matrix."""
    iu, ju = np.triu_indices(len(D), 1)
    rule = np.abs(D[iu, ju] - l) <= l * p
    return set(zip(iu[rule].tolist(), ju[rule].tolist())), brute_force_connected(D, l, p)


@PROPERTY_SETTINGS
@given(case=point_sets(), first=st.floats(1e-3, 0.4), others=st.lists(st.floats(1e-3, 1.0),
       max_size=4), p=st.floats(1e-3, 1.0), pick=st.integers(0, 2**16))
@example(case=(EuclideanDisk(1.0), np.array([[0.2, 0.1]])), first=0.3, others=[], p=0.5, pick=0)
@example(case=(Sphere2(1.0), np.array([[0.0, 0.0, 1.0], [0.0, 0.6, 0.8]])), first=0.2,
         others=[0.05], p=0.25, pick=0)
@example(case=(EuclideanDisk(1.0), np.array([[0.3, 0.1]] * 3 + [[0.5, 0.1]])), first=0.05,
         others=[], p=1.0, pick=4)
def test_probes_match_brute_force(case, first, others, p, pick):
    # The first length is probed again before and after the diameter widens the
    # table; two lengths put a pair's distance on the annulus's edges, where
    # rounding decides and the padded search holds pairs that fail the rule.
    m, pts = case
    D64 = exact_distances(m, pts)
    if D64 is None:
        return
    diam = m.diameter()
    lengths = [first * diam, first * diam, *(x * diam for x in others)]
    if len(pts) > 1:
        iu, ju = np.triu_indices(len(pts), 1)
        d = D64[iu, ju][pick % iu.size]
        lengths += [d / (1.0 + p), d / (1.0 - p)] if 0.0 < d and p < 1.0 else []
    pairs = CandidatePairs(m, pts)
    for l in [*lengths, diam, first * diam]:
        edges, connected = _probe_oracle(D64, l, p)
        u, v = pairs.edges(l, p)
        assert u.size == len(edges) and set(zip(u.tolist(), v.tolist())) == edges
        assert pairs.connected(l, p) == connected
