import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvgraph import (
    EuclideanDisk,
    HyperbolicDisk,
    Sphere2,
    Sphere3,
    Spheroid,
    manifold_from_json,
)
from curvgraph.errors import SpheroidNonConvergence
from oracles import manifold_distance


def test_manifold_validation():
    with pytest.raises(ValueError):
        Sphere2(0.0)
    with pytest.raises(ValueError):
        HyperbolicDisk(1.0, -2.0)
    with pytest.raises(ValueError):
        Spheroid(6357.0, 6378.0)  # prolate


def test_lengths_at_the_square_bounds():
    # the smallest and largest lengths whose squares in the distance formulas
    # stay finite and normal (one step past each is refused, see the CLI tests):
    # distances scale with them
    for radius in (7.5e-155, 6.7e153):
        ends = np.array([[-radius, 0.0], [radius, 0.0]])
        assert EuclideanDisk(radius).distances_from(ends[0], ends[1:])[0] == pytest.approx(
            2.0 * radius, rel=1e-15)
    p, q = (0.1, 0.2), (0.9, 2.0)
    for scale, (a, b) in ((1e-154, (2.0, 1.5)), (1e154, (1.34, 1.0))):
        assert Spheroid(a * scale, b * scale).distance(p, q) == pytest.approx(
            scale * Spheroid(a, b).distance(p, q), rel=1e-14)


def test_json_round_trip():
    manifolds = [
        Sphere2(2.5),
        Sphere3(1.0),
        HyperbolicDisk(1.0, math.acosh(3.0)),
        EuclideanDisk(2.0),
        Spheroid(6378.0, 6357.0),
    ]
    for m in manifolds:
        m2 = manifold_from_json(m.to_json())
        assert type(m2) is type(m)
        assert m2.to_json() == m.to_json()
    with pytest.raises(ValueError):
        manifold_from_json({"type": "torus"})


# --- sampling uniformity ------------------------------------------------

N_UNIFORMITY = 10**5


def test_sphere_z_symmetric():
    rng = np.random.default_rng(11)
    pts = Sphere2(1.0).sample_points(N_UNIFORMITY, rng)
    z = pts[:, 2]
    se = z.std(ddof=1) / math.sqrt(len(z))
    assert abs(z.mean()) < 4 * se


def test_sphere3_coordinate_symmetric():
    rng = np.random.default_rng(12)
    pts = Sphere3(1.0).sample_points(N_UNIFORMITY, rng)
    for col in range(4):
        z = pts[:, col]
        se = z.std(ddof=1) / math.sqrt(len(z))
        assert abs(z.mean()) < 4 * se


def test_sphere_norms():
    rng = np.random.default_rng(13)
    pts = Sphere2(2.0).sample_points(1000, rng)
    assert np.allclose(np.linalg.norm(pts, axis=1), 2.0, rtol=1e-12)


def test_hyperbolic_radial_fraction():
    # fraction with r <= 1 is (cosh 1 - 1)/(cosh 2 - 1)
    rng = np.random.default_rng(14)
    pts = HyperbolicDisk(1.0, 2.0).sample_points(N_UNIFORMITY, rng)
    frac = float(np.mean(pts[:, 0] <= 1.0))
    expect = (math.cosh(1.0) - 1.0) / (math.cosh(2.0) - 1.0)
    se = math.sqrt(expect * (1 - expect) / N_UNIFORMITY)
    assert abs(frac - expect) < 4 * se


def test_euclidean_area_fraction():
    rng = np.random.default_rng(15)
    pts = EuclideanDisk(1.0).sample_points(N_UNIFORMITY, rng)
    frac = float(np.mean(np.linalg.norm(pts, axis=1) <= 0.5))
    se = math.sqrt(0.25 * 0.75 / N_UNIFORMITY)
    assert abs(frac - 0.25) < 4 * se


def test_sphere_z_chi_square():
    # area between parallels is proportional to the z-gap (Archimedes),
    # so z is uniform on [-R, R]
    rng = np.random.default_rng(16)
    pts = Sphere2(1.0).sample_points(N_UNIFORMITY, rng)
    counts, _ = np.histogram(pts[:, 2], bins=20, range=(-1.0, 1.0))
    expected = N_UNIFORMITY / 20
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    dof = 19
    assert chi2 < dof + 4 * math.sqrt(2 * dof)


def test_spheroid_latitude_chi_square():
    rng = np.random.default_rng(17)
    sph = Spheroid(6378.0, 6357.0)
    pts = sph.sample_points(N_UNIFORMITY, rng)
    lat = pts[:, 0]
    e2 = sph.eccentricity_sq
    edges = np.linspace(-math.pi / 2, math.pi / 2, 19)
    # bin masses from the area element ~ cos(lat)/(1 - e^2 sin^2 lat)^2
    grid = np.linspace(-math.pi / 2, math.pi / 2, 20001)
    dens = np.cos(grid) / (1 - e2 * np.sin(grid) ** 2) ** 2
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(grid))])
    cdf /= cdf[-1]
    bin_mass = np.diff(np.interp(edges, grid, cdf))
    counts, _ = np.histogram(lat, bins=edges)
    expected = bin_mass * N_UNIFORMITY
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    dof = len(bin_mass) - 1
    assert chi2 < dof + 4 * math.sqrt(2 * dof)


# --- geodesic distance ---------------------------------------------------

def test_sphere_antipodal():
    m = Sphere2(1.0)
    p = np.array([0.0, 0.0, 1.0])
    assert manifold_distance(m, p, -p) == pytest.approx(math.pi, rel=1e-12)


def test_hyperbolic_through_origin():
    m = HyperbolicDisk(1.0, 2.0)
    p = np.array([1.0, 0.0])
    q = np.array([1.0, math.pi])
    assert manifold_distance(m, p, q) == pytest.approx(2.0, rel=1e-12)


def test_spheroid_degenerates_to_sphere():
    m = Spheroid(6371.0, 6371.0)
    p = np.array([0.0, 0.0])
    q = np.array([0.0, 1.0])  # 1 radian along the equator
    assert m.distance(p, q) == pytest.approx(6371.0, rel=1e-6)


def test_metric_axioms_random_triples():
    rng = np.random.default_rng(18)
    cases = [
        (Sphere2(1.0), 1e-9),
        (Sphere3(1.3), 1e-9),
        (HyperbolicDisk(1.0, 2.0), 1e-9),
        (EuclideanDisk(2.0), 1e-9),
        (Spheroid(6378.0, 6357.0), 1e-6),
    ]
    for manifold, tol in cases:
        pts = manifold.sample_points(60, rng)
        for _ in range(40):
            i, j, k = rng.choice(60, size=3, replace=False)
            dij = manifold_distance(manifold, pts[i], pts[j])
            dji = manifold_distance(manifold, pts[j], pts[i])
            assert dij == pytest.approx(dji, rel=1e-12, abs=1e-12)
            dik = manifold_distance(manifold, pts[i], pts[k])
            dkj = manifold_distance(manifold, pts[k], pts[j])
            assert dij <= (dik + dkj) * (1 + tol)


MANIFOLDS = [Sphere2(1.0), Sphere3(1.3), HyperbolicDisk(1.0, 2.0), EuclideanDisk(2.0),
             Spheroid(6378.0, 6357.0)]


def test_distances_independent_of_batch():
    # a pair's distance must not depend on which other rows share the call;
    # duplicated points make the arccos near 1 expose any rounding difference
    rng = np.random.default_rng(21)
    for manifold in MANIFOLDS:
        pts = manifold.sample_points(40, rng)
        pts[20:] = pts[:20]
        rows = []
        for i in range(40):
            row = manifold.distances_from(pts[i], pts)
            for j in range(40):
                assert row[j] == manifold.distances_from(pts[i], pts[[j]])[0]
                assert row[j] == manifold.distances_from(pts[i], pts[j:])[0]
            rows.append(row)
        # one aligned-array call over every pair gives the rows' bits
        i_arr, j_arr = np.divmod(np.arange(40 * 40), 40)
        aligned = manifold.distances_from(pts[i_arr], pts[j_arr])
        assert np.array_equal(aligned.reshape(40, 40), np.array(rows))


@settings(max_examples=60, deadline=None)
@given(manifold=st.sampled_from(MANIFOLDS),
       seed=st.integers(0, 2**32 - 1),
       pairs=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=80))
def test_aligned_distances_equal_per_row_calls(manifold, seed, pairs):
    # random aligned index arrays, repeats and any order included, against
    # one one-source call per pair; a third of the points are duplicates.  A
    # spheroid call raises when some pair does not converge (near-antipodal)
    def call(p, qs):
        try:
            return manifold.distances_from(p, qs).tolist()
        except SpheroidNonConvergence:
            return None

    pts = manifold.sample_points(30, np.random.default_rng(seed))
    pts[20:] = pts[:10]
    i_arr = np.array([i for i, _ in pairs], dtype=np.intp)
    j_arr = np.array([j for _, j in pairs], dtype=np.intp)
    per_pair = [call(pts[i], pts[[j]]) for i, j in pairs]
    expect = None if None in per_pair else [d for (d,) in per_pair]
    assert call(pts[i_arr], pts[j_arr]) == expect


def test_hyperbolic_source_terms_come_from_math():
    # cosh and sinh of the source radius come from math, as in the one-source
    # scalar formula below; numpy's differ from math in the last bit for about
    # a fifth of arguments, which would move stored distances and graphs
    m = HyperbolicDisk(1.3, 2.0)
    pts = m.sample_points(200, np.random.default_rng(26))
    k = m.curvature_scale

    def one_source(p, qs):
        r1, r2 = p[0] / k, qs[:, 0] / k
        arg = (math.cosh(r1) * np.cosh(r2)
               - math.sinh(r1) * np.sinh(r2) * np.cos(p[1] - qs[:, 1]))
        return k * np.arccosh(np.maximum(arg, 1.0))

    expect = np.array([one_source(p, pts) for p in pts])
    i_arr, j_arr = np.divmod(np.arange(200 * 200), 200)
    assert np.array_equal(m.distances_from(pts[i_arr], pts[j_arr]), expect.ravel())


def test_rotation_isometry():
    rng = np.random.default_rng(19)
    # common rotation of both points leaves distances unchanged
    from scipy.spatial.transform import Rotation

    m = Sphere2(1.0)
    pts = m.sample_points(30, rng)
    rot = Rotation.random(random_state=7).as_matrix()
    for _ in range(30):
        i, j = rng.choice(30, size=2, replace=False)
        d1 = manifold_distance(m, pts[i], pts[j])
        d2 = manifold_distance(m, rot @ pts[i], rot @ pts[j])
        assert d2 == pytest.approx(d1, rel=1e-9, abs=1e-12)
    # hyperbolic: rotation about the origin is a shift in theta
    h = HyperbolicDisk(1.0, 2.0)
    hpts = h.sample_points(30, rng)
    shift = rng.uniform(0, 2 * math.pi)
    for _ in range(30):
        i, j = rng.choice(30, size=2, replace=False)
        d1 = manifold_distance(h, hpts[i], hpts[j])
        moved_i = hpts[i] + np.array([0.0, shift])
        moved_j = hpts[j] + np.array([0.0, shift])
        assert manifold_distance(h, moved_i, moved_j) == pytest.approx(d1, rel=1e-9, abs=1e-12)


# --- direct geodesic problem ---------------------------------------------

def sphere_direct(sphere, p, azimuth, s):
    """Point of the 2-sphere reached from ``p`` along azimuth ``azimuth`` (clockwise
    from north) for arclength ``s``: the oracle for Spheroid.direct."""
    r = sphere.radius
    x, y, z = np.asarray(p) / r
    lat1, lon1 = math.asin(max(-1.0, min(1.0, z))), math.atan2(y, x)
    delta = s / r
    sin_lat2 = math.sin(lat1) * math.cos(delta) + math.cos(lat1) * math.sin(delta) * math.cos(azimuth)
    lat2 = math.asin(max(-1.0, min(1.0, sin_lat2)))
    lon2 = lon1 + math.atan2(
        math.sin(azimuth) * math.sin(delta) * math.cos(lat1),
        math.cos(delta) - math.sin(lat1) * sin_lat2,
    )
    return r * np.array(
        [math.cos(lat2) * math.cos(lon2), math.cos(lat2) * math.sin(lon2), math.sin(lat2)]
    )


def test_sphere_direct_from_pole():
    m = Sphere2(1.0)
    pole = np.array([0.0, 0.0, 1.0])
    for az in [0.0, 1.0, 2.5]:
        q = sphere_direct(m, pole, az, math.pi / 2)
        assert abs(q[2]) < 1e-12  # on the equator


def test_sphere_direct_round_trip():
    m = Sphere2(1.0)
    rng = np.random.default_rng(20)
    for _ in range(50):
        p = m.sample_point(rng)
        az = rng.uniform(0, 2 * math.pi)
        s = rng.uniform(0.01, 0.49 * math.pi)
        q = sphere_direct(m, p, az, s)
        assert manifold_distance(m, p, q) == pytest.approx(s, rel=1e-6)


def test_spheroid_direct_matches_sphere_when_degenerate():
    sph = Spheroid(1.0, 1.0)
    sphere = Sphere2(1.0)
    rng = np.random.default_rng(21)
    for _ in range(30):
        lat = rng.uniform(-1.2, 1.2)
        lon = rng.uniform(0, 2 * math.pi)
        az = rng.uniform(0, 2 * math.pi)
        s = rng.uniform(0.01, 1.0)
        lat2, lon2 = sph.direct(np.array([lat, lon]), az, s)
        p3 = np.array([math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)])
        q3 = sphere_direct(sphere, p3, az, s)
        expect = np.array([
            math.cos(lat2) * math.cos(lon2),
            math.cos(lat2) * math.sin(lon2),
            math.sin(lat2),
        ])
        assert np.allclose(q3, expect, atol=1e-9)


def test_spheroid_direct_quarter_equator():
    # the equator is an exact geodesic; arclength a_eq * pi/2
    sph = Spheroid(6378.137, 6356.752)
    lat2, lon2 = sph.direct(np.array([0.0, 0.0]), math.pi / 2, 6378.137 * math.pi / 2)
    assert abs(lat2) < 1e-6
    assert lon2 == pytest.approx(math.pi / 2, abs=1e-6)


def test_spheroid_direct_round_trip():
    sph = Spheroid(6378.0, 6357.0)
    rng = np.random.default_rng(22)
    for _ in range(30):
        p = sph.sample_point(rng)
        az = rng.uniform(0, 2 * math.pi)
        s = rng.uniform(100.0, 0.24 * math.pi * 6357.0)
        q = sph.direct(p, az, s)
        assert sph.distance(p, q) == pytest.approx(s, rel=1e-6)


def test_spheroid_array_direct_round_trip():
    # one array call each way; every element matches its own one-point call
    sph = Spheroid(6378.0, 6357.0)
    rng = np.random.default_rng(24)
    p = sph.sample_points(300, rng)
    az = rng.uniform(0, 2 * math.pi, 300)
    s = rng.uniform(1.0, 0.24 * math.pi * 6357.0, 300)
    q = sph.direct(p, az, s)
    d = sph.distance(p, q)
    assert q.shape == (300, 2) and d.shape == (300,)
    np.testing.assert_allclose(d, s, rtol=1e-9)
    for i in range(0, 300, 37):
        assert np.array_equal(sph.direct(p[i], az[i], s[i]), q[i])
        assert sph.distance(p[i], q[i]) == d[i]


def test_spheroid_with_equal_axes_is_the_sphere():
    # Spheroid(r, r) against Sphere2's great-circle distance and direct formulas
    r = 6371.0
    sph, sphere = Spheroid(r, r), Sphere2(r)
    rng = np.random.default_rng(25)
    p, q = sph.sample_points(200, rng), sph.sample_points(200, rng)

    def embed(pts):
        lat, lon = pts[:, 0], pts[:, 1]
        return r * np.column_stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon),
                                    np.sin(lat)])

    p3, q3 = embed(p), embed(q)
    great_circle = np.array([manifold_distance(sphere, a, b) for a, b in zip(p3, q3)])
    # with no flattening the longitude iteration is a fixed point: every pair converges
    np.testing.assert_allclose(sph.distance(p, q), great_circle, rtol=1e-9, atol=1e-6)
    az = rng.uniform(0, 2 * math.pi, 200)
    s = rng.uniform(1.0, 0.45 * math.pi * r, 200)
    expect = np.array([sphere_direct(sphere, a, b, c) for a, b, c in zip(p3, az, s)])
    np.testing.assert_allclose(embed(sph.direct(p, az, s)), expect, atol=1e-6)


def test_sample_point_single():
    rng = np.random.default_rng(23)
    p = Sphere2(1.0).sample_point(rng)
    assert p.shape == (3,)
    assert np.linalg.norm(p) == pytest.approx(1.0, rel=1e-12)
