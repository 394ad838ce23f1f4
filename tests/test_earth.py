import math

import numpy as np
import pytest

from curvgraph import (
    Spheroid,
    earth_spheroid,
    estimate_earth_radius,
    expected_radius_pdf,
    forward_hypotenuse,
    ks_distance_to_expected,
    radius_from_curvature,
    sample_spheroid_triangle,
)
from curvgraph.errors import NonPositiveCurvature, TooFewAccepted


def test_radius_from_curvature():
    assert radius_from_curvature(1.0 / 6371.0**2) == pytest.approx(6371.0, rel=1e-12)
    assert radius_from_curvature(4.0) == 0.5
    for k in (0.0, -1.0):
        with pytest.raises(NonPositiveCurvature):
            radius_from_curvature(k)


def test_expected_pdf_values():
    assert expected_radius_pdf(6358.0) == pytest.approx(0.077088, rel=1e-12)
    assert expected_radius_pdf(6356.0) == 0.0
    assert expected_radius_pdf(6400.0) == 0.0


def test_expected_pdf_mean_by_quadrature():
    # numeric quadrature of R * p(R) over the support, substituting
    # u = sqrt(R - 6357) to remove the endpoint singularity; the density's
    # mass is 1.000007 (not renormalized), and its first moment is the
    # quoted 6371.07
    coeff = 0.077088
    u = np.linspace(0.0, math.sqrt(6399.07 - 6357.0), 200_001)
    r = 6357.0 + u * u
    weight = np.empty_like(u)  # p(R) dR/du; its u=0 limit is 2*coeff
    weight[0] = 2 * coeff
    weight[1:] = expected_radius_pdf(r[1:]) * 2 * u[1:]
    mass = np.trapezoid(weight, u)
    first_moment = np.trapezoid(r * weight, u)
    assert mass == pytest.approx(1.0, abs=1e-4)
    assert first_moment == pytest.approx(6371.07, abs=0.05)


def test_pdf_support_matches_spheroid_curvature_extremes():
    # pointwise radius 1/sqrt(K) on the spheroid runs from the polar
    # radius (at the equator) to a_eq^2/b (at the poles)
    a, b = 6378.0, 6357.0
    assert b == pytest.approx(6357.0)
    assert a * a / b == pytest.approx(6399.07, abs=5e-3)


def test_degenerate_sphere_triangle_exact():
    sph = Spheroid(6371.0, 6371.0)
    rng = np.random.default_rng(91)
    tri = sample_spheroid_triangle(sph, 1200.0, 800.0, rng)
    # exact spherical right triangle: cos(c/R) = cos(a/R) cos(b/R)
    lhs = math.cos(tri.c / 6371.0)
    rhs = math.cos(tri.a / 6371.0) * math.cos(tri.b / 6371.0)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_earth_triangle_hypotenuse_bounds():
    # the spheroid's curvature shortens the hypotenuse below the flat
    # sqrt(2) value, but no further than the highest-curvature sphere
    rng = np.random.default_rng(92)
    lo = forward_hypotenuse(1000.0, 1000.0, 1.0 / 6357.0**2)
    hi = 1000.0 * math.sqrt(2.0)
    for _ in range(5):
        tri = sample_spheroid_triangle(earth_spheroid(), 1000.0, 1000.0, rng)
        assert lo - 1e-6 < tri.c < hi


def test_sample_triangle_deterministic():
    rng1 = np.random.default_rng(93)
    rng2 = np.random.default_rng(93)
    t1 = sample_spheroid_triangle(earth_spheroid(), 900.0, 700.0, rng1)
    t2 = sample_spheroid_triangle(earth_spheroid(), 900.0, 700.0, rng2)
    assert (t1.a, t1.b, t1.c) == (t2.a, t2.b, t2.c)


def test_leg_validation():
    with pytest.raises(ValueError):
        sample_spheroid_triangle(earth_spheroid(), -1.0, 500.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_spheroid_triangle(earth_spheroid(), 500.0, 12000.0, np.random.default_rng(0))


def test_degenerate_sphere_radius_recovery():
    # every sample on a sphere of radius R0 returns R0
    r0 = 6000.0
    rep = estimate_earth_radius(Spheroid(r0, r0), n_samples=40,
                                rng=np.random.default_rng(94))
    assert rep.radii.size == 40
    assert np.allclose(rep.radii, r0, rtol=1e-4)


def test_estimate_radii_within_support():
    rep = estimate_earth_radius(n_samples=300, max_length_scale=6400.0,
                                rng=np.random.default_rng(95))
    assert np.all(rep.radii > 6357.0 - 5.0)
    assert np.all(rep.radii < 6399.07 + 5.0)
    assert rep.ks_distance is not None


def test_estimate_deterministic():
    r1 = estimate_earth_radius(n_samples=100, rng=np.random.default_rng(96))
    r2 = estimate_earth_radius(n_samples=100, rng=np.random.default_rng(96))
    assert np.array_equal(r1.radii, r2.radii)


def test_estimate_too_few_accepted():
    # every leg is at least 500 km, so a 1 km length scale rejects all draws
    with pytest.raises(TooFewAccepted):
        estimate_earth_radius(n_samples=50, max_length_scale=1.0,
                              rng=np.random.default_rng(99))


def test_csv_rows_parse_as_floats(tmp_path):
    rep = estimate_earth_radius(n_samples=20, rng=np.random.default_rng(98))
    path = tmp_path / "radii.csv"
    rep.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "radius_km"
    values = [float(line) for line in lines[1:]]
    assert values == [pytest.approx(r) for r in rep.radii]


def test_ks_distance_of_exact_model_draws():
    # inverse-CDF draws from p(R) itself have a small KS distance
    rng = np.random.default_rng(97)
    u = rng.random(4000)
    draws = 6357.0 + (u / (2 * 0.077088)) ** 2
    assert ks_distance_to_expected(draws) < 0.03
