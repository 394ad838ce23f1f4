import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvgraph import earth
from curvgraph import (
    Spheroid,
    earth_spheroid,
    estimate_earth_radius,
    expected_radius_pdf,
    ks_distance_to_expected,
    radius_from_curvature,
    sample_spheroid_triangle,
)
from curvgraph.errors import (
    NonPositiveCurvature,
    SamplingStalled,
    SpheroidNonConvergence,
    TooFewAccepted,
)
from oracles import forward_hypotenuse


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
    a, b, c = sample_spheroid_triangle(sph, 1200.0, 800.0, rng)
    # exact spherical right triangle: cos(c/R) = cos(a/R) cos(b/R)
    lhs = math.cos(c / 6371.0)
    rhs = math.cos(a / 6371.0) * math.cos(b / 6371.0)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_earth_triangle_hypotenuse_bounds():
    # the spheroid's curvature shortens the hypotenuse below the flat
    # sqrt(2) value, but no further than the highest-curvature sphere
    rng = np.random.default_rng(92)
    lo = forward_hypotenuse(1000.0, 1000.0, 1.0 / 6357.0**2)
    hi = 1000.0 * math.sqrt(2.0)
    for _ in range(5):
        _, _, c = sample_spheroid_triangle(earth_spheroid(), 1000.0, 1000.0, rng)
        assert lo - 1e-6 < c < hi


def test_sample_triangle_deterministic():
    rng1 = np.random.default_rng(93)
    rng2 = np.random.default_rng(93)
    t1 = sample_spheroid_triangle(earth_spheroid(), 900.0, 700.0, rng1)
    t2 = sample_spheroid_triangle(earth_spheroid(), 900.0, 700.0, rng2)
    assert t1 == t2
    assert all(type(side) is float for side in t1)


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


def _construction(spheroid, mid, theta, leg_a, leg_b):
    """One construction with one-point geodesic calls: its averaged hypotenuse, or None
    when it is not kept."""
    try:
        v = spheroid.direct(mid, theta, leg_b)
        w = spheroid.direct(mid, theta + math.pi, leg_b)
        u = spheroid.direct(mid, theta + 0.5 * math.pi, leg_a)
        c1, c2 = spheroid.distance(u, v), spheroid.distance(u, w)
    except SpheroidNonConvergence:
        return None
    c = 0.5 * (c1 + c2)
    return c if abs(c1 - c2) <= earth._ASYMMETRY_REL * c else None


def _rounds_over_pending(spheroid, leg_range, count, rng):
    """Reference chunk: each sample's legs, then rounds in which the pending samples,
    in sample order, draw their midpoints and azimuths and try one construction each.

    Returns the triangles' sides and the number of rounds after the first.
    """
    legs = [(rng.uniform(*leg_range), rng.uniform(*leg_range)) for _ in range(count)]
    hypotenuses = [None] * count
    rounds = -1
    while None in hypotenuses:
        rounds += 1
        assert rounds < earth._STALL_LIMIT, "a sample of the reference stalls"
        pending = [i for i, c in enumerate(hypotenuses) if c is None]
        mids = spheroid.sample_points(len(pending), rng)
        thetas = rng.uniform(0.0, 2.0 * math.pi, len(pending))
        for i, mid, theta in zip(pending, mids, thetas):
            hypotenuses[i] = _construction(spheroid, mid, theta, *legs[i])
    return [(a, b, c) for (a, b), c in zip(legs, hypotenuses)], rounds


def _assert_draws_equal_reference(draw, spheroid, leg_range, count, seed):
    """``draw`` gives the reference's triangles and generator state, bit for bit.

    Returns the reference's number of retry rounds.
    """
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = draw(spheroid, leg_range, count, rng)
    expected, rounds = _rounds_over_pending(spheroid, leg_range, count, ref_rng)
    assert got == expected
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return rounds


def _sides(arrays):
    """The (a, b, c) float triples of the side arrays (a, b, c)."""
    return list(zip(*(side.tolist() for side in arrays)))


def _one_chunk(spheroid, leg_range, count, rng):
    return _sides(earth._triangles(spheroid, leg_range, [(count, rng)]))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 600),
       spheroid=st.sampled_from([earth_spheroid(), Spheroid(6378.0, 6378.0),
                                 Spheroid(6378.0, 5000.0)]),
       asymmetry=st.sampled_from([earth._ASYMMETRY_REL, 2e-5]),
       lo=st.floats(1.0, 3000.0), width=st.floats(0.0, 1000.0))
def test_triangle_chunk_equals_per_sample_draws(seed, count, spheroid, asymmetry, lo, width):
    # an asymmetry bound of 2e-5 rejects about one construction in seven, and
    # on the flattened spheroid many direct geodesics do not converge: both
    # leave samples pending for another round
    with mock.patch.object(earth, "_ASYMMETRY_REL", asymmetry):
        _assert_draws_equal_reference(_one_chunk, spheroid, (lo, lo + width), count, seed)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), counts=st.lists(st.integers(1, 40), min_size=2, max_size=4))
def test_all_chunks_equal_the_per_chunk_reference(seed, counts):
    # the tight asymmetry bound leaves samples of every chunk pending
    spheroid, leg_range = earth_spheroid(), (500.0, 4000.0)
    gens = np.random.default_rng(seed).spawn(len(counts))
    refs = np.random.default_rng(seed).spawn(len(counts))
    with mock.patch.object(earth, "_ASYMMETRY_REL", 2e-5):
        got = _sides(earth._triangles(spheroid, leg_range, list(zip(counts, gens))))
        expected = [tri for count, ref in zip(counts, refs)
                    for tri in _rounds_over_pending(spheroid, leg_range, count, ref)[0]]
    assert got == expected
    assert [g.bit_generator.state for g in gens] == [r.bit_generator.state for r in refs]


@pytest.mark.parametrize("earlier_fails", [True, False])
def test_stall_in_a_later_chunk(monkeypatch, earlier_fails):
    # one sample of chunk 1 and one of chunk 2 are never kept, one with a
    # geodesic that fails and one with a finite hypotenuse: chunk 1 is the
    # one a chunk-by-chunk build stalls on, so its sample names the reason
    counts, leg_range = [3, 4, 5], (500.0, 4000.0)
    firsts = [gen.uniform(*leg_range, (count, 2))[:, 0]
              for count, gen in zip(counts, np.random.default_rng(11).spawn(3))]
    failing, asymmetric = (firsts[1][2], firsts[2][0])[::1 if earlier_fails else -1]
    hypotenuses = earth._hypotenuses

    def never_kept(spheroid, mid, theta, leg_a, leg_b):
        c, kept = hypotenuses(spheroid, mid, theta, leg_a, leg_b)
        c[leg_a == failing] = math.nan
        return c, kept & (leg_a != failing) & (leg_a != asymmetric)

    monkeypatch.setattr(earth, "_hypotenuses", never_kept)
    message = ("geodesic construction kept failing" if earlier_fails
               else "hypotenuse asymmetry kept exceeding 0.5%")
    with pytest.raises(SamplingStalled, match=message):
        earth._triangles(earth_spheroid(), leg_range,
                         list(zip(counts, np.random.default_rng(11).spawn(3))))


@pytest.mark.parametrize("owner, name, value, count", [(earth, "_ASYMMETRY_REL", 5e-5, 60),
                                                       (Spheroid, "_MAX_ITER", 4, 10)])
def test_rejected_constructions_redraw_as_the_reference(monkeypatch, owner, name, value, count):
    # a tight asymmetry bound rejects some constructions, and four iterations
    # leave most geodesics unconverged: the pending samples must be retried
    monkeypatch.setattr(owner, name, value)
    assert _assert_draws_equal_reference(_one_chunk, earth_spheroid(),
                                         (500.0, 4000.0), count, 7) > 0


def test_sample_triangle_is_the_loop_on_one_sample(monkeypatch):
    # with four iterations most constructions fail, so the one sample is retried
    monkeypatch.setattr(Spheroid, "_MAX_ITER", 4)

    def one_at_a_time(spheroid, leg_range, count, rng):
        return [sample_spheroid_triangle(spheroid, rng.uniform(*leg_range),
                                         rng.uniform(*leg_range), rng) for _ in range(count)]

    assert sum(_assert_draws_equal_reference(one_at_a_time, earth_spheroid(), (500.0, 4000.0),
                                             1, seed) for seed in range(3)) > 0


@pytest.mark.parametrize("owner, name, value, message", [
    (earth, "_ASYMMETRY_REL", 0.0, "hypotenuse asymmetry kept exceeding 0.5%"),
    (Spheroid, "_MAX_ITER", 1, "geodesic construction kept failing"),
])
def test_sample_triangle_stalls(monkeypatch, owner, name, value, message):
    monkeypatch.setattr(owner, name, value)
    built = []  # sizes of the construction batches, each rejected
    hypotenuses = earth._hypotenuses

    def counted(spheroid, mid, theta, leg_a, leg_b):
        built.append(len(mid))
        return hypotenuses(spheroid, mid, theta, leg_a, leg_b)

    monkeypatch.setattr(earth, "_hypotenuses", counted)
    with pytest.raises(SamplingStalled, match=message):
        sample_spheroid_triangle(earth_spheroid(), 900.0, 700.0, np.random.default_rng(3))
    # the stall comes on the _STALL_LIMIT-th rejection of the one sample
    assert built == [1] * earth._STALL_LIMIT
