import numpy as np
import pytest

from curvgraph import Graph, Sphere2, ball_profile, sprinkle, wolfram_ricci_K
from curvgraph.errors import DegenerateFit, TooFewAccepted
from curvgraph.wolfram import VOLUME_QUARTIC, estimate_wolfram


def cycle(n):
    return Graph(n, list(range(n)), [(i + 1) % n for i in range(n)])


def star(k):
    return Graph(k + 1, [0] * k, list(range(1, k + 1)))


def path(n):
    return Graph(n, list(range(n - 1)), list(range(1, n)))


def test_ball_profile_cycle():
    assert list(ball_profile(cycle(12), 0, 3)) == [1, 3, 5, 7]


def test_ball_profile_star():
    assert list(ball_profile(star(5), 0, 1)) == [1, 6]


def test_ball_profile_path_end():
    assert list(ball_profile(path(6), 0, 2)) == [1, 2, 3]


def exact_profile(a, k, radii):
    """Ball counts from the volume expansion V_r = a r^2 (1 - K r^2 / 12)."""
    out = [1.0]  # center placeholder at r=0, excluded from fits
    for r in radii:
        out.append(a * r**2 * (1 - k * r**2 / VOLUME_QUARTIC))
    return np.asarray(out)


@pytest.mark.parametrize("a,k", [(3.0, 1.0), (5.0, 0.0), (2.0, -1.0)])
def test_exact_recovery(a, k):
    # counts tabulated at the physical radii h * l_e for hops h = 1..6
    scaled = exact_profile(a, k, [0.15 * h for h in range(1, 7)])
    fit = wolfram_ricci_K(scaled, l_e=0.15)
    assert fit.curvature == pytest.approx(k, abs=1e-9 * max(1.0, abs(k)))
    assert fit.normalization == pytest.approx(a, rel=1e-9)


def test_exact_recovery_unit_edge():
    # radii 1..6 with l_e = 1: the unit-curvature cap keeps fewer than 3
    # radii only if l_e > 1/3; here r <= 1 keeps r = 1 alone, degenerate
    profile = exact_profile(3.0, 1.0, range(1, 7))
    with pytest.raises(DegenerateFit):
        wolfram_ricci_K(profile, l_e=1.0)


def test_fit_matches_normal_equations():
    # independent oracle: explicit 2x2 normal equations on {r^2, r^4}
    from curvgraph.wolfram import _fit_basis

    rng = np.random.default_rng(81)
    for _ in range(50):
        m = int(rng.integers(4, 12))
        radii = np.sort(rng.uniform(0.05, 0.9, size=m))
        counts = rng.uniform(1.0, 100.0, size=m)
        x2, x4 = radii**2, radii**4
        gram = np.array([[x2 @ x2, x2 @ x4], [x4 @ x2, x4 @ x4]])
        rhs = np.array([x2 @ counts, x4 @ counts])
        alpha, beta = np.linalg.solve(gram, rhs)
        a2, b2 = _fit_basis(radii, counts)
        assert a2 == pytest.approx(alpha, rel=1e-9)
        assert b2 == pytest.approx(beta, rel=1e-9)


def test_degenerate_short_profile():
    with pytest.raises(DegenerateFit):
        wolfram_ricci_K(np.array([1.0, 4.0, 9.0]), l_e=0.1)


def test_estimate_wolfram_all_fits_degenerate():
    # l_e = 1 leaves one radius under the unit-curvature cap at every center
    with pytest.raises(TooFewAccepted):
        estimate_wolfram(path(30), 1.0, 20, np.random.default_rng(10))


@pytest.mark.parametrize("n_vertices", [0, -5])
def test_estimate_wolfram_needs_a_centre(n_vertices):
    with pytest.raises(ValueError, match=f"need n_vertices >= 1, got {n_vertices}"):
        estimate_wolfram(cycle(30), 0.1, n_vertices, np.random.default_rng(11))


def test_estimate_wolfram_deterministic():
    rng = np.random.default_rng(82)
    gg = sprinkle(Sphere2(1.0), 500, 0.25, rng=rng)
    from curvgraph import distortion_report
    rep = distortion_report(gg, rng=rng)
    r1 = estimate_wolfram(gg.graph, rep.effective_edge_length, 40, np.random.default_rng(9))
    r2 = estimate_wolfram(gg.graph, rep.effective_edge_length, 40, np.random.default_rng(9))
    assert np.array_equal(r1.samples, r2.samples)
    assert r1.estimator == "wolfram-ricci"
