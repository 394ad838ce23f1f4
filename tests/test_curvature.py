import math
import sys
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import trim_mean

from curvgraph import (
    Graph,
    Sphere2,
    bfs_hops,
    curvature_from_triangle,
    estimate_curvature,
    hop_window,
    ricci_scalar_from_mean_sectional,
    sample_triangle,
    sprinkle,
    vertex_curvature,
)
from curvgraph import curvature
from curvgraph.curvature import _RETRIES, CurvatureReport, _trimmed_mean, solve_triangles
from curvgraph.errors import (
    InvalidInput,
    NoCandidate,
    RootNotFound,
    TooFewAccepted,
    TriangleInequalityViolated,
)
from oracles import forward_hypotenuse


# --- root solver ----------------------------------------------------------

def test_flat_pythagorean():
    assert curvature_from_triangle(3.0, 4.0, 5.0) == 0.0


def test_spherical_octant():
    # on the unit sphere cos(pi/2) = 0 = cos(pi/2) cos(pi/2)
    k = curvature_from_triangle(math.pi / 2, math.pi / 2, math.pi / 2)
    assert k == pytest.approx(1.0, rel=1e-9)


def test_hyperbolic_unit_legs():
    # c from the hyperbolic law of cosines at K = -1
    c = math.acosh(math.cosh(1.0) ** 2)
    assert c == pytest.approx(1.5133740, abs=1e-7)
    assert curvature_from_triangle(1.0, 1.0, c) == pytest.approx(-1.0, abs=1e-5)


def test_triangle_inequality_violations():
    with pytest.raises(TriangleInequalityViolated):
        curvature_from_triangle(1.0, 1.0, 2.1)
    with pytest.raises(TriangleInequalityViolated):
        curvature_from_triangle(1.0, 1.0, 2.0)  # degenerate equality
    with pytest.raises(TriangleInequalityViolated):
        curvature_from_triangle(0.0, 1.0, 1.0)


def _random_forward_case(rng):
    """(a, b, c, K*) with c forward-evaluated from the cosine rule.

    |K*| is kept away from 0: the root is a double root there and relative
    recovery is ill-conditioned below ~1e-2.
    """
    while True:
        k = rng.uniform(-2.0, 2.0)
        if abs(k) >= 0.01:
            break
    a = rng.uniform(1e-3, 2.0)
    b = rng.uniform(1e-3, 2.0)
    if k > 0:
        while max(a, b) * math.sqrt(k) >= 0.999 * math.pi:
            a *= 0.5
            b *= 0.5
    return a, b, forward_hypotenuse(a, b, k), k


def test_root_oracle_thousand_cases():
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(1000):
        a, b, c, k = _random_forward_case(rng)
        got = curvature_from_triangle(a, b, c)
        worst = max(worst, abs(got - k) / abs(k))
    assert worst < 1e-6


def test_near_flat_negative_branch_oracle():
    # c^2 just above a^2 + b^2: the root rests on differences of log cosh at
    # small arguments, which keep their digits only if log cosh itself does
    import mpmath

    rng = np.random.default_rng(65)
    worst = 0.0
    for rel_gap in np.geomspace(1e-8, 1e-3, 200):
        a, b = rng.uniform(0.05, 2.0, size=2)
        c = math.sqrt((a * a + b * b) / (1.0 - rel_gap))  # (a^2+b^2-c^2)/c^2 = -rel_gap
        with mpmath.workdps(60):
            ma, mb, mc = map(mpmath.mpf, (a, b, c))

            def deflated(t):
                return (mpmath.log(mpmath.cosh(mc * t)) - mpmath.log(mpmath.cosh(ma * t))
                        - mpmath.log(mpmath.cosh(mb * t))) / (t * t)

            # the small-t root of the quartic expansion, bracketed by a factor 2
            t0 = mpmath.sqrt(6 * (mc**2 - ma**2 - mb**2) / (mc**4 - ma**4 - mb**4))
            want = -float(mpmath.findroot(deflated, (t0 / 2, 2 * t0), solver="anderson")) ** 2
        got = curvature_from_triangle(a, b, c)
        worst = max(worst, abs(got - want) / abs(want))
    assert worst < 1e-6


@st.composite
def bracket_triangles(draw):
    """Strictly valid (a, b, c) at a length scale from 1e-3 to 1e4.

    Three families: right triangles forward-evaluated at K = +-1; a leg
    within 1e-6 of pi at K = 1, so the root lies within 1e-6 of
    pi^2/max(a,b,c)^2, as fractal roots do; and c within 1e-9 relative of
    a + b, the far end of the negative branch.
    """
    family = draw(st.sampled_from(["forward", "near_k_max", "near_degenerate"]))
    a, b = draw(st.floats(0.01, 3.0)), draw(st.floats(0.01, 3.0))
    if family == "forward":
        c = forward_hypotenuse(a, b, draw(st.sampled_from([1.0, -1.0])))
    elif family == "near_k_max":
        a = math.pi * (1.0 - 10.0 ** draw(st.floats(-12.0, math.log10(5e-7))))
        c = forward_hypotenuse(a, b, 1.0)
    else:
        c = (a + b) * (1.0 - 10.0 ** draw(st.floats(-12.0, -9.0)))
    scale = 10.0 ** draw(st.floats(-3.0, 4.0))
    return a * scale, b * scale, c * scale


@settings(max_examples=300, deadline=None)
@given(bracket_triangles())
def test_bracket_solves_and_round_trips(sides):
    a, b, c = sides
    k = curvature_from_triangle(a, b, c)
    assert k <= (math.pi / max(sides)) ** 2
    assert forward_hypotenuse(a, b, k) == pytest.approx(c, rel=1e-9)


def test_sign_law():
    rng = np.random.default_rng(62)
    for _ in range(300):
        a, b, c, _ = _random_forward_case(rng)
        k = curvature_from_triangle(a, b, c)
        gap = a * a + b * b - c * c
        if k != 0.0:
            assert math.copysign(1, k) == math.copysign(1, gap)


def test_scaling_covariance():
    rng = np.random.default_rng(63)
    for _ in range(50):
        a, b, c, _ = _random_forward_case(rng)
        k = curvature_from_triangle(a, b, c)
        for lam in (0.5, 2.0, 10.0):
            scaled = curvature_from_triangle(lam * a, lam * b, lam * c)
            assert scaled == pytest.approx(k / lam**2, rel=1e-8)


@settings(max_examples=200, deadline=None)
@given(a=st.floats(0.01, 3.0), b=st.floats(0.01, 3.0), k=st.sampled_from([1.0, -1.0]),
       decades=st.floats(-150.0, 150.0))
def test_scale_covariance_extreme_lengths(a, b, k, decades):
    # K(lam a, lam b, lam c) = K(a, b, c) / lam^2 at length scales lam from 1e-150
    # to 1e150, and the scaled root gives back the scaled hypotenuse
    c = forward_hypotenuse(a, b, k)
    base = curvature_from_triangle(a, b, c)
    lam = 10.0 ** decades
    got = curvature_from_triangle(lam * a, lam * b, lam * c)
    assert got == pytest.approx(base / lam**2, rel=1e-9)
    assert forward_hypotenuse(lam * a, lam * b, got) == pytest.approx(lam * c, rel=1e-9)


def test_curvature_outside_float_range_raises():
    # the root of the unit-scale triangle is found, but K = K_unit / m^2 overflows
    # near m = 1e-300 (or in subnormals) and underflows near m = 1e200: no float
    # holds it, which is an error, not a flat 0.0; a flat triple stays exactly 0
    for scale in (1e-300, 1e-320, 1e200):
        with pytest.raises(RootNotFound, match="is not a finite nonzero float at length scale"):
            curvature_from_triangle(scale, scale, 1.2 * scale)
        assert curvature_from_triangle(3 * scale, 4 * scale, 5 * scale) == 0.0


def test_earth_sized_positive_branch_oracle():
    # legs of 100-6400 km with K c^2 from 0.01 to 0.5, as on the earth: against a
    # 60-digit root of the float sides, the half-angle residual loses no more than
    # 1e-12, where cos(c sqrt(K)) - cos(a sqrt(K)) cos(b sqrt(K)) lost about 1e-11
    import mpmath

    rng = np.random.default_rng(66)
    worst, solved = 0.0, 0
    while solved < 200:
        a, b = rng.uniform(100.0, 6400.0, size=2)
        k = rng.uniform(0.01, 0.5) / (a * a + b * b)
        c = forward_hypotenuse(a, b, k)
        if not 0.01 <= k * c * c <= 0.5:
            continue
        with mpmath.workdps(60):
            ma, mb, mc = map(mpmath.mpf, (a, b, c))

            def deflated(x):
                s = mpmath.sqrt(x)
                return (mpmath.cos(mc * s) - mpmath.cos(ma * s) * mpmath.cos(mb * s)) / x

            want = float(mpmath.findroot(deflated, (0.9 * k, 1.1 * k), solver="anderson"))
        got = curvature_from_triangle(a, b, c)
        worst = max(worst, abs(got - want) / want)
        solved += 1
    assert worst <= 1e-12


def test_forward_hypotenuse_near_flat_oracle():
    # K c^2 from 1e-12 to 1e-2 on both branches, against the 60-digit cosine rule;
    # acos(cos(a sqrt(K)) cos(b sqrt(K))) was off by 2e-9 relative at K c^2 = 1e-8
    import mpmath

    rng = np.random.default_rng(67)
    for kc2 in np.geomspace(1e-12, 1e-2, 60):
        for a, b in [(0.501, 0.506), rng.uniform(0.05, 2.0, size=2) * 10.0 ** rng.uniform(-3, 4)]:
            for sign in (1.0, -1.0):
                k = sign * kc2 / (a * a + b * b)
                with mpmath.workdps(60):
                    ma, mb = mpmath.mpf(a), mpmath.mpf(b)
                    s = mpmath.sqrt(abs(mpmath.mpf(k)))
                    if sign > 0:
                        want = mpmath.acos(mpmath.cos(ma * s) * mpmath.cos(mb * s)) / s
                    else:
                        want = mpmath.acosh(mpmath.cosh(ma * s) * mpmath.cosh(mb * s)) / s
                assert forward_hypotenuse(a, b, k) == pytest.approx(float(want), rel=1e-13)


def test_near_flat_round_trip():
    # K -> c -> K near flat: the root moves with c's rounding by about
    # eps c^4 / (a^2 b^2 K c^2) relative, the gap's sensitivity, and gives
    # back c to rounding
    rng = np.random.default_rng(68)
    eps = sys.float_info.epsilon
    for kc2 in np.geomspace(1e-10, 1e-2, 200):
        for sign in (1.0, -1.0):
            a, b = rng.uniform(0.5, 2.0, size=2) * 10.0 ** rng.uniform(-3, 4)
            k = sign * kc2 / (a * a + b * b)
            c = forward_hypotenuse(a, b, k)
            got = curvature_from_triangle(a, b, c)
            assert abs(got - k) <= 32 * eps * c**4 / (a * a * b * b * kc2) * abs(k)
            assert forward_hypotenuse(a, b, got) == pytest.approx(c, rel=1e-14)


def test_negative_branch_single_sign_change():
    # for c^2 > a^2 + b^2 the function cosh(ct) - cosh(at)cosh(bt) changes
    # sign exactly once on (0, T]; high-precision oracle, T sized so the
    # asymptotic root ~ ln(2)/(a+b-c) is well inside the scan
    import mpmath

    rng = np.random.default_rng(64)
    for _ in range(60):
        while True:
            a, b = rng.uniform(0.05, 2.0, size=2)
            c = rng.uniform(0.05, a + b)
            if c * c > a * a + b * b and c < a + b - 0.02:
                break
        t_hi = 5.0 * math.log(2.0) / (a + b - c) + 5.0 / max(a, b, c)
        ts = np.geomspace(1e-4 / max(a, b, c), t_hi, 300)
        signs = []
        for t in ts:
            val = mpmath.cosh(c * t) - mpmath.cosh(a * t) * mpmath.cosh(b * t)
            if val != 0:
                signs.append(1 if val > 0 else -1)
        flips = np.count_nonzero(np.diff(signs) != 0)
        assert flips == 1


def test_robustness_asymmetry():
    # |dK/dc| for the (1, 1, c) family is smaller in the positive-curvature
    # region (c = 1.2) than in the negative one (c = 1.6)
    eps = 1e-6
    slope_pos = abs(
        curvature_from_triangle(1, 1, 1.2 + eps) - curvature_from_triangle(1, 1, 1.2 - eps)
    ) / (2 * eps)
    slope_neg = abs(
        curvature_from_triangle(1, 1, 1.6 + eps) - curvature_from_triangle(1, 1, 1.6 - eps)
    ) / (2 * eps)
    assert slope_pos < slope_neg


def test_ricci_scalar():
    assert ricci_scalar_from_mean_sectional(1.0, 2) == 2.0
    assert ricci_scalar_from_mean_sectional(1.0, 3) == 6.0
    assert ricci_scalar_from_mean_sectional(0.0, 5) == 0.0
    with pytest.raises(ValueError):
        ricci_scalar_from_mean_sectional(1.0, 1)


# --- triangle sampling ----------------------------------------------------

def cycle(n):
    return Graph(n, list(range(n)), [(i + 1) % n for i in range(n)])


def grid_graph(rows, cols):
    us, vs = [], []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                us.append(v); vs.append(v + 1)
            if r + 1 < rows:
                us.append(v); vs.append(v + cols)
    return Graph(rows * cols, us, vs)


def test_sample_triangle_c12_degenerate_rejected():
    # on C12 with the apex pinned at 0 and window [2, 2], the only base
    # candidates put the apex on the base (midpoint = apex, a = 0), so no
    # valid sample exists
    g = cycle(12)
    rng = np.random.default_rng(65)
    with pytest.raises(NoCandidate):
        sample_triangle(g, 2, 2, rng, apex_row=(0, bfs_hops(g, 0)))


def test_sample_triangle_grid_center():
    # 5x5 grid, apex at the center: all construction distances are
    # re-checked against independent BFS rows
    g = grid_graph(5, 5)
    center = 12
    rng = np.random.default_rng(66)
    apex_row = (center, bfs_hops(g, center))
    found = 0
    for _ in range(20):
        try:
            (a_h, b_h, c_h), (apex, v, w, mid) = sample_triangle(g, 2, 4, rng, apex_row=apex_row)
        except NoCandidate:
            continue
        found += 1
        du = bfs_hops(g, apex)
        dv = bfs_hops(g, v)
        dw = bfs_hops(g, w)
        assert apex == center
        assert du[v] == du[w] == c_h
        assert dv[w] == 2 * b_h  # b is half the base
        assert dv[mid] == dw[mid] == b_h  # on a shortest path
        assert du[mid] == a_h
    assert found > 0


def full_mask_triangle(g, s_min_hops, s_max_hops, rng, apex_row=None):
    """The triangle search with full-length candidate masks: the reference for
    the hop-ring filters of curvature.sample_triangle."""
    c_min = math.ceil(math.sqrt(2.0) * s_min_hops)
    n = g.vertex_count
    for _ in range(_RETRIES):
        if apex_row is None:
            u = int(rng.integers(n))
            du = bfs_hops(g, u)
        else:
            u, du = apex_row
        v_cand = np.nonzero((du >= c_min) & (du <= s_max_hops))[0]
        if v_cand.size == 0:
            if apex_row is not None:
                break
            continue
        v = int(v_cand[rng.integers(v_cand.size)])
        dv = bfs_hops(g, v)
        w_mask = (du == du[v]) & (dv % 2 == 0) & (dv >= 2 * s_min_hops)
        w_mask[v] = False
        w_cand = np.nonzero(w_mask)[0]
        if w_cand.size == 0:
            continue
        w = int(w_cand[rng.integers(w_cand.size)])
        dw = bfs_hops(g, w)
        half = int(dv[w]) // 2
        m_cand = np.nonzero((dv == half) & (dw == half))[0]
        m_cand = m_cand[du[m_cand] >= s_min_hops]
        if m_cand.size == 0:
            continue
        mid = int(m_cand[rng.integers(m_cand.size)])
        return (int(du[mid]), half, int(du[v])), (u, v, w, mid)
    raise NoCandidate(f"no valid triangle after {_RETRIES} retries")


def _outcome(draw, rng):
    try:
        result = draw(rng)
    except NoCandidate:
        result = NoCandidate
    return result, rng.bit_generator.state


def test_sample_triangle_matches_full_masks():
    # the same draws, the same triangle or NoCandidate and the same final
    # generator state, for random and fixed apexes on graphs with and without
    # valid triangles
    sphere = sprinkle(Sphere2(1.0), 300, 0.25, rng=np.random.default_rng(72)).graph
    cases = [(sphere, 2, 8), (sphere, 3, 8), (sphere, 4, 6), (sphere, 2, 3),
             (grid_graph(7, 7), 2, 4), (grid_graph(7, 7), 3, 6), (cycle(12), 2, 2),
             (cycle(40), 2, 20)]
    outcomes = Counter()
    for case, (g, s_min, s_max) in enumerate(cases):
        for seed in range(12):
            for apex in (None, seed % g.vertex_count):
                apex_row = None if apex is None else (apex, bfs_hops(g, apex))
                got = _outcome(partial(sample_triangle, g, s_min, s_max, apex_row=apex_row),
                               np.random.default_rng([case, seed]))
                want = _outcome(partial(full_mask_triangle, g, s_min, s_max, apex_row=apex_row),
                                np.random.default_rng([case, seed]))
                assert got == want, (case, seed, apex)
                outcomes[got[0] is NoCandidate] += 1
    assert outcomes[True] > 20 and outcomes[False] > 100


def test_sample_triangle_deterministic():
    rng = np.random.default_rng(67)
    gg = sprinkle(Sphere2(1.0), 300, 0.25, rng=rng)
    s1 = [sample_triangle(gg.graph, 3, 8, np.random.default_rng(7))[0] for _ in range(1)]
    s2 = [sample_triangle(gg.graph, 3, 8, np.random.default_rng(7))[0] for _ in range(1)]
    assert s1 == s2


@pytest.mark.parametrize("per_vertex", [False, True])
def test_run_sides_are_hop_sides_times_edge_length(monkeypatch, per_vertex):
    # the estimators scale a run's hop sides by l_e in one array product: each
    # side solved has the bits of its hop count times l_e, and a draw without
    # a candidate is a row of NaN
    drawn, solved = [], []
    sample, solve = curvature.sample_triangle, curvature.solve_triangles

    def recorded_sample(*args, **kwargs):
        try:
            hops, vertices = sample(*args, **kwargs)
        except NoCandidate:
            drawn.append(None)
            raise
        drawn.append(hops)
        return hops, vertices

    def recorded_solve(a, b, c, *rest):
        solved.extend(zip(a.tolist(), b.tolist(), c.tolist()))
        return solve(a, b, c, *rest)

    monkeypatch.setattr(curvature, "sample_triangle", recorded_sample)
    monkeypatch.setattr(curvature, "solve_triangles", recorded_solve)
    g = sprinkle(Sphere2(1.0), 300, 0.25, rng=np.random.default_rng(72)).graph
    l_e = 0.1
    if per_vertex:
        vertex_curvature(g, l_e, 2, 7, 11, np.random.default_rng(8))
    else:
        estimate_curvature(g, l_e, 120, 7, 11, np.random.default_rng(8))
    assert len(solved) == len(drawn) > 0
    assert None in drawn
    for hops, sides in zip(drawn, solved):
        if hops is None:
            assert all(math.isnan(x) for x in sides)
        else:
            assert sides == tuple(h * l_e for h in hops)


# --- one solve path ---------------------------------------------------------

_NAN = math.nan


@st.composite
def side_rows(draw):
    """One (a, b, c) row of a kind every outcome of solve_triangles has."""
    kind = draw(st.sampled_from(["no_candidate", "valid", "over_length", "inequality",
                                 "no_root", "at_scale"]))
    a, b = draw(st.floats(0.01, 3.0)), draw(st.floats(0.01, 3.0))
    if kind == "at_scale":
        # a longest side at the length scale 10 is kept, one an ulp above it is not
        return draw(st.sampled_from([(6.0, 8.0, 10.0), (7.0, 7.5, 10.0),
                                     (7.0, 7.5, math.nextafter(10.0, math.inf))]))
    if kind == "no_candidate":
        return draw(st.sampled_from([(_NAN, _NAN, _NAN), (a, b, _NAN), (_NAN, b, a)]))
    if kind == "inequality":
        return draw(st.sampled_from([(a, b, a + b), (a, b, 2.0 * (a + b)), (0.0, b, b),
                                     (-a, b, b)]))
    if kind == "no_root":
        scale = draw(st.sampled_from([1e-300, 1e-320, 1e200]))
        return scale, scale, 1.2 * scale
    c = forward_hypotenuse(a, b, draw(st.sampled_from([1.0, -1.0, 0.0])))
    return (a, b, c) if kind == "valid" else (100.0 * a, 100.0 * b, 100.0 * c)


def _solve_one_by_one(rows, max_length_scale):
    """A plain per-row curvature_from_triangle loop: K or NaN, and (reason, count) items."""
    ks, reasons = [], []
    for sides in rows:
        k = _NAN
        if any(math.isnan(x) for x in sides):
            reasons.append("no_candidate")
        elif max_length_scale is not None and max(sides) > max_length_scale:
            reasons.append("max_length_scale")
        else:
            try:
                k = curvature_from_triangle(*sides)
            except TriangleInequalityViolated:
                reasons.append("triangle_inequality")
            except RootNotFound:
                reasons.append("root_not_found")
        ks.append(k)
    return ks, [(r, reasons.count(r)) for r in dict.fromkeys(reasons)]


@settings(max_examples=200, deadline=None)
@example(rows=[(6.0, 8.0, 10.0), (7.0, 7.5, math.nextafter(10.0, math.inf)), (_NAN,) * 3,
               (1.0, 1.0, 2.0), (1e-300, 1e-300, 1.2e-300), (1.0, 1.0, 1.2), (1.0, 1.0, 1.2)],
         max_length_scale=10.0)
@given(rows=st.lists(side_rows(), max_size=40),
       max_length_scale=st.sampled_from([None, 10.0, 1e250]))
def test_solve_triangles_equals_one_by_one(rows, max_length_scale):
    a, b, c = np.array(rows, dtype=np.float64).reshape(-1, 3).T
    ks, rejected = solve_triangles(a, b, c, max_length_scale)
    want_ks, want_rejected = _solve_one_by_one(rows, max_length_scale)
    assert ks.dtype == np.float64 and ks.shape == (len(rows),)
    for got, want in zip(ks.tolist(), want_ks, strict=True):
        assert got.hex() == want.hex() or math.isnan(got) and math.isnan(want)
    assert list(rejected.items()) == want_rejected


# --- report and estimation -------------------------------------------------

def test_report_from_identical_samples():
    rep = CurvatureReport.from_samples([0.0] * 25)
    assert rep.mean == 0.0
    assert rep.standard_error == 0.0
    assert rep.trimmed_mean == 0.0
    assert rep.median == 0.0


def test_report_statistics_recomputable():
    rng = np.random.default_rng(68)
    ks = rng.normal(size=200)
    rep = CurvatureReport.from_samples(ks)
    assert rep.mean == pytest.approx(ks.mean())
    assert rep.standard_error == pytest.approx(ks.std(ddof=1) / math.sqrt(200))
    assert rep.median == pytest.approx(np.median(ks))
    inner = np.sort(ks)[10:190]  # 5% trimmed each tail
    assert rep.trimmed_mean == pytest.approx(inner.mean())


_SIGNED_MAGNITUDES = (st.floats(1e-300, 1e300) | st.floats(-1e300, -1e-300)
                      | st.just(0.0))


@st.composite
def trim_inputs(draw):
    """1 to 3000 finite float64 values of mixed sign, magnitudes 1e-300 to 1e300, some tied."""
    n = draw(st.integers(1, 3000))
    lo, hi = sorted(draw(st.lists(st.integers(-300, 300), min_size=2, max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = 10.0 ** rng.uniform(lo, hi, n) * rng.choice([-1.0, 1.0], n)
    pool = draw(st.lists(_SIGNED_MAGNITUDES, min_size=1, max_size=8))
    tied = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    x[tied] = rng.choice(pool, int(tied.sum()))
    return x


_TRIM_RNG = np.random.default_rng(71)


@settings(max_examples=200, deadline=None)
@example(np.array([-2.5e-300]))                             # n = 1
@example(_TRIM_RNG.standard_cauchy(19))                     # n = 19: nothing cut
@example(np.r_[-1e300, _TRIM_RNG.normal(size=18), 1e300])  # n = 20: one cut from each tail
@example(np.repeat([-3.0, 0.0, 1e-300, 7.5, 1e300], 120))  # n = 600, five tied values
@given(trim_inputs())
def test_trimmed_mean_matches_scipy_bit_for_bit(x):
    assert _trimmed_mean(x).hex() == float(trim_mean(x, 0.05)).hex()


def test_estimate_curvature_deterministic_and_thread_invariant():
    rng = np.random.default_rng(69)
    gg = sprinkle(Sphere2(1.0), 400, 0.25, rng=rng)
    le = 0.25
    r1 = estimate_curvature(gg.graph, le, 60, rng=np.random.default_rng(5))
    r2 = estimate_curvature(gg.graph, le, 60, rng=np.random.default_rng(5))
    assert np.array_equal(r1.samples, r2.samples)
    assert r1.rejected == r2.rejected


def test_estimators_refuse_empty_hop_window():
    # a graph of hop diameter 1 has the default window (2, 1): no triangle fits
    g = Graph(2, [0], [1])
    for estimate in (partial(estimate_curvature, g, 0.1, 5), partial(vertex_curvature, g, 0.1, 5)):
        with pytest.raises(InvalidInput, match=r"s_max_hops, got \(2, 1\)$"):
            estimate(rng=np.random.default_rng(7))


@pytest.mark.parametrize("estimate", [estimate_curvature, vertex_curvature])
@pytest.mark.parametrize("l_e", [math.nan, math.inf, 0.0, -0.1])
def test_estimators_refuse_bad_edge_length(estimate, l_e):
    # refused before the hop window or any triangle is drawn, not tallied
    rng = np.random.default_rng(8)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=rf"^l_e must be finite and > 0, got {l_e!r}$"):
        estimate(cycle(12), l_e, 5, rng=rng)
    assert rng.bit_generator.state == state


def test_estimate_curvature_max_length_scale():
    rng = np.random.default_rng(70)
    gg = sprinkle(Sphere2(1.0), 400, 0.25, rng=rng)
    with pytest.raises(TooFewAccepted):
        # a max length scale below every side rejects everything
        estimate_curvature(gg.graph, 0.25, 40, rng=np.random.default_rng(6),
                           max_length_scale=1e-6)


def test_default_hop_window():
    g = cycle(12)
    smin, smax = hop_window(g, np.random.default_rng(0))
    assert (smin, smax) == (2, 6)


def test_vertex_curvature_small_graph_absent():
    # too small for the window: no vertex has a sample, and the error says why
    g = cycle(6)
    message = (r"0 of 12 samples accepted, so no vertex of 6 has a curvature "
               r"\(rejections: \{'no_candidate': 12\}\)")
    with pytest.raises(TooFewAccepted, match=message):
        vertex_curvature(g, 1.0, 2, 3, 3, np.random.default_rng(1))


def test_vertex_curvature_adjacent_smoothness():
    # on a constant-curvature sprinkle the per-vertex estimate varies
    # slowly: the mean |difference| across edges stays below the global
    # standard deviation of the per-vertex means
    from curvgraph.rng import substream

    rng = substream(77, 0)
    gg = sprinkle(Sphere2(1.0), 1200, 0.25, rng=rng)
    from curvgraph import distortion_report

    rep = distortion_report(gg, rng=rng)
    smin, smax = hop_window(gg.graph, rng)
    vk = vertex_curvature(gg.graph, rep.effective_edge_length, 8, smin, smax,
                          substream(77, 8))
    defined = ~np.isnan(vk)
    diffs = [abs(vk[u] - vk[v]) for u, v in zip(*gg.graph.edge_arrays())
             if defined[u] and defined[v]]
    assert len(diffs) > 100
    assert np.mean(diffs) < vk[defined].std()
    # and the distribution of per-vertex means is unimodal in the coarse
    # sense: the histogram's maximum sits in the interior
    hist, _ = np.histogram(vk[defined], bins=12)
    peak = int(np.argmax(hist))
    assert 0 < peak < 11


def test_vertex_curvature_deterministic():
    rng = np.random.default_rng(71)
    gg = sprinkle(Sphere2(1.0), 250, 0.25, rng=rng)
    smin, smax = hop_window(gg.graph, np.random.default_rng(2))
    v1 = vertex_curvature(gg.graph, 0.2, 2, smin, smax, np.random.default_rng(3))
    v2 = vertex_curvature(gg.graph, 0.2, 2, smin, smax, np.random.default_rng(3))
    assert np.array_equal(np.isnan(v1), np.isnan(v2))
    assert np.allclose(v1[~np.isnan(v1)], v2[~np.isnan(v2)])
    # a missing window end is drawn from rng before the per-vertex streams
    rng = np.random.default_rng(3)
    smin, smax = hop_window(gg.graph, rng)
    drawn = vertex_curvature(gg.graph, 0.2, 2, smin, smax, rng)
    resolved = vertex_curvature(gg.graph, 0.2, 2, rng=np.random.default_rng(3))
    assert np.array_equal(drawn, resolved, equal_nan=True)
    rng = np.random.default_rng(3)
    smax = hop_window(gg.graph, rng)[1]
    drawn = vertex_curvature(gg.graph, 0.2, 2, 4, smax, rng)
    resolved = vertex_curvature(gg.graph, 0.2, 2, s_min_hops=4, rng=np.random.default_rng(3))
    assert np.array_equal(drawn, resolved, equal_nan=True)
