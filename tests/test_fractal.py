import math
from itertools import permutations

import numpy as np
import pytest

from curvgraph import (
    bfs_hops,
    curvature_from_triangle,
    enumerate_fractal_triangle_counts,
    fractal_curvature_stats,
    sample_fractal_triangle_counts,
    sierpinski_graph,
)
from curvgraph import fractal
from curvgraph.errors import LevelTooLarge, SamplingStalled
from oracles import forward_hypotenuse
from sierpinski_oracle import brute_force_counts, full_pair_counts


@pytest.mark.parametrize("level", range(6))
def test_closed_form_counts(level):
    sg = sierpinski_graph(level)
    assert sg.graph.vertex_count == 3 * (3**level + 1) // 2
    assert sg.graph.edge_count == 3 ** (level + 1)


@pytest.mark.parametrize("level", range(5))
def test_corner_distances(level):
    sg = sierpinski_graph(level)
    a, b, c = sg.corner_vertices
    hops = bfs_hops(sg.graph, a)
    assert hops[b] == hops[c] == 2**level
    assert bfs_hops(sg.graph, b)[c] == 2**level


def test_level_one_by_hand():
    # three triangles glued pairwise: 6 vertices, 9 edges, corners at
    # hop distance 2
    sg = sierpinski_graph(1)
    assert sg.graph.vertex_count == 6
    assert sg.graph.edge_count == 9
    degs = np.diff(sg.graph.indptr)
    for v in sg.corner_vertices:
        assert degs[v] == 2
    assert sorted(degs) == [2, 2, 2, 4, 4, 4]


def test_level_guard():
    with pytest.raises(LevelTooLarge):
        sierpinski_graph(13)
    with pytest.raises(LevelTooLarge):
        sierpinski_graph(7).all_hops()


def test_enumeration_empty_at_level_zero():
    assert enumerate_fractal_triangle_counts(sierpinski_graph(0)) == {}


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_enumeration_matches_brute_force(level):
    sg = sierpinski_graph(level)
    got = enumerate_fractal_triangle_counts(sg)
    oracle = brute_force_counts(sg)
    assert got == oracle


@pytest.mark.parametrize("level", [1, 2])
def test_count_enumeration_equals_sample_enumeration(level):
    # the sampler reaches exactly the enumerated shapes: at level 2 the
    # rarest shape has weight 3/93, so 4000 draws miss it with
    # probability about e^-129
    sg = sierpinski_graph(level)
    exact = enumerate_fractal_triangle_counts(sg)
    sampled = sample_fractal_triangle_counts(sg, 4000, np.random.default_rng(level))
    assert sum(sampled.values()) == 4000
    assert set(sampled) == set(exact)


@pytest.mark.parametrize("level", range(7))
def test_symmetries_map_edges_to_edges(level):
    sg = sierpinski_graph(level)
    n = sg.graph.vertex_count
    indptr, indices = sg.graph.indptr, sg.graph.indices
    edges = {(u, v) for u in range(n) for v in indices[indptr[u] : indptr[u + 1]]}
    perms = sg.symmetries()
    assert perms.shape == (6, n) and np.array_equal(perms[0], np.arange(n))
    assert len({p.tobytes() for p in perms}) == 6
    for p in perms:
        assert np.array_equal(np.sort(p), np.arange(n))
        assert {(int(p[u]), int(p[v])) for u, v in edges} == edges


def _corner_symmetries(sg, hops):
    """The six automorphisms, found from hop distances alone.

    Each permutes the three corners, and no two vertices have the same hop
    distances to the corners, so a vertex maps to the one at its distances,
    permuted.
    """
    at = {tuple(hops[c][v] for c in sg.corner_vertices): v for v in range(len(hops))}
    assert len(at) == len(hops)
    return [[at[tuple(hops[sg.corner_vertices[i]][v] for i in order)] for v in range(len(hops))]
            for order in permutations(range(3))]


def test_pair_table_matches_definition():
    sg = sierpinski_graph(4)  # several build blocks
    hops = [list(map(int, bfs_hops(sg.graph, v))) for v in range(sg.graph.vertex_count)]
    verts = range(len(hops))
    pairs = [(v, w) for v in verts for w in verts
             if v < w and hops[v][w] >= 2 and hops[v][w] % 2 == 0]
    orbits = {pair: {tuple(sorted((s[pair[0]], s[pair[1]]))) for s in _corner_symmetries(sg, hops)}
              for pair in pairs}
    canonical = [pair for pair in pairs if pair == min(orbits[pair])]
    t = sg.pair_table()
    assert list(zip(t.v.tolist(), t.w.tolist())) == canonical
    assert t.size.tolist() == [len(orbits[pair]) for pair in canonical]
    assert sum(t.size.tolist()) == len(pairs)
    for k, (v, w) in enumerate(canonical):
        half = hops[v][w] // 2
        assert t.half[k] == half
        assert (t.mids[t.mid_ptr[k]:t.mid_ptr[k + 1]].tolist()
                == [m for m in verts if hops[v][m] == half == hops[w][m]])
        assert (t.apexes[t.apex_ptr[k]:t.apex_ptr[k + 1]].tolist()
                == [u for u in verts if hops[v][u] == hops[w][u]])


@pytest.mark.parametrize("level", range(6))
def test_orbit_tally_equals_full_pair_enumeration(level):
    sg = sierpinski_graph(level)
    assert enumerate_fractal_triangle_counts(sg) == full_pair_counts(sg)


def test_blocks_smaller_than_a_pair(monkeypatch):
    # every candidate block boundary, even inside one pair's candidates,
    # still yields each quadruple exactly once
    monkeypatch.setattr(fractal, "_BLOCK", 5)
    sg = sierpinski_graph(2)
    assert enumerate_fractal_triangle_counts(sg) == brute_force_counts(sg)


def test_level_one_enumeration_values():
    # at level 1 every even base has length 2; the valid shapes are
    # (a, b, c) = (1, 1, 1) and (2, 1, 2) by direct inspection
    counts = enumerate_fractal_triangle_counts(sierpinski_graph(1))
    assert set(counts) == {(1, 1, 1), (2, 1, 2)}


def test_sampling_stalled_at_level_zero():
    with pytest.raises(SamplingStalled):
        sample_fractal_triangle_counts(sierpinski_graph(0), 5, np.random.default_rng(0))


def test_sampling_cost_does_not_grow_with_m():
    sg = sierpinski_graph(2)
    sampled = sample_fractal_triangle_counts(sg, 10**15, np.random.default_rng(5))
    assert sum(sampled.values()) == 10**15
    with pytest.raises(ValueError, match="need m < 2"):
        sample_fractal_triangle_counts(sg, 2**63, np.random.default_rng(5))


def test_sampling_deterministic():
    sg = sierpinski_graph(2)
    s1 = sample_fractal_triangle_counts(sg, 50, np.random.default_rng(3))
    s2 = sample_fractal_triangle_counts(sg, 50, np.random.default_rng(3))
    assert s1 == s2


def test_sampling_matches_enumeration_frequencies():
    # empirical shape frequencies within 4 sigma of the exact enumeration
    sg = sierpinski_graph(1)
    exact = enumerate_fractal_triangle_counts(sg)
    total_exact = sum(exact.values())
    n = 20000
    sampled = sample_fractal_triangle_counts(sg, n, np.random.default_rng(4))
    assert set(sampled) <= set(exact)
    for key, cnt in exact.items():
        p = cnt / total_exact
        se = math.sqrt(p * (1 - p) * n)
        assert abs(sampled.get(key, 0) - p * n) < 4 * se


def test_signs_at_level_two():
    counts = enumerate_fractal_triangle_counts(sierpinski_graph(2))
    ks = [curvature_from_triangle(float(a), float(b), float(c)) for (a, b, c) in counts]
    assert any(k > 0 for k in ks) and any(k < 0 for k in ks)


@pytest.mark.parametrize("level", range(1, 6))
def test_every_enumerated_shape_solves(level):
    # every quadruple is counted or rejected, none is rejected, a flat shape is
    # exactly 0 and every other root gives back its hypotenuse
    counts = enumerate_fractal_triangle_counts(sierpinski_graph(level))
    solved, rejected = fractal.solve_shapes(counts, 1.0, level)
    assert rejected == 0
    stats = fractal_curvature_stats(counts, 1.0, level)
    assert stats["count"] + stats["rejected"] == sum(counts.values())
    for (a, b, c), (k, _) in zip(sorted(counts), solved, strict=True):
        if a * a + b * b == c * c:
            assert k == 0.0
        else:
            assert math.copysign(1.0, k) == math.copysign(1.0, a * a + b * b - c * c)
            assert forward_hypotenuse(a, b, k) == pytest.approx(c, rel=1e-9)


def test_stats_identity_scale():
    counts = enumerate_fractal_triangle_counts(sierpinski_graph(1))
    stats = fractal_curvature_stats(counts, 1.0, 1)
    # oracle: solve each enumerated quadruple's shape independently and average
    ks = np.array([curvature_from_triangle(float(a), float(b), float(c))
                   for (a, b, c), n in counts.items() for _ in range(n)])
    assert stats["count"] == len(ks)
    assert stats["mean"] == pytest.approx(ks.mean(), rel=1e-12)
    assert stats["stdDev"] == pytest.approx(ks.std(), rel=1e-12)
    # the weighted median picks an actual sample value
    assert any(stats["median"] == pytest.approx(k, rel=1e-12) for k in ks)


def test_stats_edge_scale_linearity():
    counts = enumerate_fractal_triangle_counts(sierpinski_graph(2))
    base = fractal_curvature_stats(counts, 1.0, 2)
    scaled = fractal_curvature_stats(counts, 0.5, 2)
    assert scaled["mean"] == pytest.approx(16.0 * base["mean"], rel=1e-12)
    assert scaled["median"] == pytest.approx(16.0 * base["median"], rel=1e-12)
    assert scaled["stdDev"] == pytest.approx(16.0 * base["stdDev"], rel=1e-12)


def test_stats_empty():
    stats = fractal_curvature_stats({}, 1.0, 0)
    assert stats["count"] == 0 and stats["empty"] is True
