import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from curvgraph import (
    Graph,
    UNREACHABLE,
    bfs_hops,
    diameter_estimate,
    is_connected,
    load_edge_list,
    save_edge_list,
)
from curvgraph.errors import Disconnected


def cycle(n):
    us = list(range(n))
    vs = [(i + 1) % n for i in range(n)]
    return Graph(n, us, vs)


def path(n):
    return Graph(n, list(range(n - 1)), list(range(1, n)))


def complete(n):
    us, vs = zip(*[(i, j) for i in range(n) for j in range(i + 1, n)])
    return Graph(n, us, vs)


def grid(rows, cols):
    us, vs = [], []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                us.append(v); vs.append(v + 1)
            if r + 1 < rows:
                us.append(v); vs.append(v + cols)
    return Graph(rows * cols, us, vs)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [0], [0])  # self-loop
    with pytest.raises(ValueError):
        Graph(3, [0, 1], [1, 0])  # duplicate edge (either orientation)
    with pytest.raises(ValueError):
        Graph(2, [0], [5])  # out of range


def test_adjacency_symmetric_sorted():
    g = Graph(4, [2, 0, 1], [0, 1, 3])
    for u in range(4):
        nbrs = g.neighbors(u)
        assert list(nbrs) == sorted(nbrs)
        for v in nbrs:
            assert u in g.neighbors(v)


def test_bfs_path():
    assert list(bfs_hops(path(3), 0)) == [0, 1, 2]


def test_bfs_disconnected():
    g = Graph(4, [0, 2], [1, 3])
    hops = bfs_hops(g, 0)
    assert list(hops[:2]) == [0, 1]
    assert hops[2] == UNREACHABLE and hops[3] == UNREACHABLE


def test_bfs_cycle():
    assert bfs_hops(cycle(12), 0)[7] == 5  # min(7, 12-7)


def test_bfs_matches_floyd_warshall():
    rng = np.random.default_rng(31)
    for trial in range(10):
        n = int(rng.integers(5, 50))
        edges = set()
        for _ in range(int(rng.integers(n, 3 * n))):
            u, v = rng.integers(n, size=2)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        if not edges:
            continue
        us, vs = zip(*sorted(edges))
        g = Graph(n, us, vs)
        # naive O(V^3) oracle
        inf = float("inf")
        dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
        for u, v in edges:
            dist[u][v] = dist[v][u] = 1
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if dist[i][k] + dist[k][j] < dist[i][j]:
                        dist[i][j] = dist[i][k] + dist[k][j]
        for src in range(0, n, max(1, n // 5)):
            hops = bfs_hops(g, src)
            for j in range(n):
                expect = dist[src][j]
                got = float(hops[j]) if hops[j] != UNREACHABLE else inf
                assert got == expect


def test_hop_metric_axioms():
    g = grid(4, 5)
    rng = np.random.default_rng(32)
    rows = {v: bfs_hops(g, v) for v in range(g.vertex_count)}
    for _ in range(60):
        u, v, w = rng.integers(g.vertex_count, size=3)
        assert rows[u][v] == rows[v][u]
        assert rows[u][w] <= rows[u][v] + rows[v][w]


def test_is_connected():
    assert is_connected(cycle(12))
    two_triangles = Graph(6, [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3])
    assert not is_connected(two_triangles)
    assert is_connected(Graph(1, [], []))


def test_diameter_examples():
    rng = np.random.default_rng(33)
    assert diameter_estimate(path(10), rng) == 9  # double sweep exact on trees
    assert diameter_estimate(cycle(12), rng) == 6
    assert diameter_estimate(complete(5), rng) == 1


def test_diameter_disconnected():
    g = Graph(4, [0, 2], [1, 3])
    with pytest.raises(Disconnected):
        diameter_estimate(g, np.random.default_rng(0))


@st.composite
def graphs(draw):
    """Simple graphs on 1 to 30 vertices, any number of them isolated."""
    n = draw(st.integers(1, 30))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=60)) if pairs else []
    return Graph(n, [u for u, _ in edges], [v for _, v in edges])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(g=graphs())
@example(g=Graph(1, [], []))
@example(g=Graph(12, [], []))
@example(g=Graph(12, [0, 3, 10], [11, 4, 11]))
@example(g=grid(3, 4))
def test_edge_list_round_trip(tmp_path, g):
    p = tmp_path / "g.edges"
    save_edge_list(g, p)
    first_line = p.read_text().splitlines()[0]
    assert first_line == f"{g.vertex_count} {g.edge_count}"
    g2 = load_edge_list(p)
    assert g2.vertex_count == g.vertex_count
    assert g2.edge_count == g.edge_count
    assert list(g2.edges()) == list(g.edges())
    assert np.array_equal(g2.indptr, g.indptr)
    assert np.array_equal(g2.indices, g.indices)
    again = tmp_path / "again.edges"
    save_edge_list(g2, again)
    assert again.read_bytes() == p.read_bytes()
