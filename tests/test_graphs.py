import contextlib
import io
import json
import math
import re
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from curvgraph import (
    Graph,
    UNREACHABLE,
    bfs_hops,
    diameter_estimate,
    is_connected,
    load_edge_list,
    save_edge_list,
)
from curvgraph.errors import Disconnected, InvalidInput
from curvgraph.fractal import SierpinskiGraph
from curvgraph.graphs import GeometricGraph, load_geometric_graph, save_geometric_graph
from curvgraph.manifolds import EuclideanDisk, HyperbolicDisk, Sphere2, Sphere3, Spheroid

REPO = Path(__file__).resolve().parents[1]


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


def neighbors(g, u):
    return g.indices[g.indptr[u] : g.indptr[u + 1]]


def test_adjacency_symmetric_sorted():
    g = Graph(4, [2, 0, 1], [0, 1, 3])
    for u in range(4):
        nbrs = neighbors(g, u)
        assert list(nbrs) == sorted(nbrs)
        for v in nbrs:
            assert u in neighbors(g, v)


def test_bfs_path():
    assert list(bfs_hops(path(3), 0)) == [0, 1, 2]


def test_bfs_disconnected():
    g = Graph(4, [0, 2], [1, 3])
    hops = bfs_hops(g, 0)
    assert list(hops[:2]) == [0, 1]
    assert hops[2] == UNREACHABLE and hops[3] == UNREACHABLE


def test_bfs_cycle():
    assert bfs_hops(cycle(12), 0)[7] == 5  # min(7, 12-7)


def test_hop_metric_axioms():
    g = grid(4, 5)
    rng = np.random.default_rng(32)
    rows = {v: bfs_hops(g, v) for v in range(g.vertex_count)}
    for _ in range(60):
        u, v, w = rng.integers(g.vertex_count, size=3)
        assert rows[u][v] == rows[v][u]
        assert rows[u][w] <= rows[u][v] + rows[v][w]


def test_bfs_rejects_bad_source():
    g = path(4)
    for source in (-1, 4, 1.5, np.float64(2.0), "0", None):
        with pytest.raises(ValueError):
            bfs_hops(g, source)
    assert list(bfs_hops(g, np.int64(3))) == [3, 2, 1, 0]


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
def edge_lists(draw):
    """(V, edges) of simple graphs on 1 to 30 vertices, any number of them isolated."""
    n = draw(st.integers(1, 30))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return n, draw(st.lists(st.sampled_from(pairs), unique=True, max_size=60)) if pairs else []


def from_edges(n, edges):
    return Graph(n, [u for u, _ in edges], [v for _, v in edges])


def graphs():
    return edge_lists().map(lambda ne: from_edges(*ne))


def python_bfs(n, edges, source):
    """Hop counts by breadth-first search over adjacency sets; None if unreachable."""
    adjacent = [set() for _ in range(n)]
    for u, v in edges:
        adjacent[u].add(v)
        adjacent[v].add(u)
    hops = [None] * n
    hops[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacent[u]:
            if hops[v] is None:
                hops[v] = hops[u] + 1
                queue.append(v)
    return hops


@settings(max_examples=80, deadline=None)
@given(graph=edge_lists())
@example(graph=(1, []))
@example(graph=(12, [(0, 11), (3, 4), (10, 11)]))
@example(graph=(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
@example(graph=(300, [(i, i + 1) for i in range(299)]))  # more than 255 levels
@example(graph=(21, [(0, i) for i in range(1, 21)]))  # star
@example(graph=(7, [(u, v) for u in range(3) for v in range(3, 7)]))  # K3,4
@example(graph=(5, [(1, 2), (2, 3), (3, 4)]))  # source 0 is a singleton component
def test_hops_match_python_bfs(graph):
    n, edges = graph
    g = from_edges(n, edges)
    for u in range(n):
        nbrs = neighbors(g, u).tolist()
        assert nbrs == sorted({v for e in edges if u in e for v in e if v != u})
        assert all(u in neighbors(g, v) for v in nbrs)
    # the all-pairs matrix stacks the rows of whatever graph it is given, cast to
    # int32; level 0 passes its level guard
    all_pairs = SierpinskiGraph(0, g, (), np.zeros((n, 2), dtype=np.int64)).all_hops()
    assert all_pairs.dtype == np.int32 and all_pairs.shape == (n, n)
    for s in range(n):
        expect = [UNREACHABLE if h is None else h for h in python_bfs(n, edges, s)]
        row = bfs_hops(g, s)
        assert row.dtype == np.uint32
        assert row.tolist() == expect
        assert np.array_equal(all_pairs[s], row.astype(np.int32))


@pytest.mark.parametrize("seed, n", [(0, 200), (1, 700), (2, 2000)])
def test_hops_match_python_bfs_geometric(seed, n):
    # random geometric graphs near the percolation radius: a long-winded giant
    # component with many levels, many small components and isolated vertices,
    # whose labels are shuffled so that components interleave in vertex order
    rng = np.random.default_rng(seed)
    placed = n - 5  # the last five vertices get no edges
    pairs = cKDTree(rng.random((placed, 2))).query_pairs(1.3 / np.sqrt(placed),
                                                         output_type="ndarray")
    label = rng.permutation(n)
    edges = [tuple(e) for e in label[pairs].tolist()]
    g = from_edges(n, edges)
    count, component = connected_components(g.adjacency)
    assert count >= 10 and np.count_nonzero(np.diff(g.indptr) == 0) >= 5
    sizes = np.bincount(component)
    largest = np.flatnonzero(component == np.argmax(sizes))
    sources = np.concatenate([
        rng.choice(largest, size=8, replace=False),  # deep rows
        [np.flatnonzero(component == c)[0] for c in np.argsort(sizes)[-6:-1]],
        label[placed:placed + 2],  # isolated
    ])
    for s in sources.tolist():
        expect = [UNREACHABLE if h is None else h for h in python_bfs(n, edges, s)]
        assert bfs_hops(g, s).tolist() == expect


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
    for got, want in zip(g2.edge_arrays(), g.edge_arrays()):
        assert np.array_equal(got, want)
    assert np.array_equal(g2.indptr, g.indptr)
    assert np.array_equal(g2.indices, g.indices)
    again = tmp_path / "again.edges"
    save_edge_list(g2, again)
    assert again.read_bytes() == p.read_bytes()


@pytest.mark.parametrize("g, text", [
    (Graph(1, [], []), "1 0\n"),
    (Graph(12, [], []), "12 0\n"),
    (Graph(12, [0, 3, 10], [11, 4, 11]), "12 3\n0 11\n3 4\n10 11\n"),
    (Graph(1005, [100, 7, 999, 1004], [9, 1004, 100, 0]),
     "1005 4\n0 1004\n7 1004\n9 100\n100 999\n"),
])
def test_edge_list_bytes(tmp_path, g, text):
    # "V E", then "u v" per edge with u < v, ordered by u then v, each line ending in \n
    p = tmp_path / "g.edges"
    save_edge_list(g, p)
    assert p.read_bytes() == text.encode()


@pytest.mark.parametrize("manifold, width", [
    (Sphere2(1.0), 3), (Sphere3(1.0), 4), (HyperbolicDisk(1.0, 2.0), 2),
    (EuclideanDisk(1.0), 2), (Spheroid(6378.0, 6357.0), 2),
])
def test_sidecar_coordinate_width(tmp_path, manifold, width):
    # a sidecar loads only with one point of the manifold's width per vertex
    points = manifold.sample_points(3, np.random.default_rng(0))
    assert manifold.coordinate_width == width == points.shape[1]
    for k, coordinates in enumerate([points, points[:, :-1], np.hstack([points, points[:, :1]])]):
        prefix = tmp_path / f"g{k}"
        save_geometric_graph(GeometricGraph(path(3), manifold, coordinates, 1.0, 0.25), prefix)
        if k == 0:
            assert np.array_equal(load_geometric_graph(prefix).coordinates, points)
            continue
        with pytest.raises(InvalidInput, match=rf"{manifold.kind} coordinates shaped "
                                               rf"\(3, {width + 2 * k - 3}\), not \(3, {width}\)"):
            load_geometric_graph(prefix)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_sidecar_refuses_non_finite_coordinates(tmp_path, value):
    manifold = Sphere2(1.0)
    points = manifold.sample_points(3, np.random.default_rng(0))
    points[2, 1] = value
    prefix = tmp_path / "g"
    save_geometric_graph(GeometricGraph(path(3), manifold, points, 1.0, 0.25), prefix)
    assert ("NaN" if math.isnan(value) else "Infinity") in (tmp_path / "g.json").read_text()
    with pytest.raises(InvalidInput, match=r"g\.json: coordinates must be finite, but vertex 2 "):
        load_geometric_graph(prefix)


def test_sidecar_is_checked_before_the_edge_list(tmp_path):
    # the header's vertex count is compared with the sidecar's coordinate rows
    # before any array of its size is built, and a fault in the sidecar, a
    # missing one included, is reported before one in the edge list
    manifold = Sphere2(1.0)
    points = manifold.sample_points(3, np.random.default_rng(0))
    prefix, edges = tmp_path / "g", tmp_path / "g.edges"
    save_geometric_graph(GeometricGraph(path(3), manifold, points, 1.0, 0.25), prefix)
    edges.write_text(f"{10**15} 0\n")
    with pytest.raises(InvalidInput, match=r"g\.edges: header vertex count 1000000000000000 "
                                           r"does not match the 3 coordinate rows of .*g\.json$"):
        load_geometric_graph(prefix)
    points[1] *= 3.0
    save_geometric_graph(GeometricGraph(path(3), manifold, points, 1.0, 0.25), prefix)
    edges.write_text("3 x\n")
    with pytest.raises(InvalidInput, match=r"g\.json: vertex 1 at .* does not lie on "):
        load_geometric_graph(prefix)
    edges.unlink()
    (tmp_path / "g.json").unlink()
    with pytest.raises(FileNotFoundError, match=r"g\.json"):
        load_geometric_graph(prefix)


# (manifold, a point at its bound, two points just past it or far off it)
ON_MANIFOLD_BOUNDS = [
    (Sphere2(2.0), [0.0, 0.0, 2.0], ([0.0, 0.0, 2.0 * (1 + 1e-8)], [0.0, 6.0, 0.0])),
    (Sphere3(1.0), [0.0, 0.0, 0.0, -1.0], ([0.0, 1 - 1e-8, 0.0, 0.0], [3.0, 0.0, 0.0, 0.0])),
    (HyperbolicDisk(1.0, 2.0), [2.0, 7.0], ([2.0 * (1 + 1e-8), 0.0], [-0.5, 1.0])),
    (EuclideanDisk(2.0), [0.0, -2.0], ([2.0 * (1 + 1e-8), 0.0], [3.0, 3.0])),
    (Spheroid(6378.0, 6357.0), [-math.pi / 2, 9.0], ([1.6, 0.0], [-1.6, 0.0])),
]


@pytest.mark.parametrize("manifold, at_bound, off", ON_MANIFOLD_BOUNDS,
                         ids=lambda x: getattr(x, "kind", None))
def test_sidecar_refuses_coordinates_off_the_manifold(tmp_path, manifold, at_bound, off):
    # a point at the manifold's bound loads; one just past it, or far off it,
    # is refused with the file and the first such vertex
    points = manifold.sample_points(4, np.random.default_rng(0))
    points[3] = at_bound
    prefix = tmp_path / "g"
    save_geometric_graph(GeometricGraph(path(4), manifold, points, 1.0, 0.25), prefix)
    assert np.array_equal(load_geometric_graph(prefix).coordinates, points)
    for point in off:
        points[1] = points[2] = point
        save_geometric_graph(GeometricGraph(path(4), manifold, points, 1.0, 0.25), prefix)
        message = rf"g\.json: vertex 1 at \[.*\] does not lie on {re.escape(repr(manifold))}$"
        with pytest.raises(InvalidInput, match=message):
            load_geometric_graph(prefix)


@pytest.mark.parametrize("manifold", [
    '{"type":"sphere2","radius":1.0}', '{"type":"sphere3","radius":1.0}',
    '{"type":"hyperbolic","curvature_scale":1.0,"disk_radius":1.762747174039086}',
    '{"type":"euclidean","radius":2.0}',
    '{"type":"spheroid","equatorial_radius":6378.0,"polar_radius":6357.0}',
])
def test_every_sprinkled_graph_loads(tmp_path, manifold):
    # every graph `sprinkle` writes, on seeds 1-5, passes the load checks; a
    # run that fails (the earth spheroid's distortion report can meet a
    # near-antipodal pair) writes nothing
    from curvgraph import cli

    for seed in range(1, 6):
        prefix = str(tmp_path / f"g{seed}")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(["sprinkle", "--manifold", manifold, "--n", "150", "--out", prefix,
                             "--seed", str(seed)])
        if code:
            assert '"error":"SpheroidNonConvergence"' in err.getvalue()
            assert not list(tmp_path.glob(f"g{seed}.*"))
            continue
        gg = load_geometric_graph(prefix)
        assert gg.vertex_count == 150 and not gg.manifold.outside(gg.coordinates).any()


def test_benchmark_graphs_load(tmp_path):
    # the benchmark's stored V=5000 graphs, written by `sprinkle --l`, load
    out = subprocess.run([sys.executable, str(REPO / "perfbench" / "make_graphs.py"),
                          "--dir", str(tmp_path), "--seed", "1"],
                         capture_output=True, text=True, check=True).stdout
    graphs = json.loads(out)["graphs"]
    assert len(graphs) == 2
    for graph in graphs:
        assert load_geometric_graph(graph["prefix"]).vertex_count == 5000
