"""Compact undirected graphs with BFS shortest-path machinery.

A graph stores its adjacency once, as a symmetric scipy CSR matrix with
sorted neighbour lists.  Hop counts are the combinatorial metric used by
every estimator: exact unweighted shortest-path lengths from one kernel,
:func:`_hop_distances`, which every hop read goes through.  Callers take
them one source row at a time with :func:`bfs_hops`, so no all-pairs
matrix is materialized for large graphs; the small Sierpinski graphs
stack their all-pairs matrix from the same rows.  A row is scipy's
breadth-first order from the source, cut into levels by counting each
level's children; on the V = 5000 perfbench graphs (2-core x86-64 host)
the order takes about 240 µs and the split about 90 µs more.  Because
the stored matrix already holds both orientations of each edge, the
search runs as directed, which is exact here and skips a symmetrisation
on every call.  Graphs are immutable after construction.
"""

import json
import math
import operator
import warnings

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from .errors import Disconnected, InvalidInput
from .manifolds import manifold_from_json

UNREACHABLE = np.uint32(0xFFFFFFFF)


class Graph:
    """Undirected simple graph: symmetric adjacency, no loops, no duplicates.

    ``adjacency`` is the one copy of the edges: a float64 CSR matrix of
    ones holding both orientations of every edge, with sorted neighbour
    lists; ``indptr`` and ``indices`` are its own arrays.
    """

    def __init__(self, vertex_count, edges_u, edges_v):
        edges_u = np.asarray(edges_u, dtype=np.int64)
        edges_v = np.asarray(edges_v, dtype=np.int64)
        if edges_u.size and (min(edges_u.min(), edges_v.min()) < 0
                             or max(edges_u.max(), edges_v.max()) >= vertex_count):
            raise ValueError("edge endpoint out of range")
        if np.any(edges_u == edges_v):
            raise ValueError("self-loops are not allowed")
        self.vertex_count = int(vertex_count)
        self.edge_count = int(edges_u.size)
        # both orientations; building the CSR sorts each row and sums repeats
        self.adjacency = csr_matrix(
            (np.ones(2 * edges_u.size),
             (np.concatenate([edges_u, edges_v]), np.concatenate([edges_v, edges_u]))),
            shape=(self.vertex_count, self.vertex_count),
        )
        if self.adjacency.nnz != 2 * self.edge_count:
            raise ValueError("duplicate edges are not allowed")
        self.indptr, self.indices = self.adjacency.indptr, self.adjacency.indices

    def neighbors(self, v):
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degrees(self):
        return np.diff(self.indptr)

    def edge_arrays(self):
        """Each edge once, as arrays (u, v) with u < v, ordered by u then v."""
        rows = np.repeat(np.arange(self.vertex_count), np.diff(self.indptr))
        upper = rows < self.indices
        return rows[upper], self.indices[upper]

    def edges(self):
        """Iterate edges once as (u, v) with u < v."""
        us, vs = self.edge_arrays()
        return zip(us.tolist(), vs.tolist())

    def __repr__(self):
        return f"Graph(V={self.vertex_count}, E={self.edge_count})"


def _hop_distances(g, source):
    """Hop counts from ``source`` as uint32, :data:`UNREACHABLE` where there is no path.

    The package's one hop kernel.  The row is scipy's breadth-first
    order, which lists the reached vertices level by level, split into
    levels by child counts: level k + 1 is the children of level k and
    comes right after it, so when level k ends at position ``end`` of the
    order, level k + 1 ends at one plus the number of children of the
    first ``end`` vertices.  The split costs about 0.4 of the
    breadth-first order itself.  The search runs as directed, which is
    exact because the adjacency holds both orientations of every edge.
    """
    order, parents = breadth_first_order(g.adjacency, source, directed=True,
                                         return_predecessors=True)
    order = order.astype(np.intp)
    # kids[i]: how many children order[0..i] have in the search tree
    kids = np.bincount(parents[order[1:]], minlength=g.vertex_count)[order].cumsum()
    sizes, end = [1], 1  # end: one past the last level's last position in the order
    while end < order.size:
        sizes.append(1 + int(kids[end - 1]) - end)
        end += sizes[-1]
    out = np.full(g.vertex_count, UNREACHABLE, dtype=np.uint32)
    out[order] = np.repeat(np.arange(len(sizes), dtype=np.uint32), sizes)
    return out


def bfs_hops(g, source):
    """Hop counts from ``source`` to every vertex, as uint32.

    Unreachable vertices get the sentinel :data:`UNREACHABLE`; a source
    that is not an integer in ``[0, V)`` raises ValueError (scipy's
    search would wrap a negative one or fail on one past the end).
    """
    try:
        source = operator.index(source)
    except TypeError:
        raise ValueError(f"source must be an integer vertex, not {source!r}") from None
    if not 0 <= source < g.vertex_count:
        raise ValueError(f"source {source} is not a vertex of a graph with "
                         f"{g.vertex_count} vertices")
    return _hop_distances(g, source)


def is_connected(g):
    """True iff a BFS from vertex 0 reaches every vertex."""
    if g.vertex_count == 0:
        raise ValueError("graph must have at least one vertex")
    return bool(np.all(bfs_hops(g, 0) != UNREACHABLE))


def diameter_estimate(g, rng):
    """Diameter lower bound by repeated double-sweep BFS (4 sweeps).

    Each sweep starts from the most eccentric vertex the previous sweep
    found; the first starts from a random vertex.  Exact on trees, a lower
    bound in general.
    """
    start = int(rng.integers(g.vertex_count))
    best = 0
    for _ in range(4):
        hops = bfs_hops(g, start)
        if np.any(hops == UNREACHABLE):
            raise Disconnected("diameter estimate requires a connected graph")
        ecc = int(hops.max())
        best = max(best, ecc)
        start = int(np.argmax(hops))
    return best


def save_edge_list(g, path):
    """Write the text edge-list format: "V E" then one "u v" line per edge."""
    us, vs = g.edge_arrays()
    with open(path, "w") as fh:
        fh.write(f"{g.vertex_count} {g.edge_count}\n")
        fh.write(("%d %d\n" * g.edge_count) % tuple(np.column_stack([us, vs]).ravel().tolist()))


def load_edge_list(path):
    """Read the text edge-list format; a malformed file raises InvalidInput.

    The header "V E" must be followed by exactly E lines "u v" (blank
    lines are skipped).
    """
    with open(path) as fh:
        header = fh.readline().split()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a body without edges
                pairs = np.loadtxt(fh, dtype=np.int64, comments=None, ndmin=2)
        except ValueError as exc:
            raise InvalidInput(f"{path}: the lines after the header must be 'u v': {exc}") from None
    try:
        vcount, ecount = (int(x) for x in header)
    except ValueError:
        raise InvalidInput(f"{path}: the first line must be 'V E'") from None
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if vcount < 0 or pairs.shape != (ecount, 2):
        raise InvalidInput(f"{path}: header 'V E' = {vcount} {ecount} but {len(pairs)} "
                           f"lines of {pairs.shape[1]} numbers follow")
    return Graph(vcount, pairs[:, 0], pairs[:, 1])


class GeometricGraph:
    """A graph whose vertices carry coordinates on a manifold.

    ``connection_length`` and ``tolerance`` are the annulus parameters the
    edges satisfy: an edge (u, v) exists iff |d(u,v) - l| <= l * p.
    ``effective_edge_length`` is filled in lazily by the distortion module.
    """

    def __init__(self, graph, manifold, coordinates, connection_length, tolerance,
                 effective_edge_length=None):
        self.graph = graph
        self.manifold = manifold
        self.coordinates = np.asarray(coordinates, dtype=np.float64)
        self.connection_length = float(connection_length)
        self.tolerance = float(tolerance)
        self.effective_edge_length = effective_edge_length

    @property
    def vertex_count(self):
        return self.graph.vertex_count

    def __repr__(self):
        return (f"GeometricGraph({self.graph!r}, {self.manifold!r}, "
                f"l={self.connection_length:.6g}, p={self.tolerance})")


def save_geometric_graph(gg, prefix):
    """Write ``<prefix>.edges`` (edge list) and ``<prefix>.json`` (sidecar)."""
    save_edge_list(gg.graph, f"{prefix}.edges")
    sidecar = {
        "manifold": gg.manifold.to_json(),
        "connection_length": gg.connection_length,
        "tolerance": gg.tolerance,
        "coordinates": gg.coordinates.tolist(),
    }
    if gg.effective_edge_length is not None:
        sidecar["effective_edge_length"] = gg.effective_edge_length
    with open(f"{prefix}.json", "w") as fh:
        fh.write(json.dumps(sidecar, sort_keys=True) + "\n")


def load_geometric_graph(prefix):
    """Read ``<prefix>.edges`` and its sidecar; malformed input raises InvalidInput."""
    graph = load_edge_list(f"{prefix}.edges")
    with open(f"{prefix}.json") as fh:
        sidecar = json.load(fh)
    required = ("manifold", "connection_length", "tolerance", "coordinates")
    if not isinstance(sidecar, dict) or any(key not in sidecar for key in required):
        raise InvalidInput(f"{prefix}.json: a sidecar needs the keys {', '.join(required)}")
    numbers = [sidecar["connection_length"], sidecar["tolerance"]]
    if "effective_edge_length" in sidecar:
        numbers.append(sidecar["effective_edge_length"])
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in numbers):
        raise InvalidInput(f"{prefix}.json: connection_length, tolerance and "
                           f"effective_edge_length must be numbers")
    for key in ("connection_length", "effective_edge_length"):
        if key in sidecar and not 0 < sidecar[key] < math.inf:
            raise InvalidInput(f"{prefix}.json: {key} must be finite and > 0, "
                               f"got {sidecar[key]!r}")
    if not 0 < sidecar["tolerance"] <= 1:
        raise InvalidInput(f"{prefix}.json: tolerance must be in (0, 1], "
                           f"got {sidecar['tolerance']!r}")
    manifold = manifold_from_json(sidecar["manifold"])
    coordinates = np.asarray(sidecar["coordinates"], dtype=np.float64)
    shape = (graph.vertex_count, manifold.coordinate_width)
    if coordinates.shape != shape:
        raise InvalidInput(f"{prefix}.json: {manifold.kind} coordinates shaped "
                           f"{coordinates.shape}, not {shape}")
    return GeometricGraph(
        graph,
        manifold,
        coordinates,
        sidecar["connection_length"],
        sidecar["tolerance"],
        sidecar.get("effective_edge_length"),
    )
