"""Sierpinski triangle graphs and their curvature distributions.

The level-n graph is built by corner identification: three level-(n-1)
copies share pairwise corner vertices, with unit edge lengths.  On the
integer triangle lattice the construction is just the union of the unit
up-triangles at recursively shifted offsets; shared corners coincide in
coordinates, so the identification is free.  Vertex count 3(3^n + 1)/2,
edge count 3^(n+1), corners pairwise at hop distance 2^n.

Curvature samples are the isosceles triangles with an even base: apex u
equidistant from v and w, base d(v,w) even, a base midpoint m, giving the
right triangle (a, b, c) = (d(u,m), d(v,w)/2, d(u,v)) in unit edge
lengths.  Every qualifying midpoint yields its own sample.  The exact tally
of samples by shape is enumerated, and drawing m samples uniformly over
the quadruples is one multinomial draw over that tally.

The six symmetries of the triangle permute the barycentric coordinates
(x, y, 2^n - x - y) of the vertices and map each pair {v, w}, with its
midpoints, apexes and shapes, onto another.  So the enumeration expands
one pair per orbit and counts it once for each pair of the orbit.

Curvatures come per shape, not per sample: the sorted shapes of a tally
go as side arrays to ``solve_triangles``, the solve path that graph and
earth triangles take too, and each K is weighted by its shape's count.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .curvature import solve_triangles
from .errors import LevelTooLarge, SamplingStalled
from .graphs import Graph, _hop_distances

_MAX_LEVEL = 6           # the enumeration needs all-pairs distances
_BLOCK = 1 << 14         # hop-row cells or candidates expanded at once (memory bound)
_SCALE_DECADES = 100     # scaled K, squared and weighted by counts, stays a normal float


# One even-base pair per symmetry orbit, with its midpoint and apex lists, as
# int32 CSR.  Pair k is (v[k], w[k]), v < w, at hop distance 2 half[k], the
# image with the smallest v * V + w among the `size[k]` distinct images of
# its orbit; its midpoints are mids[mid_ptr[k]:mid_ptr[k + 1]] and its
# equidistant apexes apexes[apex_ptr[k]:apex_ptr[k + 1]], each in ascending
# vertex order.  Pairs run in row-major order of the upper triangle.
PairTable = namedtuple("PairTable", "v w half size mid_ptr mids apex_ptr apexes")


@dataclass
class SierpinskiGraph:
    """A level-n Sierpinski graph; vertex v sits at lattice point coords[v] = (x, y)."""

    level: int
    graph: Graph
    corner_vertices: tuple
    coords: np.ndarray

    def __post_init__(self):
        self._hops = None
        self._pairs = None

    def all_hops(self):
        """Exact all-pairs hop distances, as int32 BFS rows (cached)."""
        if self._hops is None:
            rows = [_hop_distances(self.graph, s) for s in range(self.graph.vertex_count)]
            self._hops = np.array(rows, dtype=np.int32)
        return self._hops

    def symmetries(self):
        """The six vertex permutations of the triangle's symmetries, identity first, as int32 rows.

        Each permutes the barycentric coordinates (x, y, 2^n - x - y) of every
        vertex; row s maps v to the vertex at the s-th permutation of v's.
        """
        side = 2**self.level
        x, y = self.coords.T
        bary = (x, y, side - x - y)
        at = np.zeros((side + 1, side + 1), dtype=np.int32)
        at[x, y] = np.arange(x.size)
        return np.array([at[bary[i], bary[j]] for i, j, _ in permutations(range(3))])

    def pair_table(self):
        """The even-base pair table over symmetry orbits (cached)."""
        if self._pairs is None:
            self._pairs = _build_pair_table(self.all_hops(), self.symmetries())
        return self._pairs


def sierpinski_graph(level):
    """Level-n Sierpinski triangle graph with unit edge lengths, for 0 <= n <= 6.

    Every use of the graph reads its all-pairs hop distances, which stop at
    level 6, so a higher level raises LevelTooLarge before anything is built.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    if level > _MAX_LEVEL:
        raise LevelTooLarge(f"all-pairs distances limited to level {_MAX_LEVEL}")
    offsets = [(0, 0)]
    for k in range(level):
        s = 2**k
        offsets = (
            offsets
            + [(x + s, y) for (x, y) in offsets]
            + [(x, y + s) for (x, y) in offsets]
        )
    ids = {}

    def vid(pt):
        if pt not in ids:
            ids[pt] = len(ids)
        return ids[pt]

    us, vs = [], []
    for (x, y) in offsets:
        a, b, c = vid((x, y)), vid((x + 1, y)), vid((x, y + 1))
        us.extend((a, a, b))
        vs.extend((b, c, c))
    # up-triangles never share edges, so the lists are duplicate-free
    graph = Graph(len(ids), us, vs)
    side = 2**level
    corners = (ids[(0, 0)], ids[(side, 0)], ids[(0, side)])
    return SierpinskiGraph(level=level, graph=graph, corner_vertices=corners,
                           coords=np.array(list(ids), dtype=np.int32))


def _build_pair_table(hops, symmetries):
    """The one place that finds each even-base pair's midpoints and apexes.

    A symmetry maps a pair's midpoints, apexes and shapes onto its image's,
    so only the orbit's smallest image, by v * V + w, is kept, with the
    orbit's size.  Every even base has a shortest-path midpoint, and a
    midpoint is itself an apex, so no pair has an empty list.
    """
    n = len(hops)
    v, w = np.nonzero(np.triu((hops % 2 == 0) & (hops >= 2), 1))
    sv, sw = symmetries[:, v].astype(np.int64), symmetries[:, w].astype(np.int64)
    images = np.sort(np.minimum(sv, sw) * n + np.maximum(sv, sw), axis=0)
    canonical = images[0] == v * n + w
    images = images[:, canonical]
    size = 1 + np.count_nonzero(images[1:] != images[:-1], axis=0)
    v, w = v[canonical], w[canonical]
    half = hops[v, w] // 2
    step = max(1, _BLOCK // len(hops))
    # per block: each pair's list length, and the lists' vertices in pair order;
    # the empty first entries keep np.concatenate valid when there is no pair
    counts = ([np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)])
    cols = ([np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.int32)])
    for s in range(0, v.size, step):
        dv, dw, h = hops[v[s:s + step]], hops[w[s:s + step]], half[s:s + step, None]
        for k, mask in enumerate(((dv == h) & (dw == h), dv == dw)):
            rows, found = np.nonzero(mask)
            counts[k].append(np.bincount(rows, minlength=len(mask)))
            cols[k].append(found.astype(np.int32))

    def csr(k):
        ptr = np.zeros(v.size + 1, dtype=np.int32)
        np.cumsum(np.concatenate(counts[k]), out=ptr[1:])
        return ptr, np.concatenate(cols[k])

    return PairTable(v.astype(np.int32), w.astype(np.int32), half.astype(np.int32),
                     size.astype(np.int32), *csr(0), *csr(1))


def enumerate_fractal_triangle_counts(sg):
    """{(a,b,c) hop triple: count} over every even-base isosceles quadruple.

    A quadruple is (u, {v,w}, m) with d(u,v) = d(u,w) = c, d(v,w) = 2b
    even, m a shortest-path midpoint (all qualifying midpoints counted),
    a = d(u,m) >= 1, and strict triangle inequalities on (a, b, c) in unit
    edge lengths.  Levels 5-6 have millions of quadruples but only a few
    thousand distinct shapes, so candidates are expanded about _BLOCK at a
    time, by pair, then apex, then midpoint, and only tallied.  Only one
    pair per symmetry orbit is expanded; its candidates count once for each
    pair of the orbit, in exact integers.
    """
    t, hops = sg.pair_table(), sg.all_hops()
    n_mid = np.diff(t.mid_ptr)
    cand = n_mid * np.diff(t.apex_ptr)
    ends = np.cumsum(cand)
    starts = ends - cand
    side = 2**sg.level + 1  # every hop distance is below this
    totals = np.zeros(side**3, dtype=np.int64)
    k0 = 0
    while k0 < t.v.size:
        k1 = max(k0 + 1, int(np.searchsorted(ends, starts[k0] + _BLOCK, side="right")))
        k = np.repeat(np.arange(k0, k1, dtype=np.int32), cand[k0:k1])
        rank = np.arange(starts[k0], ends[k1 - 1]) - starts[k]
        u = t.apexes[t.apex_ptr[k] + rank // n_mid[k]]
        m = t.mids[t.mid_ptr[k] + rank % n_mid[k]]
        a, b, c = hops[u, m], t.half[k], hops[t.v[k], u]
        ok = (a >= 1) & (a < b + c) & (b < a + c) & (c < a + b)
        key, size = ((a * side + b) * side + c)[ok], t.size[k][ok]
        # each candidate stands for its pair's whole orbit
        for s in np.unique(size).tolist():
            block = np.bincount(key[size == s])
            totals[:block.size] += s * block
        k0 = k1
    keys = np.nonzero(totals)[0]
    shapes = zip((keys // side**2).tolist(), (keys // side % side).tolist(),
                 (keys % side).tolist())
    return dict(zip(shapes, totals[keys].tolist()))


def sample_fractal_triangle_counts(sg, m, rng):
    """{(a,b,c) hops: count} of m draws uniform over the enumerated quadruples.

    One multinomial draw of m over the exact tally of
    enumerate_fractal_triangle_counts, shapes in sorted order, so every
    quadruple is equally likely and the cost does not grow with m.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if m >= 2**63:
        raise ValueError(f"need m < 2**63, got {m}")
    tally = sorted(enumerate_fractal_triangle_counts(sg).items())
    if not tally:
        raise SamplingStalled("no even-base quadruples exist at this level")
    shapes, counts = zip(*tally)
    counts = np.asarray(counts, dtype=np.float64)
    drawn = rng.multinomial(m, counts / counts.sum())
    return {shape: k for shape, k in zip(shapes, drawn.tolist()) if k}


def solve_shapes(counts, edge_scale, level):
    """([(K scaled by edge_scale^(-2 level), count)], rejected count) of a shape tally.

    ``counts`` maps (a,b,c) hop triples to counts.  The sorted shapes go to
    ``solve_triangles`` as side arrays; solved shapes come in that order,
    and the counts of shapes without a root are summed.
    """
    if not 0 < edge_scale < math.inf:
        raise ValueError(f"edge_scale must be finite and > 0, got {edge_scale!r}")
    if abs(2 * level * math.log10(edge_scale)) > _SCALE_DECADES:
        raise ValueError(f"edge_scale ** (-2 * level) must lie in [1e-{_SCALE_DECADES}, "
                         f"1e{_SCALE_DECADES}], got {edge_scale!r} ** {-2 * level}")
    scale = float(edge_scale) ** (-2 * level)
    shapes = sorted(counts)
    ks, _ = solve_triangles(*np.array(shapes, dtype=np.float64).reshape(-1, 3).T)
    tally = list(zip(ks.tolist(), (counts[shape] for shape in shapes)))
    return ([(k * scale, cnt) for k, cnt in tally if not math.isnan(k)],
            sum(cnt for k, cnt in tally if math.isnan(k)))


def fractal_curvature_stats(counts, edge_scale, level):
    """Statistics of the curvature distribution, scaled by edge_scale^(-2n).

    Choosing edge length edge_scale^n at iteration n rescales every
    curvature by edge_scale^(-2n); edge_scale = 1 reproduces the raw
    unit-edge statistics.  ``counts`` maps (a,b,c) hop triples to counts.
    """
    solved, rejected = solve_shapes(counts, edge_scale, level)
    ks, weights = zip(*solved) if solved else ((), ())
    total = int(sum(weights))
    if total == 0:
        return {"count": 0, "mean": None, "median": None, "stdDev": None,
                "rejected": rejected, "empty": True}
    ks = np.asarray(ks)
    weights = np.asarray(weights, dtype=np.float64)
    mean = float(np.average(ks, weights=weights))
    var = float(np.average((ks - mean) ** 2, weights=weights))
    order = np.argsort(ks)
    cum = np.cumsum(weights[order])
    median = float(ks[order][np.searchsorted(cum, 0.5 * total)])
    return {"count": total, "mean": mean, "median": median,
            "stdDev": float(np.sqrt(var)), "rejected": rejected, "empty": False}
