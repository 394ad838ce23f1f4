"""Oracles for the Sierpinski even-base triangle enumeration."""
import numpy as np

from curvgraph import bfs_hops


def brute_force_counts(sg):
    """{(a,b,c): count} over all (u, {v,w}, m) quadruples, by an O(V^4) loop.

    Independent of the pair table: only ``bfs_hops`` rows and the
    definition (d(u,v) = d(u,w) = c, d(v,w) = 2b >= 2, m a midpoint of
    {v,w}, a = d(u,m) >= 1, strict triangle inequalities).
    """
    n = sg.graph.vertex_count
    dist = [list(map(int, bfs_hops(sg.graph, v))) for v in range(n)]
    counts = {}
    for v in range(n):
        for w in range(v + 1, n):
            dvw = dist[v][w]
            if dvw < 2 or dvw % 2:
                continue
            half = dvw // 2
            for m in range(n):
                if dist[v][m] != half or dist[w][m] != half:
                    continue
                for u in range(n):
                    c = dist[u][v]
                    if dist[u][w] != c:
                        continue
                    a = dist[u][m]
                    if a >= 1 and a < half + c and half < a + c and c < a + half:
                        key = (a, half, c)
                        counts[key] = counts.get(key, 0) + 1
    return counts


def full_pair_counts(sg):
    """{(a,b,c): count} with every even-base pair expanded on its own.

    No symmetry and no pair table: for each pair v < w at even hop distance
    2b, every midpoint m and every apex u equidistant from v and w, found
    with whole-row masks of the all-pairs hops, one pair at a time.
    """
    hops = sg.all_hops()
    side = 2**sg.level + 1  # every hop distance is below this
    totals = np.zeros(side**3, dtype=np.int64)
    for v, w in zip(*np.nonzero(np.triu((hops % 2 == 0) & (hops >= 2), 1))):
        b = hops[v, w] // 2
        mids = np.flatnonzero((hops[v] == b) & (hops[w] == b))
        apexes = np.flatnonzero(hops[v] == hops[w])
        a, c = hops[np.ix_(apexes, mids)], hops[v, apexes][:, None]
        ok = (a >= 1) & (a < b + c) & (b < a + c) & (c < a + b)
        np.add.at(totals, ((a * side + b) * side + np.broadcast_to(c, a.shape))[ok], 1)
    keys = np.flatnonzero(totals)
    return {(int(k // side**2), int(k // side % side), int(k % side)): int(totals[k])
            for k in keys}
