"""Brute-force oracle for the Sierpinski even-base triangle enumeration."""
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
