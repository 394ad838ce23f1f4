"""
Curvature distributions of a fractal
====================================

Sierpinski triangle graphs have no length scale of their own, so with
unit edges the curvature distribution drifts as the iteration level
grows.  Exhaustive enumeration tallies the even-base isosceles
triangles by shape; sampling draws from that exact tally (uniform over
the same triangle population) in one multinomial draw.

Choosing edge lengths that shrink by a factor per level rescales every
curvature by edge_scale^(-2n), which can pin one chosen statistic to a
finite limit.
"""

import numpy as np

import curvgraph as cg
from curvgraph.rng import substream

print(f"{'n':>2} {'triangles':>10} {'mean K':>9} {'median':>8} {'std':>8}")
for level in range(1, 5):
    sg = cg.sierpinski_graph(level)
    counts = cg.enumerate_fractal_triangle_counts(sg)
    stats = cg.fractal_curvature_stats(counts, edge_scale=1.0, level=level)
    print(f"{level:>2} {stats['count']:>10} {stats['mean']:>9.3f} "
          f"{stats['median']:>8.3f} {stats['stdDev']:>8.3f}")

# Sampled statistics at level 6: a finite seeded sample of the exact tally.
sg = cg.sierpinski_graph(6)
counts = cg.sample_fractal_triangle_counts(sg, 200_000, substream(5, 0))
stats = cg.fractal_curvature_stats(counts, edge_scale=1.0, level=6)
print(f" 6 {stats['count']:>10} {stats['mean']:>9.3f} "
      f"{stats['median']:>8.3f} {stats['stdDev']:>8.3f}   (sampled)")

# Both signs occur: locally the graph looks positively curved around
# small triangles, while larger ones wrap the fractal's holes.
ks = np.array([cg.curvature_from_triangle(float(a), float(b), float(c))
               for (a, b, c) in counts])
w = np.array(list(counts.values()), dtype=float)
pos = w[ks > 0].sum() / w.sum()
print(f"\nlevel 6: {pos:.1%} of sampled triangles have K > 0")

# Rescaled edges: shrinking edges by 0.9 per level multiplies every K at
# level n by 0.9^(-2n).
scaled = cg.fractal_curvature_stats(counts, edge_scale=0.9, level=6)
print(f"with edge_scale 0.9: mean {scaled['mean']:.3f}, std {scaled['stdDev']:.3f}")
