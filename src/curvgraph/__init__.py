"""Discrete sectional curvature estimation on graphs.

Estimates the sectional curvature of path metric spaces by solving the
generalized cosine rule on approximate right triangles, validates the
estimator on low-distortion random geometric graphs sprinkled onto
constant-curvature manifolds, and applies it to earth-radius estimation
and Sierpinski fractal curvature distributions.
"""

from .converge import ConvergencePoint, linear_fit, run_sweep, sweep_report
from .curvature import (
    CurvatureReport,
    curvature_from_triangle,
    estimate_curvature,
    hop_window,
    ricci_scalar_from_mean_sectional,
    sample_triangle,
    vertex_curvature,
)
from .distortion import (
    DistortionReport,
    distortion_report,
    effective_edge_length,
    embedding_log_ratios,
    metric_distortion,
)
from .earth import (
    EarthRadiusReport,
    earth_spheroid,
    estimate_earth_radius,
    expected_radius_pdf,
    ks_distance_to_expected,
    sample_spheroid_triangle,
)
from .fractal import (
    SierpinskiGraph,
    enumerate_fractal_triangle_counts,
    fractal_curvature_stats,
    sample_fractal_triangle_counts,
    sierpinski_graph,
)
from .graphs import (
    GeometricGraph,
    Graph,
    UNREACHABLE,
    bfs_hops,
    diameter_estimate,
    is_connected,
    load_edge_list,
    load_geometric_graph,
    save_edge_list,
    save_geometric_graph,
)
from .manifolds import (
    EuclideanDisk,
    HyperbolicDisk,
    Manifold,
    Sphere2,
    Sphere3,
    Spheroid,
    manifold_from_json,
)
from .sprinkle import build_annulus_graph, min_connection_length, sprinkle
from .wolfram import ball_profile, estimate_wolfram, wolfram_ricci_K

__version__ = "0.1.0"
