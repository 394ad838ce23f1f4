"""Metric distortion of a geometric graph against its manifold.

For vertex pairs (u, v) the embedding ratio is the manifold distance
divided by the hop count.  The effective edge length is the geometric
mean of the ratios (the scale converting hops to physical length) and
the distortion is the mean absolute deviation of their logs: zero iff
the graph metric is an exact rescaling of the manifold metric on the
sampled pairs.

Diagonal terms (u = v) are excluded.  With the all-pairs normalization
over |G|^2 terms they would contribute log 1 = 0 and only inflate the
denominator, so reported distortions sit a factor (1 - 1/|G|) above that
convention; negligible for the graph sizes used here.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import Disconnected, EmptyInput
from .graphs import UNREACHABLE, bfs_hops

# Full all-pairs ratios are quadratic in V; above this size a fixed sample
# of BFS sources estimates the same statistics to ~1%.
FULL_SOURCE_LIMIT = 2000
SAMPLED_SOURCES = 64


@dataclass
class DistortionReport:
    pair_count: int
    effective_edge_length: float
    distortion: float
    sources: list = field(default_factory=list)

    def to_json(self):
        return {
            "pairCount": self.pair_count,
            "effectiveEdgeLength": self.effective_edge_length,
            "distortion": self.distortion,
            "sources": [int(s) for s in self.sources],
        }


def embedding_log_ratios(gg, sources):
    """log(manifold distance / hop distance) for each source and every
    other reachable vertex.

    Raises Disconnected when a source fails to reach some vertex.
    """
    if len(sources) == 0:
        raise EmptyInput("need at least one source vertex")
    logs = []
    for s in sources:
        hops = bfs_hops(gg.graph, int(s))
        if np.any(hops == UNREACHABLE):
            raise Disconnected("distortion requires a connected graph")
        dm = gg.manifold.distances_from(gg.coordinates[int(s)], gg.coordinates)
        mask = hops > 0
        logs.append(np.log(dm[mask] / hops[mask].astype(np.float64)))
    return np.concatenate(logs)


def effective_edge_length(log_ratios):
    """Geometric mean of the embedding ratios."""
    log_ratios = np.asarray(log_ratios)
    if log_ratios.size == 0:
        raise EmptyInput("no embedding ratios")
    return float(np.exp(log_ratios.mean()))


def metric_distortion(log_ratios):
    """Mean absolute deviation of the log embedding ratios."""
    log_ratios = np.asarray(log_ratios)
    if log_ratios.size == 0:
        raise EmptyInput("no embedding ratios")
    return float(np.abs(log_ratios - log_ratios.mean()).mean())


def default_sources(vertex_count, rng, count=None):
    """All vertices when ``count`` covers them, else a sorted random sample of ``count``.

    Without ``count``, every vertex up to FULL_SOURCE_LIMIT and
    SAMPLED_SOURCES of them above it.
    """
    if count is None:
        count = vertex_count if vertex_count <= FULL_SOURCE_LIMIT else SAMPLED_SOURCES
    if count >= vertex_count:
        return np.arange(vertex_count)
    return np.sort(rng.choice(vertex_count, size=count, replace=False))


def distortion_report(gg, rng=None, sources=None):
    """Compute the distortion report and cache l_e on the graph."""
    if sources is None:
        if rng is None:
            raise ValueError("need rng when sources are not given")
        sources = default_sources(gg.vertex_count, rng)
    sources = np.asarray(sources, dtype=np.int64)
    logs = embedding_log_ratios(gg, sources)
    l_e = effective_edge_length(logs)
    gg.effective_edge_length = l_e
    return DistortionReport(
        pair_count=int(logs.size),
        effective_edge_length=l_e,
        distortion=metric_distortion(logs),
        sources=sources.tolist(),
    )
