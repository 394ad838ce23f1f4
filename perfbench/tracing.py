"""Spans around calls into curvgraph's public functions, from outside.

``Tracer.install`` replaces each traced function in every curvgraph module
that binds it (and each traced method on its class) with a wrapper that
records a span: name, start, end, the index of the enclosing span and
whether the call returned.  Spans stay in memory; ``layer_metrics`` turns
them into the per-layer metrics and ``write`` saves them when the run ends.
``uninstall`` restores the originals, so an untraced call runs the
program's own code with nothing in between.
"""

import gzip
import json
import sys
import time

# (span name, module, attribute path).  A function is wrapped in every
# curvgraph module that binds it; a method is wrapped on its class.
FUNCTIONS = [
    ("sprinkle.pairwise_distances", "curvgraph.sprinkle", "pairwise_distances"),
    ("sprinkle.min_connection_length", "curvgraph.sprinkle", "min_connection_length"),
    ("sprinkle.build_annulus_graph", "curvgraph.sprinkle", "build_annulus_graph"),
    ("graphs.bfs_hops", "curvgraph.graphs", "bfs_hops"),
    ("graphs.load_geometric_graph", "curvgraph.graphs", "load_geometric_graph"),
    ("graphs.save_geometric_graph", "curvgraph.graphs", "save_geometric_graph"),
    ("distortion.distortion_report", "curvgraph.distortion", "distortion_report"),
    ("curvature.estimate_curvature", "curvgraph.curvature", "estimate_curvature"),
    ("curvature.sample_triangle", "curvgraph.curvature", "sample_triangle"),
    ("curvature.curvature_from_triangle", "curvgraph.curvature", "curvature_from_triangle"),
    ("wolfram.estimate_wolfram", "curvgraph.wolfram", "estimate_wolfram"),
    ("wolfram.ball_profile", "curvgraph.wolfram", "ball_profile"),
    ("wolfram.wolfram_ricci_K", "curvgraph.wolfram", "wolfram_ricci_K"),
    ("earth.estimate_earth_radius", "curvgraph.earth", "estimate_earth_radius"),
    ("earth.sample_spheroid_triangle", "curvgraph.earth", "sample_spheroid_triangle"),
    ("fractal.sierpinski_graph", "curvgraph.fractal", "sierpinski_graph"),
    ("fractal.enumerate_fractal_triangle_counts", "curvgraph.fractal",
     "enumerate_fractal_triangle_counts"),
    ("fractal.fractal_curvature_stats", "curvgraph.fractal", "fractal_curvature_stats"),
    ("cli.main", "curvgraph.cli", "main"),
]
METHODS = [
    ("manifolds.distances_from", "curvgraph.manifolds", "_EmbeddedSphere.distances_from"),
    ("manifolds.distances_from", "curvgraph.manifolds", "HyperbolicDisk.distances_from"),
    ("manifolds.distances_from", "curvgraph.manifolds", "EuclideanDisk.distances_from"),
    ("manifolds.distances_from", "curvgraph.manifolds", "Spheroid.distances_from"),
    ("manifolds.spheroid_distance", "curvgraph.manifolds", "Spheroid.distance"),
    ("manifolds.spheroid_direct", "curvgraph.manifolds", "Spheroid.direct"),
    ("manifolds.spheroid_sample_point", "curvgraph.manifolds", "Spheroid.sample_point"),
    ("graphs.Graph.__init__", "curvgraph.graphs", "Graph.__init__"),
    ("fractal.all_hops", "curvgraph.fractal", "SierpinskiGraph.all_hops"),
]


def _shape_counts(result):
    return {"quadruples": int(sum(result.values())), "shapes": len(result)}


# Extra counts recorded from a call's return value.
RESULT_COUNTS = {"fractal.enumerate_fractal_triangle_counts": _shape_counts}


class Tracer:
    def __init__(self):
        # one tuple per span: (name, start, end, parent index or -1, returned, counts)
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counts_of = RESULT_COUNTS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            returned, counts = False, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                if counts_of is not None:
                    counts = counts_of(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, returned, counts)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "curvgraph" or key.startswith("curvgraph."))]
        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._restore.append((module, attr, original, True))
                    setattr(module, attr, wrapper)
        for name, module_name, path in METHODS:
            cls_name, attr = path.split(".")
            cls = getattr(sys.modules[module_name], cls_name)
            own = attr in cls.__dict__
            original = getattr(cls, attr)
            self._restore.append((cls, attr, original, own))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original, own in reversed(self._restore):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore = []

    def extend(self, spans):
        """Append spans recorded by another process, keeping their nesting."""
        offset = len(self.spans)
        for name, start, end, parent, returned, counts in spans:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1,
                               returned, counts))

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def read_spans(path):
    with gzip.open(path, "rt") as fh:
        return [tuple(json.loads(line)) for line in fh]


class SpanIndex:
    """Spans grouped by name, with each span's self time."""

    def __init__(self, spans):
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.spans = spans
        self.by_name = {}
        for i, span in enumerate(spans):
            self.by_name.setdefault(span[0], []).append(i)
        self.self_time = [span[2] - span[1] - child_time[i] for i, span in enumerate(spans)]

    def ids(self, name, parent=None, returned=None):
        out = self.by_name.get(name, [])
        if parent is not None:
            out = [i for i in out if self.spans[i][3] >= 0
                   and self.spans[self.spans[i][3]][0] == parent]
        if returned is not None:
            out = [i for i in out if self.spans[i][4] == returned]
        return out

    def count(self, name, **kw):
        return len(self.ids(name, **kw))

    def total(self, name, **kw):
        return sum(self.spans[i][2] - self.spans[i][1] for i in self.ids(name, **kw))

    def self_total(self, name):
        return sum(self.self_time[i] for i in self.ids(name))

    def counted(self, name, key):
        return sum(self.spans[i][5][key] for i in self.ids(name, returned=True))


def _ratio(num, den):
    return num / den if den else 0.0


# name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "manifolds.distances_from_calls": "count",
    "manifolds.distances_from_s": "s",
    "manifolds.spheroid_direct_calls": "count",
    "manifolds.spheroid_direct_s": "s",
    "manifolds.spheroid_distance_calls": "count",
    "manifolds.spheroid_distance_s": "s",
    "sprinkle.pairwise_s": "s",
    "sprinkle.search_self_s": "s",
    "sprinkle.search_builds": "count",
    "sprinkle.builds": "count",
    "sprinkle.build_s": "s",
    "graphs.bfs_rows": "count",
    "graphs.bfs_s": "s",
    "graphs.bfs_row_us": "us",
    "graphs.graph_init_s": "s",
    "graphs.load_s": "s",
    "graphs.save_s": "s",
    "distortion.report_s": "s",
    "curvature.triangles": "count",
    "curvature.triangle_self_s": "s",
    "curvature.rows_per_triangle": "ratio",
    "curvature.accept_ratio": "ratio",
    "curvature.root_solves": "count",
    "curvature.root_s": "s",
    "curvature.root_us": "us",
    "wolfram.fits": "count",
    "wolfram.fit_s": "s",
    "wolfram.profile_s": "s",
    "earth.triangles": "count",
    "earth.triangle_s": "s",
    "earth.attempts_per_triangle": "ratio",
    "fractal.graph_s": "s",
    "fractal.all_hops_s": "s",
    "fractal.enumerate_self_s": "s",
    "fractal.stats_s": "s",
    "fractal.quadruples": "count",
    "fractal.shapes": "count",
    "cli.self_s": "s",
}


def layer_metrics(spans):
    """The per-layer metrics of LAYER_UNITS from a list of spans."""
    ix = SpanIndex(spans)
    bfs_rows = ix.count("graphs.bfs_hops")
    triangles = ix.count("curvature.sample_triangle", returned=True)
    roots = ix.count("curvature.curvature_from_triangle")
    earth_triangles = ix.count("earth.sample_spheroid_triangle", returned=True)
    values = {
        "manifolds.distances_from_calls": ix.count("manifolds.distances_from"),
        "manifolds.distances_from_s": ix.total("manifolds.distances_from"),
        "manifolds.spheroid_direct_calls": ix.count("manifolds.spheroid_direct"),
        "manifolds.spheroid_direct_s": ix.total("manifolds.spheroid_direct"),
        "manifolds.spheroid_distance_calls": ix.count("manifolds.spheroid_distance"),
        "manifolds.spheroid_distance_s": ix.total("manifolds.spheroid_distance"),
        "sprinkle.pairwise_s": ix.total("sprinkle.pairwise_distances"),
        "sprinkle.search_self_s": ix.self_total("sprinkle.min_connection_length"),
        "sprinkle.search_builds": ix.count("sprinkle.build_annulus_graph",
                                           parent="sprinkle.min_connection_length"),
        "sprinkle.builds": ix.count("sprinkle.build_annulus_graph"),
        "sprinkle.build_s": ix.total("sprinkle.build_annulus_graph"),
        "graphs.bfs_rows": bfs_rows,
        "graphs.bfs_s": ix.total("graphs.bfs_hops"),
        "graphs.bfs_row_us": 1e6 * _ratio(ix.total("graphs.bfs_hops"), bfs_rows),
        "graphs.graph_init_s": ix.total("graphs.Graph.__init__"),
        "graphs.load_s": ix.total("graphs.load_geometric_graph"),
        "graphs.save_s": ix.total("graphs.save_geometric_graph"),
        "distortion.report_s": ix.total("distortion.distortion_report"),
        "curvature.triangles": triangles,
        "curvature.triangle_self_s": ix.self_total("curvature.sample_triangle"),
        "curvature.rows_per_triangle": _ratio(
            ix.count("graphs.bfs_hops", parent="curvature.sample_triangle"), triangles),
        "curvature.accept_ratio": _ratio(
            ix.count("curvature.curvature_from_triangle", parent="curvature.estimate_curvature",
                     returned=True),
            ix.count("curvature.sample_triangle", parent="curvature.estimate_curvature")),
        "curvature.root_solves": roots,
        "curvature.root_s": ix.total("curvature.curvature_from_triangle"),
        "curvature.root_us": 1e6 * _ratio(ix.total("curvature.curvature_from_triangle"), roots),
        "wolfram.fits": ix.count("wolfram.wolfram_ricci_K"),
        "wolfram.fit_s": ix.total("wolfram.wolfram_ricci_K"),
        "wolfram.profile_s": ix.total("wolfram.ball_profile"),
        "earth.triangles": earth_triangles,
        "earth.triangle_s": ix.total("earth.sample_spheroid_triangle"),
        "earth.attempts_per_triangle": _ratio(
            ix.count("manifolds.spheroid_sample_point", parent="earth.sample_spheroid_triangle"),
            earth_triangles),
        "fractal.graph_s": ix.total("fractal.sierpinski_graph"),
        "fractal.all_hops_s": ix.total("fractal.all_hops"),
        "fractal.enumerate_self_s": ix.self_total("fractal.enumerate_fractal_triangle_counts"),
        "fractal.stats_s": ix.total("fractal.fractal_curvature_stats"),
        "fractal.quadruples": ix.counted("fractal.enumerate_fractal_triangle_counts",
                                         "quadruples"),
        "fractal.shapes": ix.counted("fractal.enumerate_fractal_triangle_counts", "shapes"),
        "cli.self_s": ix.self_total("cli.main"),
    }
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}
