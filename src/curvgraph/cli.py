"""Command-line entry point for all experiments.

Every subcommand takes a 64-bit ``--seed`` and is fully deterministic:
random sub-streams are derived from (seed, stream index), so output is
byte-identical across runs.  ``--threads`` is still accepted and has no
effect: all work runs serially.  Results are data only (JSON on stdout,
optional CSV files); errors exit nonzero with a JSON object on stderr.
"""

import argparse
import json
import math
import sys

from .converge import run_sweep, sweep_csv, sweep_report
from .curvature import estimate_curvature, hop_window, vertex_curvature, write_column_csv
from .distortion import default_sources, distortion_report
from .earth import DEFAULT_LEG_RANGE_KM, EARTH_EQUATORIAL_KM, EARTH_POLAR_KM
from .earth import estimate_earth_radius
from .errors import CurvGraphError, Disconnected, InvalidInput
from .fractal import (
    enumerate_fractal_triangle_counts,
    fractal_curvature_stats,
    require_all_pairs,
    sample_fractal_triangle_counts,
    sierpinski_graph,
    solve_shapes,
)
from .graphs import is_connected, load_geometric_graph, save_geometric_graph
from .manifolds import Spheroid, manifold_from_json
from .rng import substream
from .sprinkle import sprinkle
from .wolfram import estimate_wolfram

SCHEMA_VERSION = 1

# fixed per-command stream tags: every command draws from its own stream
_TAG = {"sprinkle": 0, "distortion": 1, "curvature": 2, "wolfram": 3,
        "converge": 4, "fractal": 5, "earth": 6}


def _emit(obj):
    obj = {"schemaVersion": SCHEMA_VERSION, **obj}
    # a non-finite value raises ValueError (the error contract), never prints NaN
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    sys.stdout.write(text + "\n")


def _require_at_least(flag, value, least=1):
    if value < least:
        raise InvalidInput(f"{flag} must be at least {least}, got {value}")


def _parse_counts(text):
    """``--counts``: a non-empty comma-separated list of vertex counts >= 2."""
    try:
        counts = [int(c) for c in text.split(",") if c]
    except ValueError:
        counts = []
    if not counts or min(counts) < 2:
        raise InvalidInput(f"--counts must be a non-empty comma-separated list of integers "
                           f">= 2, got {text!r}")
    return counts


def _parse_manifold(text):
    """Inline JSON or a path to a JSON file."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        with open(text) as fh:
            obj = json.load(fh)
    return manifold_from_json(obj)


def _load_graph(prefix, seed):
    """Load a geometric graph, filling in l_e if the sidecar lacks it."""
    gg = load_geometric_graph(prefix)
    if gg.effective_edge_length is None:
        distortion_report(gg, rng=substream(seed, _TAG["distortion"], 1))
    return gg


def _cmd_sprinkle(args):
    _require_at_least("--n", args.n, 2)
    if not 0 < args.p <= 1:
        raise InvalidInput(f"--p must be in (0, 1], got {args.p}")
    if args.l is not None and not 0 < args.l < math.inf:
        raise InvalidInput(f"--l must be finite and > 0, got {args.l}")
    manifold = _parse_manifold(args.manifold)
    rng = substream(args.seed, _TAG["sprinkle"])
    gg = sprinkle(manifold, args.n, args.p, rng=rng, l_override=args.l)
    if args.l is not None and not is_connected(gg.graph):
        held = "leaves the graph disconnected" if gg.graph.edge_count else "holds no pair of points"
        raise Disconnected(f"--l {args.l}: the annulus [l(1-p), l(1+p)] = "
                           f"[{args.l * (1 - args.p):.6g}, {args.l * (1 + args.p):.6g}] {held}")
    distortion_report(gg, rng=substream(args.seed, _TAG["sprinkle"], 1))
    save_geometric_graph(gg, args.out)
    _emit({
        "out": args.out,
        "vertexCount": gg.vertex_count,
        "edgeCount": gg.graph.edge_count,
        "connectionLength": gg.connection_length,
        "tolerance": gg.tolerance,
        "effectiveEdgeLength": gg.effective_edge_length,
    })


def _cmd_distortion(args):
    if args.sources is not None:
        _require_at_least("--sources", args.sources)
    gg = load_geometric_graph(args.graph)
    sources = default_sources(gg.vertex_count, substream(args.seed, _TAG["distortion"]),
                              args.sources)
    rep = distortion_report(gg, sources=sources)
    _emit(rep.to_json())


def _cmd_curvature(args):
    _require_at_least("--samples", args.samples)
    for flag, hops in (("--smin", args.smin), ("--smax", args.smax)):
        if hops is not None:
            _require_at_least(flag, hops, 2)
    if None not in (args.smin, args.smax) and args.smin > args.smax:
        raise InvalidInput(f"--smin must not exceed --smax, got {args.smin} > {args.smax}")
    if args.per_vertex:
        unused = [flag for flag, given in (("--max-length", args.max_length is not None),
                                           ("--csv", args.csv is not None),
                                           ("--include-samples", args.include_samples)) if given]
        if unused:
            raise InvalidInput(f"--per-vertex does not take {', '.join(unused)}")
    gg = _load_graph(args.graph, args.seed)
    rng = substream(args.seed, _TAG["curvature"])
    # an end not given comes from the graph, drawn as the estimators would draw it
    s_min, s_max = hop_window(gg.graph, rng, args.smin, args.smax)
    if s_min > s_max:
        raise InvalidInput(f"--smin and --smax leave the empty hop window (s_min, s_max) = "
                           f"({s_min}, {s_max}); an end not given is this graph's default")
    l_e = gg.effective_edge_length
    if args.per_vertex:
        per_vertex = vertex_curvature(gg.graph, l_e, args.samples, s_min, s_max, rng)
        _emit({
            "estimator": "sectional-vertex",
            "effectiveEdgeLength": l_e,
            "perVertex": [None if math.isnan(k) else k for k in per_vertex],
        })
        return
    rep = estimate_curvature(
        gg.graph, l_e, args.samples, s_min_hops=s_min, s_max_hops=s_max,
        rng=rng, max_length_scale=args.max_length,
    )
    if args.csv:
        rep.write_csv(args.csv)
    _emit({"effectiveEdgeLength": l_e, **rep.to_json(include_samples=args.include_samples)})


def _cmd_wolfram(args):
    _require_at_least("--vertices", args.vertices)
    gg = _load_graph(args.graph, args.seed)
    rng = substream(args.seed, _TAG["wolfram"])
    rep = estimate_wolfram(gg.graph, gg.effective_edge_length, args.vertices, rng)
    _emit({"effectiveEdgeLength": gg.effective_edge_length, **rep.to_json()})


def _cmd_converge(args):
    counts = _parse_counts(args.counts)
    _require_at_least("--seeds-per", args.seeds_per)
    _require_at_least("--samples", args.samples)
    if not math.isfinite(args.true_k):
        raise InvalidInput(f"--true-k must be finite, got {args.true_k}")
    manifold = _parse_manifold(args.manifold)
    points = run_sweep(manifold, args.true_k, counts, args.seeds_per, args.samples,
                       master_seed=args.seed)
    if args.csv:
        sweep_csv(points, args.csv)
    _emit(sweep_report(points, args.true_k))


def _cmd_fractal(args):
    rng = substream(args.seed, _TAG["fractal"])
    # both draws enumerate the tally, which needs all-pairs hops: refuse a
    # level they cannot take before its graph is built
    require_all_pairs(args.level)
    sg = sierpinski_graph(args.level)
    if args.exact:
        counts = enumerate_fractal_triangle_counts(sg)
    else:
        counts = sample_fractal_triangle_counts(sg, args.samples, rng)
    stats = fractal_curvature_stats(counts, args.edge_scale, args.level)
    if args.out:
        write_column_csv(f"{args.out}.csv", "K",
                         solve_shapes(counts, args.edge_scale, args.level)[0])
    _emit({"n": args.level, "edgeScale": args.edge_scale, **stats})


def _cmd_earth(args):
    _require_at_least("--samples", args.samples)
    rng = substream(args.seed, _TAG["earth"])
    spheroid = Spheroid(args.equatorial, args.polar)
    rep = estimate_earth_radius(
        spheroid, n_samples=args.samples,
        leg_range=(args.leg_min, args.leg_max),
        max_length_scale=args.max_length, rng=rng,
    )
    if args.out:
        rep.write_csv(f"{args.out}.csv")
    _emit(rep.to_json())


def build_parser():
    parser = argparse.ArgumentParser(
        prog="curvgraph",
        description="Discrete sectional curvature experiments on graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, threads=False):
        p.add_argument("--seed", type=int, required=True, help="64-bit master seed")
        if threads:
            p.add_argument("--threads", type=int, default=None,
                           help="accepted for compatibility; has no effect (runs are serial)")

    p = sub.add_parser("sprinkle", help="build an annulus random geometric graph")
    p.add_argument("--manifold", required=True, help="manifold JSON or a file path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=0.25)
    p.add_argument("--l", type=float, default=None, help="override the connection length")
    p.add_argument("--out", required=True, help="output prefix (.edges/.json)")
    add_common(p)
    p.set_defaults(func=_cmd_sprinkle)

    p = sub.add_parser("distortion", help="metric distortion of a stored graph")
    p.add_argument("--graph", required=True, help="graph prefix")
    p.add_argument("--sources", type=int, default=None)
    add_common(p)
    p.set_defaults(func=_cmd_distortion)

    p = sub.add_parser("curvature", help="sectional curvature report")
    p.add_argument("--graph", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--smin", type=int, default=None)
    p.add_argument("--smax", type=int, default=None)
    p.add_argument("--max-length", type=float, default=None)
    p.add_argument("--per-vertex", action="store_true")
    p.add_argument("--csv", default=None, help="write one K per row")
    p.add_argument("--include-samples", action="store_true")
    add_common(p, threads=True)
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("wolfram", help="ball-volume curvature report")
    p.add_argument("--graph", required=True)
    p.add_argument("--vertices", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_wolfram)

    p = sub.add_parser("converge", help="error-vs-distortion sweep")
    p.add_argument("--manifold", required=True)
    p.add_argument("--true-k", type=float, required=True)
    p.add_argument("--counts", required=True, help="comma-separated vertex counts")
    p.add_argument("--seeds-per", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--csv", default=None)
    add_common(p, threads=True)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("fractal", help="Sierpinski curvature distribution")
    p.add_argument("--level", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--exact", action="store_true")
    group.add_argument("--samples", type=int, default=None)
    p.add_argument("--edge-scale", type=float, default=1.0)
    p.add_argument("--out", default=None, help="CSV prefix for K samples")
    add_common(p)
    p.set_defaults(func=_cmd_fractal)

    p = sub.add_parser("earth", help="earth radius estimation")
    p.add_argument("--equatorial", type=float, default=EARTH_EQUATORIAL_KM)
    p.add_argument("--polar", type=float, default=EARTH_POLAR_KM)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--max-length", type=float, default=None)
    p.add_argument("--leg-min", type=float, default=DEFAULT_LEG_RANGE_KM[0])
    p.add_argument("--leg-max", type=float, default=DEFAULT_LEG_RANGE_KM[1])
    p.add_argument("--out", default=None, help="CSV prefix for radii")
    add_common(p)
    p.set_defaults(func=_cmd_earth)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (CurvGraphError, OSError, ValueError) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)},
            sort_keys=True, separators=(",", ":"),
        ) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
