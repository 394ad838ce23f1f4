"""Checks of the program's outputs against the computations in reference.py.

Each check returns a list of problems (strings); an empty list means the
output passed.  They read the stdout JSON and the files the commands wrote,
never a stored copy of an earlier run's output.
"""

import json
import math
from pathlib import Path

import jsonschema
import numpy as np

import reference

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "src" / "curvgraph" / "schemas"

# The annulus search's bracket: connected at l, not connected at l (1 - 1e-3).
BRACKET_REL = 1e-3
# Pairs this close (relative to l) to an annulus boundary may fall either
# way under rounding and are left out of the edge-set comparison.
BORDER_REL = 1e-9

SPHERE_SECTIONAL = (0.93, 1.07)
SPHERE_BALL_VOLUME = (0.5, 1.5)
EARTH_KS_MAX = 0.08
EARTH_MEAN_KM = 5.0
FRACTAL_MEAN_REL = 1e-9


def schema_problems(stdout, schema_name):
    """Problems with one line of JSON stdout against a package schema."""
    try:
        obj = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    with open(SCHEMA_DIR / f"{schema_name}.schema.json") as fh:
        schema = json.load(fh)
    errors = sorted(jsonschema.Draft202012Validator(schema).iter_errors(obj), key=str)
    return [f"schema {schema_name}: {e.message}" for e in errors]


def read_edge_list(path):
    """(vertex count, header edge count, sorted u * V + v keys with u < v)."""
    with open(path) as fh:
        header = fh.readline().split()
        body = np.array(fh.read().split(), dtype=np.int64)
    n, count = int(header[0]), int(header[1])
    pairs = body.reshape(-1, 2)
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    return n, count, np.sort(lo * n + hi)


def check_sprinkle(stdout, prefix, n, p):
    """One `sprinkle` output: annulus rule, bracket, l_e bound, edge count, schema."""
    problems = schema_problems(stdout, "sprinkle_summary")
    if problems:
        return problems
    summary = json.loads(stdout)
    with open(f"{prefix}.json") as fh:
        sidecar = json.load(fh)
    l, l_e = summary["connectionLength"], summary.get("effectiveEdgeLength")
    if summary["vertexCount"] != n or summary["tolerance"] != p or summary["out"] != prefix:
        problems.append(f"summary does not echo n={n}, p={p}, out={prefix}: {summary}")
    if sidecar["connection_length"] != l or len(sidecar["coordinates"]) != n:
        problems.append("sidecar disagrees with the summary on l or the vertex count")
    if l_e is None or not 0.0 < l_e <= l * (1.0 + p):
        problems.append(f"effective edge length {l_e} outside (0, l(1+p)] = (0, {l * (1 + p)}]")
    vcount, header_count, stored = read_edge_list(f"{prefix}.edges")
    if vcount != n or header_count != summary["edgeCount"] or stored.size != header_count:
        problems.append(f"edge list has V={vcount}, header E={header_count}, "
                        f"{stored.size} lines; summary says E={summary['edgeCount']}")
    if np.unique(stored).size != stored.size:
        problems.append("edge list repeats an edge")
    problems += annulus_problems(sidecar["manifold"], sidecar["coordinates"], p, l, stored)
    return problems


def annulus_problems(manifold, coords, p, l, stored_keys):
    """Edge set and bracket property of an annulus graph at length l."""
    problems = []
    n = len(coords)
    lower = l * (1.0 - BRACKET_REL)
    window = reference.PairWindow(manifold, coords, p, lower, l)
    keys = window.i * n + window.j
    rule = window.edges(l)
    border = window.borderline(l, BORDER_REL)
    extra = np.setdiff1d(stored_keys, keys[rule | border])
    missing = np.setdiff1d(keys[rule & ~border], stored_keys)
    if extra.size:
        u, v = divmod(int(extra[0]), n)
        problems.append(f"{extra.size} stored edges break |d - l| <= l p, e.g. ({u}, {v})")
    if missing.size:
        u, v = divmod(int(missing[0]), n)
        problems.append(f"{missing.size} pairs obey |d - l| <= l p but are not stored, "
                        f"e.g. ({u}, {v})")
    if not window.connected(l):
        problems.append(f"annulus graph is not connected at l = {l!r}")
    if window.connected(lower):
        problems.append(f"annulus graph is still connected at l (1 - {BRACKET_REL}) = {lower!r}")
    return problems


def rejection_total(report):
    return sum(report["rejected"].values())


def check_report_counts(stdout, schema_name, asked):
    """count + rejections == samples or centres asked for."""
    problems = schema_problems(stdout, schema_name)
    if problems:
        return problems
    report = json.loads(stdout)
    if report["count"] + rejection_total(report) != asked:
        problems.append(f"count {report['count']} + rejections {rejection_total(report)} "
                        f"!= {asked} asked for")
    return problems


def pooled_mean(reports):
    """Count-weighted mean of report means."""
    total = sum(r["count"] for r in reports)
    return sum(r["count"] * r["mean"] for r in reports) / total


def check_estimate_pool(sphere_curv, hyp_curv, sphere_ball):
    """Run-level bounds on the curvature and ball-volume reports."""
    problems = []
    lo, hi = SPHERE_SECTIONAL
    mean = pooled_mean(sphere_curv)
    if not lo <= mean <= hi:
        problems.append(f"pooled sphere sectional mean {mean} outside [{lo}, {hi}]")
    mean = pooled_mean(hyp_curv)
    if not mean < 0.0:
        problems.append(f"pooled hyperbolic sectional mean {mean} is not negative")
    lo, hi = SPHERE_BALL_VOLUME
    mean = pooled_mean(sphere_ball)
    if not lo <= mean <= hi:
        problems.append(f"pooled sphere ball-volume mean {mean} outside [{lo}, {hi}]")
    return problems


def check_earth(stdout, samples):
    problems = schema_problems(stdout, "earth_summary")
    if problems:
        return problems
    report = json.loads(stdout)
    ks = report.get("ksDistanceToExpectedPdf")
    if ks is None or not ks < EARTH_KS_MAX:
        problems.append(f"KS distance {ks} not below {EARTH_KS_MAX}")
    if report["rejectedOther"] != 0:
        problems.append(f"rejectedOther = {report['rejectedOther']}")
    if report["n"] + report["rejectedNegativeK"] + report["rejectedOther"] != samples:
        problems.append(f"n + rejections != {samples} samples")
    return problems


def check_earth_pool(reports, equatorial, polar):
    total = sum(r["n"] for r in reports)
    mean = sum(r["n"] * r["mean"] for r in reports) / total
    expected = reference.mean_gaussian_radius(equatorial, polar)
    if abs(mean - expected) > EARTH_MEAN_KM:
        return [f"pooled mean radius {mean} km is more than {EARTH_MEAN_KM} km from "
                f"the mean Gaussian radius {expected} km"]
    return []


def fractal_expectation(level):
    """(quadruple count, shape count, count-weighted mean curvature)."""
    shapes = reference.sierpinski_shapes(level)
    counts = np.array(list(shapes.values()), dtype=np.float64)
    ks = np.array([reference.cosine_rule_curvature(*map(float, key)) for key in shapes])
    return int(counts.sum()), len(shapes), float((counts * ks).sum() / counts.sum())


def check_fractal(stdout, csv_path, expectation):
    quadruples, _, mean = expectation
    problems = schema_problems(stdout, "fractal_stats")
    if problems:
        return problems
    stats = json.loads(stdout)
    if stats["count"] + stats["rejected"] != quadruples:
        problems.append(f"count {stats['count']} + rejected {stats['rejected']} != "
                        f"{quadruples} enumerated quadruples")
    got = stats["mean"]
    if got is None or not math.isclose(got, mean, rel_tol=FRACTAL_MEAN_REL, abs_tol=0.0):
        problems.append(f"mean {got!r} differs from the cosine-rule mean {mean!r} "
                        f"by more than {FRACTAL_MEAN_REL} relative")
    with open(csv_path) as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != stats["count"]:
        problems.append(f"CSV has {rows} rows for count {stats['count']}")
    return problems


def check_repeat(first, second):
    """Identical bytes from the same command run twice."""
    if first != second:
        return [f"repeat differs: {first[:200]!r} vs {second[:200]!r}"]
    return []


def trace_problems(spans, outputs, fractal_shapes=None):
    """The traced run's two independent totals.

    ``outputs`` holds (argv, stdout) of every traced command.  BFS rows made
    inside `sample_triangle` are at least three per triangle the curvature
    reports count as constructed, and the root solves under each caller
    equal the solves its reports account for: accepted samples plus root and
    triangle-inequality rejections for `curvature`, accepted radii plus
    negative-K rejections for `earth`, and one solve per distinct shape of
    the benchmark's own enumeration in the fractal statistics and again in
    the fractal CSV writer.
    """
    import tracing

    constructed = 0
    solves = {"curvature.estimate_curvature": 0, "earth.estimate_earth_radius": 0,
              "fractal.fractal_curvature_stats": 0, "cli.main": 0}
    for argv, stdout in outputs:
        report = json.loads(stdout)
        if argv[0] == "curvature":
            rejected = report["rejected"]
            samples = int(argv[argv.index("--samples") + 1])
            constructed += samples - rejected.get("no_candidate", 0)
            solves["curvature.estimate_curvature"] += (
                report["count"] + rejected.get("triangle_inequality", 0)
                + rejected.get("root_not_found", 0))
        elif argv[0] == "earth":
            solves["earth.estimate_earth_radius"] += report["n"] + report["rejectedNegativeK"]
        elif argv[0] == "fractal":
            solves["fractal.fractal_curvature_stats"] += fractal_shapes
            if "--out" in argv:
                solves["cli.main"] += fractal_shapes
    problems = []
    index = tracing.SpanIndex(spans)
    rows = index.count("graphs.bfs_hops", parent="curvature.sample_triangle")
    if rows < 3 * constructed:
        problems.append(f"{rows} BFS rows in sample_triangle for {constructed} constructed "
                        "triangles, fewer than three each")
    for parent, expected in solves.items():
        got = index.count("curvature.curvature_from_triangle", parent=parent)
        if got != expected:
            problems.append(f"{got} root solves under {parent}, reports account for {expected}")
    total = index.count("curvature.curvature_from_triangle")
    if total != sum(solves.values()):
        problems.append(f"{total} root solves in all, reports account for {sum(solves.values())}")
    return problems
