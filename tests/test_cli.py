import contextlib
import io
import json
import math
import subprocess
import sys
import warnings
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cli_env import cli_env
from curvgraph import curvature_from_triangle, enumerate_fractal_triangle_counts, sierpinski_graph
from curvgraph.cli import main

jsonschema = pytest.importorskip("jsonschema")


def run_cli(*args, cwd=None, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "curvgraph.cli", *map(str, args)],
        capture_output=True, text=True, cwd=cwd, env=cli_env(),
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"CLI failed: {proc.stderr}")
    return proc


def load_schema(name):
    ref = resources.files("curvgraph") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text())


def validate(payload, schema_name):
    schema = load_schema(schema_name)
    resolver_store = {load_schema("manifold")["$id"]: load_schema("manifold")}
    registry = None
    try:
        from referencing import Registry, Resource

        registry = Registry().with_resources(
            (sid, Resource.from_contents(s)) for sid, s in resolver_store.items()
        )
        jsonschema.validators.validator_for(schema)(schema, registry=registry).validate(payload)
    except ImportError:
        jsonschema.validate(payload, schema)


FIXTURE_V = 500


def test_cli_import_leaves_out_scipy_stats():
    """Importing the CLI in a fresh interpreter loads no scipy.stats module.

    scipy.stats alone about doubles the start-up time of every CLI run.
    """
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, curvgraph, curvgraph.cli; print(*sys.modules)"],
        capture_output=True, text=True, env=cli_env(), check=True,
    )
    modules = proc.stdout.split()
    assert "curvgraph.cli" in modules
    assert [m for m in modules if m.startswith("scipy.stats")] == []


@pytest.fixture(scope="module")
def sphere_graph_prefix(tmp_path_factory):
    prefix = tmp_path_factory.mktemp("cli") / "s500"
    run_cli("sprinkle", "--manifold", '{"type":"sphere2","radius":1.0}',
            "--n", FIXTURE_V, "--p", 0.25, "--seed", 42, "--out", prefix)
    return prefix


def test_sprinkle_outputs(sphere_graph_prefix):
    prefix = sphere_graph_prefix
    edges = (prefix.parent / (prefix.name + ".edges")).read_text().splitlines()
    v, e = map(int, edges[0].split())
    assert v == FIXTURE_V and e == len(edges) - 1
    sidecar = json.loads((prefix.parent / (prefix.name + ".json")).read_text())
    validate(sidecar["manifold"], "manifold")
    validate(sidecar, "graph_sidecar")
    assert len(sidecar["coordinates"]) == FIXTURE_V


def test_sprinkle_deterministic_bytes(tmp_path):
    # identical arguments (relative prefix, fixed seed) from two different
    # working directories must produce byte-identical stdout and files
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        proc = run_cli("sprinkle", "--manifold", '{"type":"sphere2","radius":1.0}',
                       "--n", 150, "--p", 0.25, "--seed", 7, "--out", "g", cwd=d)
        outs.append((proc.stdout, (d / "g.edges").read_bytes(), (d / "g.json").read_bytes()))
    assert outs[0] == outs[1]


def test_manifold_from_file(tmp_path):
    mf = tmp_path / "m.json"
    mf.write_text('{"type":"euclidean","radius":1.5}')
    run_cli("sprinkle", "--manifold", mf, "--n", 80, "--p", 0.25,
            "--seed", 3, "--out", tmp_path / "e80")
    sidecar = json.loads((tmp_path / "e80.json").read_text())
    assert sidecar["manifold"]["type"] == "euclidean"


def test_distortion_schema_and_determinism(sphere_graph_prefix):
    p1 = run_cli("distortion", "--graph", sphere_graph_prefix, "--seed", 5)
    p2 = run_cli("distortion", "--graph", sphere_graph_prefix, "--seed", 5)
    assert p1.stdout == p2.stdout
    payload = json.loads(p1.stdout)
    validate(payload, "distortion_report")
    sub = run_cli("distortion", "--graph", sphere_graph_prefix, "--sources", 10, "--seed", 5)
    assert len(json.loads(sub.stdout)["sources"]) == 10


def test_curvature_schema_threads_csv(sphere_graph_prefix, tmp_path):
    csv1 = tmp_path / "k1.csv"
    p1 = run_cli("curvature", "--graph", sphere_graph_prefix, "--samples", 40,
                 "--seed", 9, "--threads", 1, "--csv", csv1)
    csv2 = tmp_path / "k2.csv"
    p2 = run_cli("curvature", "--graph", sphere_graph_prefix, "--samples", 40,
                 "--seed", 9, "--threads", 4, "--csv", csv2)
    assert p1.stdout == p2.stdout
    assert csv1.read_bytes() == csv2.read_bytes()
    payload = json.loads(p1.stdout)
    validate(payload, "curvature_report")
    csv_lines = csv1.read_text().splitlines()
    assert csv_lines[0] == "K"
    assert len(csv_lines) == payload["count"] + 1
    body = [float(line) for line in csv_lines[1:]]  # rows are plain floats
    assert sum(body) / len(body) == pytest.approx(payload["mean"], rel=1e-12)
    with_samples = run_cli("curvature", "--graph", sphere_graph_prefix, "--samples", 40,
                           "--seed", 9, "--include-samples")
    ws = json.loads(with_samples.stdout)
    validate(ws, "curvature_report")
    assert len(ws["samples"]) == ws["count"]


def test_curvature_per_vertex(sphere_graph_prefix):
    proc = run_cli("curvature", "--graph", sphere_graph_prefix, "--samples", 2,
                   "--per-vertex", "--seed", 11)
    payload = json.loads(proc.stdout)
    validate(payload, "vertex_curvature")
    assert len(payload["perVertex"]) == FIXTURE_V


def test_curvature_sample_count_error(sphere_graph_prefix):
    for samples in (0, -1):
        for mode in ((), ("--per-vertex",)):
            err = cli_error("curvature", "--graph", sphere_graph_prefix, "--samples", samples,
                            "--seed", 11, *mode)
            assert err["error"] == "InvalidInput", err
            assert err["message"] == f"--samples must be at least 1, got {samples}"


def test_wolfram_schema(sphere_graph_prefix):
    proc = run_cli("wolfram", "--graph", sphere_graph_prefix, "--vertices", 30, "--seed", 13)
    payload = json.loads(proc.stdout)
    validate(payload, "curvature_report")
    assert payload["estimator"] == "wolfram-ricci"


def test_converge_schema(tmp_path):
    csv = tmp_path / "sweep.csv"
    proc = run_cli("converge", "--manifold", '{"type":"sphere2","radius":1.0}',
                   "--true-k", 1.0, "--counts", "120,200", "--seeds-per", 1,
                   "--samples", 30, "--seed", 17, "--csv", csv)
    payload = json.loads(proc.stdout)
    validate(payload, "sweep_report")
    assert len(payload["points"]) == 2
    assert csv.read_text().startswith("vertexCount,")
    def reject(name):
        raise AssertionError(f"non-JSON constant {name}")

    # a count with no usable graph (too few vertices to connect) reports
    # null, not NaN: Python's parser and jsonschema would both accept NaN
    proc = run_cli("converge", "--manifold", '{"type":"sphere2","radius":1.0}',
                   "--true-k", 1.0, "--counts", "3,4", "--seeds-per", 1,
                   "--samples", 10, "--seed", 1)
    payload = json.loads(proc.stdout, parse_constant=reject)
    validate(payload, "sweep_report")
    assert [p["meanDistortion"] for p in payload["points"]] == [None, None]


def test_converge_two_vertex_count():
    # two points make a graph of hop diameter 1, whose default hop window is
    # empty: the sweep records the failure and goes on
    proc = run_cli("converge", "--manifold", '{"type":"sphere2","radius":1.0}',
                   "--true-k", 1, "--counts", "2,200", "--seeds-per", 1,
                   "--samples", 20, "--seed", 1)
    payload = json.loads(proc.stdout)
    validate(payload, "sweep_report")
    assert [(p["vertexCount"], p["failures"]) for p in payload["points"]] == [(2, 1), (200, 0)]


def test_fractal_exact_and_sampled(tmp_path):
    exact = run_cli("fractal", "--level", 2, "--exact", "--seed", 1,
                    "--out", tmp_path / "f2")
    payload = json.loads(exact.stdout)
    validate(payload, "fractal_stats")
    csv_lines = (tmp_path / "f2.csv").read_text().splitlines()
    assert csv_lines[0] == "K"
    assert len(csv_lines) - 1 == payload["count"]
    counts = enumerate_fractal_triangle_counts(sierpinski_graph(2))
    expected = [curvature_from_triangle(*shape) for shape, n in sorted(counts.items())
                for _ in range(n)]
    assert [float(x) for x in csv_lines[1:]] == expected
    sampled = run_cli("fractal", "--level", 2, "--samples", 200, "--seed", 1)
    validate(json.loads(sampled.stdout), "fractal_stats")


def test_fractal_level0_empty_flag():
    proc = run_cli("fractal", "--level", 0, "--exact", "--seed", 1)
    payload = json.loads(proc.stdout)
    assert payload["count"] == 0
    assert payload["empty"] is True


def test_fractal_edge_scale():
    base = json.loads(run_cli("fractal", "--level", 2, "--exact", "--seed", 1).stdout)
    scaled = json.loads(run_cli("fractal", "--level", 2, "--exact", "--seed", 1,
                                "--edge-scale", 0.5).stdout)
    assert scaled["mean"] == pytest.approx(16 * base["mean"], rel=1e-12)


def call_main(argv):
    """Run ``cli.main`` on ``argv``: its exit code, stdout and stderr.  A
    warning raises, since the CLI would print it on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_in_process(argv, schema):
    """Run ``cli.main``: it either prints a report valid under ``schema`` or
    exits 1 with error JSON on stderr.  A warning counts as an escaped
    exception, since the CLI would print it on stderr."""
    code, out, err = call_main(argv)
    if code == 0:
        assert err == ""
        validate(json.loads(out), schema)
    else:
        assert code == 1 and out == ""
        validate(json.loads(err), "error")


def cli_error(*args, in_process=True):
    """Run the CLI on ``args``, in process or as ``python -m curvgraph.cli``.
    It must exit 1 with nothing on stdout and error JSON on stderr, which is
    returned."""
    if in_process:
        code, out, err = call_main(list(map(str, args)))
    else:
        proc = run_cli(*args, check=False)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    assert code == 1, args
    assert out == ""
    err = json.loads(err)
    validate(err, "error")
    return err


@settings(max_examples=300, deadline=None)
@given(level=st.sampled_from([-1, 0, 1, 2, 3, 7, 13]),
       draw=st.sampled_from(["--exact", "--samples=-5", "--samples=0", "--samples=1",
                             "--samples=7", f"--samples={10**15}"]),
       edge_scale=st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e100", "1e-100",
                                   "1e300", "1e-300", "0.5", "1", "2"]))
def test_fractal_cli_contract(level, draw, edge_scale):
    run_in_process(["fractal", f"--level={level}", draw, f"--edge-scale={edge_scale}",
                    "--seed=1"], "fractal_stats")


@settings(max_examples=150, deadline=None)
@example(samples="10", max_length="6400", legs=None, axes=("inf", "6357"))
@example(samples="10", max_length=None, legs=None, axes=("1e-300", "1e-300"))
@given(samples=st.sampled_from(["-3", "0", "10"]),
       max_length=st.sampled_from([None, "0", "-1", "nan", "inf", "1e-300", "6400"]),
       legs=st.sampled_from([None, ("4000", "500"), ("nan", "4000"), ("500", "nan"),
                             ("500", "inf"), ("-inf", "4000")]),
       axes=st.tuples(*[st.sampled_from([None, "0", "-1", "nan", "inf", "1e-300", "6357",
                                         "6378"])] * 2))
def test_earth_cli_contract(samples, max_length, legs, axes):
    argv = ["earth", f"--samples={samples}", "--seed=1"]
    if max_length is not None:
        argv.append(f"--max-length={max_length}")
    if legs is not None:
        argv += [f"--leg-min={legs[0]}", f"--leg-max={legs[1]}"]
    argv += [f"--{flag}={value}" for flag, value in zip(("equatorial", "polar"), axes)
             if value is not None]
    run_in_process(argv, "earth_summary")


# stored effective edge lengths of the tiny graph that a sidecar may not hold,
# or that ask the ball fits for hop radii past the vertex count
EDGE_LENGTHS = {"zero_le": 0, "negative_le": -0.07, "tiny_le": 1e-300, "short_le": 0.02}


@pytest.fixture(scope="module")
def tiny_graph_prefixes(tmp_path_factory):
    """A stored 60-vertex sphere graph, a missing one, one with a garbled sidecar
    and copies of the first whose sidecars hold the EDGE_LENGTHS."""
    d = tmp_path_factory.mktemp("tiny")
    run_cli("sprinkle", "--manifold", '{"type":"sphere2","radius":1.0}', "--n", 60,
            "--seed", 5, "--out", d / "g")
    (d / "garbled.edges").write_text((d / "g.edges").read_text())
    (d / "garbled.json").write_text("{not json")
    prefixes = {"tiny": d / "g", "missing": d / "missing", "garbled": d / "garbled"}
    sidecar = json.loads((d / "g.json").read_text())
    for name, l_e in EDGE_LENGTHS.items():
        (d / f"{name}.edges").write_text((d / "g.edges").read_text())
        (d / f"{name}.json").write_text(json.dumps({**sidecar, "effective_edge_length": l_e}))
        prefixes[name] = d / name
    return prefixes


@settings(max_examples=40, deadline=None)
@given(graph=st.sampled_from(["tiny", "missing", "garbled", *EDGE_LENGTHS]),
       vertices=st.sampled_from(["-5", "0", "1", "7", str(10**15)]))
def test_wolfram_cli_contract(tiny_graph_prefixes, graph, vertices):
    run_in_process(["wolfram", f"--graph={tiny_graph_prefixes[graph]}",
                    f"--vertices={vertices}", "--seed=1"], "curvature_report")


SPHERE = '{"type":"sphere2","radius":1.0}'
HYPERBOLIC = '{"type":"hyperbolic","curvature_scale":1.0,"disk_radius":1.0}'


@settings(max_examples=60, deadline=None)
@example(manifold=SPHERE, counts="30", seeds_per="2", samples="5", true_k="1")
@example(manifold=SPHERE, counts="3,4", seeds_per="1", samples="5", true_k="1e300")
@example(manifold=SPHERE, counts="40,20", seeds_per="2", samples="1", true_k="0")
@example(manifold=HYPERBOLIC, counts="40,20", seeds_per="1", samples="5", true_k="-1")
@given(manifold=st.sampled_from([SPHERE, HYPERBOLIC, '{"type":"sphere2","radius":1e-300}']),
       counts=st.sampled_from(["", ",", "200,x", "-5", "1", "2", "3,4", "30", "40,20", "1e3"]),
       seeds_per=st.sampled_from(["-1", "0", "1", "2"]),
       samples=st.sampled_from(["-1", "0", "1", "5"]),
       true_k=st.sampled_from(["nan", "inf", "-inf", "0", "1", "-1", "1e300"]))
def test_converge_cli_contract(manifold, counts, seeds_per, samples, true_k):
    # hostile numbers for every flag; graphs of at most 40 vertices keep it fast
    run_in_process(["converge", f"--manifold={manifold}", f"--counts={counts}",
                    f"--seeds-per={seeds_per}", f"--samples={samples}", f"--true-k={true_k}",
                    "--seed=1"], "sweep_report")


@pytest.fixture(scope="module")
def sprinkle_out(tmp_path_factory):
    return tmp_path_factory.mktemp("sprinkle") / "g"


@settings(max_examples=80, deadline=None)
@example(manifold=SPHERE, n="60", p="0.25", l=None)
@example(manifold=HYPERBOLIC, n="60", p="1", l="0.5")
@given(manifold=st.sampled_from([SPHERE, HYPERBOLIC, '{"type":"euclidean","radius":1.0}',
                                 '{"type":"spheroid","equatorial_radius":1.0,'
                                 '"polar_radius":0.9}']),
       n=st.sampled_from(["-1", "0", "1", "2", "3", "30", "60"]),
       p=st.sampled_from(["nan", "inf", "-0.5", "0", "1e-300", "0.25", "1", "1.5"]),
       l=st.sampled_from([None, "nan", "inf", "-1", "0", "1e-300", "0.5", "100", "1e300"]))
def test_sprinkle_cli_contract(sprinkle_out, manifold, n, p, l):
    # hostile numbers for every flag on graphs of at most 60 vertices
    argv = ["sprinkle", f"--manifold={manifold}", f"--n={n}", f"--p={p}",
            f"--out={sprinkle_out}", "--seed=1"]
    run_in_process(argv + ([] if l is None else [f"--l={l}"]), "sprinkle_summary")


@settings(max_examples=40, deadline=None)
@given(graph=st.sampled_from(["tiny", "missing", "garbled"]),
       sources=st.sampled_from([None, "-3", "0", "1", "7", "60", "61", str(10**15)]))
def test_distortion_cli_contract(tiny_graph_prefixes, graph, sources):
    argv = ["distortion", f"--graph={tiny_graph_prefixes[graph]}", "--seed=1"]
    run_in_process(argv + ([] if sources is None else [f"--sources={sources}"]),
                   "distortion_report")


@settings(max_examples=80, deadline=None)
@example(graph="tiny", samples="5", smin=None, smax=None, max_length=None, per_vertex=True)
@example(graph="tiny", samples="20", smin="2", smax="3", max_length="3", per_vertex=False)
@given(graph=st.sampled_from(["tiny", "missing", "garbled"]),
       samples=st.sampled_from(["-1", "0", "1", "5", "20"]),
       smin=st.sampled_from([None, "-1", "1", "2", "3", str(10**15)]),
       smax=st.sampled_from([None, "-1", "1", "2", "3", "7", str(10**15)]),
       max_length=st.sampled_from([None, "nan", "inf", "-1", "0", "1e-300", "0.5", "3"]),
       per_vertex=st.booleans())
def test_curvature_cli_contract(tiny_graph_prefixes, graph, samples, smin, smax, max_length,
                                per_vertex):
    argv = ["curvature", f"--graph={tiny_graph_prefixes[graph]}", f"--samples={samples}",
            "--seed=1"]
    argv += [f"--{flag}={value}" for flag, value in
             (("smin", smin), ("smax", smax), ("max-length", max_length)) if value is not None]
    run_in_process(argv + ["--per-vertex"] * per_vertex,
                   "vertex_curvature" if per_vertex else "curvature_report")


def test_earth_schema_and_csv(tmp_path):
    proc = run_cli("earth", "--samples", 60, "--seed", 21, "--max-length", 6400,
                   "--out", tmp_path / "radii")
    payload = json.loads(proc.stdout)
    validate(payload, "earth_summary")
    assert "ksDistanceToExpectedPdf" in payload
    lines = (tmp_path / "radii.csv").read_text().splitlines()
    assert lines[0] == "radius_km"
    assert len(lines) - 1 == payload["n"]
    no_max = json.loads(run_cli("earth", "--samples", 60, "--seed", 21).stdout)
    assert "ksDistanceToExpectedPdf" not in no_max


def test_error_exit_json(tmp_path, tiny_graph_prefixes):
    # one ``python -m curvgraph.cli`` run per exit path (OSError, CurvGraphError
    # and ValueError); every other case runs cli.main in process
    err = cli_error("distortion", "--graph", tmp_path / "nope", "--seed", 1, in_process=False)
    assert err["error"] == "FileNotFoundError"
    err2 = cli_error("fractal", "--level", 13, "--exact", "--seed", 1, in_process=False)
    assert err2["error"] == "LevelTooLarge"
    err3 = cli_error("fractal", "--level", 2, "--samples", 0, "--seed", 1, in_process=False)
    assert (err3["error"], err3["message"]) == ("ValueError", "need m >= 1")
    # malformed input from outside: manifold JSON, edge list and sidecar
    sidecar = {"manifold": {"type": "sphere2", "radius": 1.0}, "connection_length": 0.5,
               "tolerance": 0.25, "coordinates": [[1.0, 0.0, 0.0]] * 3}
    (tmp_path / "cut.edges").write_text("3 2\n0 1\n")
    (tmp_path / "cut.json").write_text(json.dumps(sidecar))
    (tmp_path / "short.edges").write_text("3 2\n0 1\n1 2\n")
    (tmp_path / "short.json").write_text(json.dumps({**sidecar, "coordinates": [[1.0, 0, 0]]}))
    (tmp_path / "long.edges").write_text("3 2\n0 1\n1 2\n5 6\n")
    (tmp_path / "long.json").write_text(json.dumps(sidecar))
    (tmp_path / "typed.edges").write_text("3 2\n0 1\n1 2\n")
    (tmp_path / "typed.json").write_text(json.dumps({**sidecar, "tolerance": [1]}))
    (tmp_path / "ok.edges").write_text("3 2\n0 1\n1 2\n")
    (tmp_path / "ok.json").write_text(json.dumps(
        {**sidecar, "coordinates": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]}))
    # edge lists that parse but name no simple graph on V = 3 vertices
    bad_edges = {"neg": ("3 1\n0 -1\n", "edge endpoint out of range"),
                 "high": ("3 1\n0 3\n", "edge endpoint out of range"),
                 "loop": ("3 2\n0 1\n1 1\n", "self-loops are not allowed"),
                 "dup": ("3 2\n0 1\n0 1\n", "duplicate edges are not allowed"),
                 "flip": ("3 2\n0 1\n1 0\n", "duplicate edges are not allowed")}
    for name, (text, _) in bad_edges.items():
        (tmp_path / f"{name}.edges").write_text(text)
        (tmp_path / f"{name}.json").write_text((tmp_path / "ok.json").read_text())
    # a non-finite coordinate in a sidecar without an effective edge length
    non_finite = {"nan": math.nan, "inf": math.inf, "ninf": -math.inf}
    for name, value in non_finite.items():
        (tmp_path / f"{name}.edges").write_text((tmp_path / "ok.edges").read_text())
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {**sidecar, "coordinates": [[1.0, 0, 0], [0, value, 0], [0, 0, 1.0]]}))
    # coordinates scaled off the unit sphere, to norm 3
    (tmp_path / "off.edges").write_text((tmp_path / "ok.edges").read_text())
    (tmp_path / "off.json").write_text(json.dumps(
        {**sidecar, "coordinates": [[3.0, 0, 0], [0, 3.0, 0], [0, 0, 3.0]]}))
    (tmp_path / "tri.edges").write_text("3 3\n0 1\n0 2\n1 2\n")
    (tmp_path / "tri.json").write_text((tmp_path / "ok.json").read_text())
    # coordinates one too narrow or too wide for the manifold
    widths = {"sphere2": (2, 4), "sphere3": (3, 5), "hyperbolic": (1, 3)}
    for kind, (narrow, wide) in widths.items():
        params = {"type": kind, "radius": 1.0} if kind != "hyperbolic" else {
            "type": kind, "curvature_scale": 1.0, "disk_radius": 1.0}
        for width in (narrow, wide):
            (tmp_path / f"{kind}{width}.edges").write_text("3 2\n0 1\n1 2\n")
            (tmp_path / f"{kind}{width}.json").write_text(json.dumps(
                {**sidecar, "manifold": params, "effective_edge_length": 0.5,
                 "coordinates": [[0.5] * width] * 3}))
    # two disjoint 4 x 4 grids
    grid = [(r * 4 + c, r * 4 + c + step) for r in range(4) for c in range(4)
            for step, fits in ((1, c < 3), (4, r < 3)) if fits]
    edges = grid + [(u + 16, v + 16) for u, v in grid]
    (tmp_path / "grids.edges").write_text(f"32 {len(edges)}\n"
                                          + "".join(f"{u} {v}\n" for u, v in edges))
    (tmp_path / "grids.json").write_text(json.dumps(
        {**sidecar, "effective_edge_length": 0.1, "coordinates": [[1.0, 0, 0]] * 32}))
    sprinkle = ("sprinkle", "--n", 10, "--seed", 1, "--out", tmp_path / "x", "--manifold")
    # flags that --per-vertex has no use for
    per_vertex = ("curvature", "--graph", tmp_path / "ok", "--per-vertex", "--samples", 2,
                  "--seed", 1)
    for args in [(*sprinkle, '{"type":"sphere2"}'), (*sprinkle, "3"),
                 ("distortion", "--graph", tmp_path / "cut", "--seed", 1),
                 ("distortion", "--graph", tmp_path / "short", "--seed", 1),
                 ("distortion", "--graph", tmp_path / "long", "--seed", 1),
                 ("distortion", "--graph", tmp_path / "typed", "--seed", 1),
                 (*per_vertex, "--max-length", 1.0),
                 (*per_vertex, "--csv", tmp_path / "pv.csv"),
                 (*per_vertex, "--include-samples"),
                 *[(command, "--graph", tmp_path / f"{kind}{width}", *more, "--seed", 1)
                   for kind, pair in widths.items() for width in pair
                   for command, *more in (("distortion",), ("curvature", "--samples", 2))]]:
        err = cli_error(*args)
        assert err["error"] == "InvalidInput", err
    # out-of-range values: a negative edge endpoint, a fractal sample count below 1,
    # a fractal level above 6 (refused before its graph is built), an edge scale
    # whose curvature factor leaves float range, and numbers on the root-solve
    # path, each rejected before it is used
    fractal = ("fractal", "--level", 2, "--exact", "--seed", 1)
    curvature = ("curvature", "--graph", tmp_path / "ok", "--samples", 2, "--seed", 1)
    earth = ("earth", "--samples", 50, "--seed", 1)
    scale = "edge_scale must be finite and > 0, got "
    scaled = "edge_scale ** (-2 * level) must lie in [1e-100, 1e100], got "
    cap = "max_length_scale must be None or finite and > 0, got "
    legs = "leg_range must satisfy 0 < min <= max < a quarter of the minor circumference, got "
    wolfram = ("wolfram", "--seed", 1, "--vertices")
    converge = ("converge", "--manifold", '{"type":"sphere2","radius":1.0}', "--seed", 1)
    sweep = ("--true-k", 1, "--samples", 10)
    one_graph = ("--counts", 200, "--seeds-per", 1)
    counts = "--counts must be a non-empty comma-separated list of integers >= 2, got "
    square = "radius must have a finite normal square, got "
    doubled = "radius must have a finite normal square of 2 * radius, got "
    hop_window = "--smin and --smax leave the empty hop window (s_min, s_max) = "
    default = "; an end not given is this graph's default"
    # stored edge lengths so small that the curvature, of order 1 / l_e^2, is no float:
    # every solved triangle is rejected as root_not_found, none is reported flat
    tiny = tiny_graph_prefixes["tiny"]
    (tmp_path / "le320.edges").write_text(tiny.with_suffix(".edges").read_text())
    (tmp_path / "le320.json").write_text(json.dumps(
        {**json.loads(tiny.with_suffix(".json").read_text()), "effective_edge_length": 1e-320}))
    overflow = " must be below 355.585, where cosh(R/k)^2 overflows"
    no_float = ("0 of 20 samples accepted, below the minimum of 10 for a meaningful report "
                "(rejections: {'root_not_found': 20})")
    for args, error, message in [
        *[((command, "--graph", tmp_path / name, *more, "--seed", 1), "InvalidInput",
           f"{tmp_path / name}.edges: {reason}")
          for name, (_, reason) in bad_edges.items()
          for command, *more in (("distortion",), ("curvature", "--samples", 50))],
        *[((command, "--graph", tmp_path / name, *more, "--seed", 1), "InvalidInput",
           f"{tmp_path / name}.json: coordinates must be finite, but vertex 1 has "
           f"{[0.0, value, 0.0]}")
          for name, value in non_finite.items()
          for command, *more in (("distortion",), ("curvature", "--samples", 50))],
        *[((command, "--graph", tmp_path / "off", *more, "--seed", 1), "InvalidInput",
           f"{tmp_path / 'off'}.json: vertex 0 at [3.0, 0.0, 0.0] does not lie on "
           "Sphere2(radius=1.0)")
          for command, *more in (("distortion",), ("curvature", "--samples", 50))],
        (("fractal", "--level", 2, "--samples", -5, "--seed", 1), "ValueError", "need m >= 1"),
        (("fractal", "--level", 12, "--exact", "--seed", 1), "LevelTooLarge",
         "all-pairs distances limited to level 6"),
        ((*fractal, "--edge-scale", 0), "ValueError", scale + "0.0"),
        ((*fractal, "--edge-scale", -1), "ValueError", scale + "-1.0"),
        ((*fractal, "--edge-scale", "nan"), "ValueError", scale + "nan"),
        ((*fractal, "--edge-scale", 1e-100), "ValueError", scaled + "1e-100 ** -4"),
        ((*fractal, "--edge-scale", 1e100), "ValueError", scaled + "1e+100 ** -4"),
        ((*curvature, "--max-length", "nan"), "ValueError", cap + "nan"),
        ((*curvature, "--max-length", 0), "ValueError", cap + "0.0"),
        ((*earth, "--max-length", "nan"), "ValueError", cap + "nan"),
        ((*earth, "--leg-min", -5), "ValueError", legs + "(-5.0, 4000.0)"),
        ((*earth, "--leg-min", 5000, "--leg-max", 100), "ValueError", legs + "(5000.0, 100.0)"),
        ((*earth, "--leg-max", 20000), "ValueError", legs + "(500.0, 20000.0)"),
        (("distortion", "--graph", tmp_path / "ok", "--sources", 0, "--seed", 1),
         "InvalidInput", "--sources must be at least 1, got 0"),
        (("distortion", "--graph", tmp_path / "ok", "--sources", -3, "--seed", 1),
         "InvalidInput", "--sources must be at least 1, got -3"),
        (("earth", "--samples", 0, "--seed", 1), "InvalidInput",
         "--samples must be at least 1, got 0"),
        (("earth", "--samples", -3, "--seed", 1), "InvalidInput",
         "--samples must be at least 1, got -3"),
        ((*earth, "--equatorial", "inf"), "ValueError",
         "equatorial_radius must be finite and strictly positive, got inf"),
        ((*sprinkle, '{"type":"spheroid","equatorial_radius":1e400,"polar_radius":1}'),
         "ValueError", "equatorial_radius must be finite and strictly positive, got inf"),
        ((*sprinkle, '{"type":"spheroid","equatorial_radius":1e200,"polar_radius":1e-200}'),
         "ValueError", "spheroid too flat: 1 - e^2 rounds to 0 for equatorial_radius 1e+200 "
                       "and polar_radius 1e-200"),
        ((*sprinkle, '{"type":"sphere2","radius":1e-300}'), "ValueError", square + "1e-300"),
        ((*sprinkle, '{"type":"sphere2","radius":1e308}'), "ValueError", square + "1e+308"),
        ((*sprinkle, '{"type":"sphere2","radius":1' + "0" * 400 + "}"), "ValueError",
         "radius must be finite and strictly positive, got 1" + "0" * 400),
        # a disk whose diameter, or a spheroid whose axis, has a square that is no
        # finite normal float: just past each bound, and far past it
        ((*sprinkle, '{"type":"euclidean","radius":1e-160}'), "ValueError", doubled + "1e-160"),
        ((*sprinkle, '{"type":"euclidean","radius":7.4e-155}'), "ValueError",
         doubled + "7.4e-155"),
        ((*sprinkle, '{"type":"euclidean","radius":6.71e153}'), "ValueError",
         doubled + "6.71e+153"),
        ((*sprinkle, '{"type":"euclidean","radius":1e160}'), "ValueError", doubled + "1e+160"),
        ((*sprinkle, '{"type":"spheroid","equatorial_radius":1.35e154,"polar_radius":1e154}'),
         "ValueError", "equatorial_" + square + "1.35e+154"),
        ((*sprinkle, '{"type":"spheroid","equatorial_radius":2e-154,"polar_radius":1.4e-154}'),
         "ValueError", "polar_" + square + "1.4e-154"),
        ((*earth, "--equatorial", 1e-300, "--polar", 1e-300), "ValueError",
         "equatorial_" + square + "1e-300"),
        # checked before the graph is loaded: the second graph does not exist
        ((*wolfram, -5, "--graph", tmp_path / "ok"), "InvalidInput",
         "--vertices must be at least 1, got -5"),
        ((*wolfram, 0, "--graph", tmp_path / "nope"), "InvalidInput",
         "--vertices must be at least 1, got 0"),
        # checked before any sprinkle
        ((*converge, *sweep, "--counts", 200, "--seeds-per", 0), "InvalidInput",
         "--seeds-per must be at least 1, got 0"),
        ((*converge, *sweep, "--counts", 200, "--seeds-per", -1), "InvalidInput",
         "--seeds-per must be at least 1, got -1"),
        ((*converge, *sweep, "--counts", "", "--seeds-per", 1), "InvalidInput", counts + "''"),
        ((*converge, *sweep, "--counts", "200,x", "--seeds-per", 1), "InvalidInput",
         counts + "'200,x'"),
        ((*converge, *sweep, "--counts", -5, "--seeds-per", 1), "InvalidInput",
         counts + "'-5'"),
        ((*converge, *one_graph, "--true-k", "nan", "--samples", 10), "InvalidInput",
         "--true-k must be finite, got nan"),
        ((*converge, *one_graph, "--true-k", 1, "--samples", 0), "InvalidInput",
         "--samples must be at least 1, got 0"),
        # sprinkle and curvature numbers, checked before any work
        ((*sprinkle, SPHERE, "--n", 1), "InvalidInput", "--n must be at least 2, got 1"),
        ((*sprinkle, SPHERE, "--n", -3), "InvalidInput", "--n must be at least 2, got -3"),
        ((*sprinkle, SPHERE, "--p", 0), "InvalidInput", "--p must be in (0, 1], got 0.0"),
        ((*sprinkle, SPHERE, "--p", 1.5), "InvalidInput", "--p must be in (0, 1], got 1.5"),
        ((*sprinkle, SPHERE, "--p", "nan"), "InvalidInput", "--p must be in (0, 1], got nan"),
        ((*sprinkle, SPHERE, "--l", "inf"), "InvalidInput", "--l must be finite and > 0, got inf"),
        ((*sprinkle, SPHERE, "--l", "nan"), "InvalidInput", "--l must be finite and > 0, got nan"),
        ((*sprinkle, SPHERE, "--l", 0), "InvalidInput", "--l must be finite and > 0, got 0.0"),
        ((*sprinkle, SPHERE, "--l", -1), "InvalidInput", "--l must be finite and > 0, got -1.0"),
        # a given length whose annulus cannot connect the points
        ((*sprinkle, SPHERE, "--l", 100), "Disconnected",
         "--l 100.0: the annulus [l(1-p), l(1+p)] = [75, 125] holds no pair of points"),
        ((*sprinkle, SPHERE, "--l", 0.5), "Disconnected",
         "--l 0.5: the annulus [l(1-p), l(1+p)] = [0.375, 0.625] leaves the graph disconnected"),
        (("curvature", "--graph", tmp_path / "nope", "--samples", 0, "--seed", 1),
         "InvalidInput", "--samples must be at least 1, got 0"),
        ((*curvature, "--smin", 1), "InvalidInput", "--smin must be at least 2, got 1"),
        ((*curvature, "--smax", 1), "InvalidInput", "--smax must be at least 2, got 1"),
        ((*curvature, "--smin", 0, "--per-vertex"), "InvalidInput",
         "--smin must be at least 2, got 0"),
        ((*curvature, "--smin", 5, "--smax", 3), "InvalidInput",
         "--smin must not exceed --smax, got 5 > 3"),
        # an empty hop window, known only once the graph is read: --smin above the
        # default upper end, or no flag on a graph of hop diameter 1
        ((*curvature, "--smin", 10**15), "InvalidInput",
         hop_window + "(1000000000000000, 2)" + default),
        ((*curvature, "--smin", 3, "--per-vertex"), "InvalidInput",
         hop_window + "(3, 2)" + default),
        (("curvature", "--graph", tmp_path / "tri", "--samples", 2, "--seed", 1), "InvalidInput",
         hop_window + "(2, 1)" + default),
        # a disconnected graph, with and without --per-vertex
        (("curvature", "--graph", tmp_path / "grids", "--samples", 2, "--smin", 2, "--smax", 6,
          "--per-vertex", "--seed", 1), "Disconnected",
         "per-vertex curvature requires a connected graph"),
        (("curvature", "--graph", tmp_path / "grids", "--samples", 2, "--smin", 2, "--smax", 6,
          "--seed", 1), "Disconnected", "curvature estimation requires a connected graph"),
        (("curvature", "--graph", tiny_graph_prefixes["tiny_le"], "--samples", 20, "--seed", 1),
         "TooFewAccepted", no_float),
        (("curvature", "--graph", tmp_path / "le320", "--samples", 20, "--seed", 1),
         "TooFewAccepted", no_float),
        # the same lengths per vertex: no vertex keeps a sample, and the summed
        # rejections are named
        (("curvature", "--graph", tiny_graph_prefixes["tiny_le"], "--samples", 2,
          "--per-vertex", "--seed", 1),
         "TooFewAccepted", "0 of 120 samples accepted, so no vertex of 60 has a curvature "
                           "(rejections: {'root_not_found': 115, 'triangle_inequality': 5})"),
        # a hyperbolic disk whose cosh(R/k)^2 is no float, refused before any point is drawn
        ((*sprinkle, '{"type":"hyperbolic","curvature_scale":1.0,"disk_radius":1000}'),
         "ValueError", "disk_radius 1000 / curvature_scale 1.0" + overflow),
        ((*sprinkle, '{"type":"hyperbolic","curvature_scale":0.01,"disk_radius":3.6}'),
         "ValueError", "disk_radius 3.6 / curvature_scale 0.01" + overflow),
    ]:
        err = cli_error(*args)
        assert (err["error"], err["message"]) == (error, message)
    # sidecar numbers: lengths finite and > 0, a tolerance in (0, 1], and an effective
    # edge length whose ball radii ceil(1.5 / l_e) stay within the V = 3 vertices
    length = "{}.json: {} must be finite and > 0, got {!r}"
    interval = "{}.json: {} must be in (0, 1], got {!r}"
    radii = ("l_e must be finite and > 0 with ceil(1.5 / l_e) at most the vertex count 3, "
             "got l_e = ")
    for k, (key, value, error, message) in enumerate([
        ("connection_length", 0, "InvalidInput", length),
        ("connection_length", math.nan, "InvalidInput", length),
        ("connection_length", math.inf, "InvalidInput", length),
        ("tolerance", 0, "InvalidInput", interval),
        ("tolerance", 1.5, "InvalidInput", interval),
        ("effective_edge_length", 0, "InvalidInput", length),
        ("effective_edge_length", -0.07, "InvalidInput", length),
        ("effective_edge_length", -math.inf, "InvalidInput", length),
        ("effective_edge_length", 1e-300, "ValueError", radii + "1e-300"),
        ("effective_edge_length", 0.4, "ValueError", radii + "0.4"),
    ]):
        prefix = tmp_path / f"number{k}"
        (tmp_path / f"number{k}.edges").write_text((tmp_path / "ok.edges").read_text())
        (tmp_path / f"number{k}.json").write_text(json.dumps({**sidecar, key: value}))
        err = cli_error(*wolfram, 1, "--graph", prefix)
        assert (err["error"], err["message"]) == (error, message.format(prefix, key, value))
