"""Set-up of the estimate-5k workload, run in a child process.

Writes one sphere graph and one hyperbolic-disk graph at V = 5000 with
`curvgraph sprinkle --l`.  The points are the ones the CLI draws for the
graph's seed; the connection length is the benchmark's own choice for
those points (reference.choose_connection_length), so the stored inputs
follow from the seed and the annulus rule alone.  Prints one JSON line:
{"graphs": [{"prefix", "kind", "length"}, ...]}.

    python3 perfbench/make_graphs.py --dir DIR --seed N [--trace FILE]
"""

import argparse
import contextlib
import io
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import reference  # noqa: E402
from tracing import Tracer  # noqa: E402

N = 5000
P = 0.25
# (kind, manifold JSON, area): the unit sphere and the hyperbolic disk of
# area 4 pi (disk radius acosh 3).
GRAPHS = [
    ("sphere", {"type": "sphere2", "radius": 1.0}, 4.0 * math.pi),
    ("hyperbolic", {"type": "hyperbolic", "curvature_scale": 1.0,
                    "disk_radius": math.acosh(3.0)}, 4.0 * math.pi),
]


def graph_seed(seed, slot):
    return int(np.random.SeedSequence([seed, 900 + slot]).generate_state(1)[0])


def make_graph(cli, directory, seed, slot):
    from curvgraph.manifolds import manifold_from_json
    from curvgraph.rng import substream

    kind, manifold, area = GRAPHS[slot]
    gseed = graph_seed(seed, slot)
    # the CLI draws sprinkle points from sub-stream (seed, 0)
    points = manifold_from_json(manifold).sample_points(N, substream(gseed, 0))
    length = reference.choose_connection_length(manifold, points, P, area)
    prefix = str(Path(directory) / kind)
    argv = ["sprinkle", "--manifold", json.dumps(manifold), "--n", str(N), "--p", str(P),
            "--l", repr(length), "--out", prefix, "--seed", str(gseed)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"set-up sprinkle failed ({code}): {argv}")
    with open(f"{prefix}.json") as fh:
        coords = np.asarray(json.load(fh)["coordinates"])
    if not np.array_equal(coords, points):
        raise SystemExit(f"sidecar of {prefix} does not hold the seed's points")
    return {"prefix": prefix, "kind": kind, "length": length}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", default=None, help="write spans to this file")
    args = parser.parse_args()
    import curvgraph.cli as cli

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    graphs = [make_graph(cli, args.dir, args.seed, slot) for slot in range(len(GRAPHS))]
    if tracer:
        tracer.uninstall()
        tracer.write(args.trace)
    print(json.dumps({"graphs": graphs}))


if __name__ == "__main__":
    main()
