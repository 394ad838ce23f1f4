"""Compare every CLI output of this tree with a parent revision's, byte for byte.

    python3 tools/identity.py --parent REV

The parent's files are unpacked with ``git archive REV`` into a temporary
directory.  A fixed list of CLI runs (``CASES``) then runs on both trees:
each case in a fresh working directory, each command as
``python -m curvgraph.cli`` with ``PYTHONPATH=<tree>/src``.  The stdout,
stderr and exit code of every command, and every file the case wrote, are
compared byte for byte.  One JSON summary goes to stdout, and the exit code
is 1 when any output differs or is missing on one side.
"""
import argparse
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPHERE = '{"type":"sphere2","radius":1.0}'
HYPERBOLIC = '{"type":"hyperbolic","curvature_scale":1.0,"disk_radius":1.762747174039086}'
EUCLIDEAN = '{"type":"euclidean","radius":2.0}'
SPHERE3 = '{"type":"sphere3","radius":1.0}'
EARTH = '{"type":"spheroid","equatorial_radius":6378.0,"polar_radius":6357.0}'


def _sprinkle(manifold, n, seed, *more):
    return ["sprinkle", "--manifold", manifold, "--n", str(n), "--out", "g",
            "--seed", str(seed), *more]


def _cases():
    """(name, list of argv) pairs; the commands of a case share one working directory."""
    cases = []
    for seed in (1, 2, 3):
        s = str(seed)
        for kind, manifold in (("sphere", SPHERE), ("hyperbolic", HYPERBOLIC)):
            stored = ["--graph", "g", "--seed", s]
            cases.append((f"{kind}-{seed}", [
                _sprinkle(manifold, 1000, seed),
                ["distortion", *stored],
                ["curvature", *stored, "--samples", "400", "--csv", "k.csv",
                 "--include-samples"],
                ["curvature", *stored, "--samples", "3", "--per-vertex"],
                ["wolfram", *stored, "--vertices", "200"],
            ] + ([
                # about half the draws rejected for their length scale
                ["curvature", *stored, "--samples", "400", "--max-length", "2"],
            ] if kind == "sphere" else [])))
        cases += [
            (f"euclidean-{seed}", [_sprinkle(EUCLIDEAN, 1000, seed)]),
            (f"sphere3-{seed}", [_sprinkle(SPHERE3, 500, seed)]),
            (f"earth-sprinkle-{seed}", [_sprinkle(EARTH, 200, seed)]),
            (f"sphere-l0.3-{seed}", [_sprinkle(SPHERE, 500, seed, "--l", "0.3")]),
            (f"sphere-l0.01-{seed}", [_sprinkle(SPHERE, 500, seed, "--l", "0.01")]),
            (f"earth-{seed}", [["earth", "--samples", "3000", "--max-length", "6400",
                                "--out", "radii", "--seed", s]]),
        ]
    cases += [
        ("earth-no-max-length-1", [["earth", "--samples", "2000", "--out", "radii",
                                    "--seed", "1"]]),
        # every draw rejected: TooFewAccepted names the tally in its order
        ("earth-too-few-1", [["earth", "--samples", "200", "--max-length", "1", "--seed", "1"]]),
        ("fractal-scaled-1", [["fractal", "--level", "3", "--samples", "500", "--edge-scale",
                               "0.5", "--out", "k", "--seed", "1"]]),
    ]
    cases += [
        ("fractal-exact-1", [["fractal", "--level", "5", "--exact", "--out", "k", "--seed", "1"]]),
        ("fractal-sampled-1", [["fractal", "--level", "4", "--samples", "5000", "--seed", "1"]]),
        ("converge-1", [["converge", "--manifold", SPHERE, "--true-k", "1", "--counts", "200,300",
                         "--seeds-per", "2", "--samples", "100", "--csv", "sweep.csv",
                         "--seed", "1"]]),
    ]
    return cases


CASES = _cases()


def run_cases(tree, out):
    """Run every case on ``tree``'s sources; outputs go under ``out/<case>/``.

    ``out/<case>/work`` is the case's working directory, and command k's
    stdout, stderr and exit code are the files ``k.stdout``, ``k.stderr``
    and ``k.exit`` beside it.
    """
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(tree) / "src")}
    for name, commands in CASES:
        work = pathlib.Path(out) / name / "work"
        work.mkdir(parents=True)
        for k, argv in enumerate(commands):
            proc = subprocess.run([sys.executable, "-m", "curvgraph.cli", *argv], cwd=work,
                                  env=env, capture_output=True)
            (work.parent / f"{k}.stdout").write_bytes(proc.stdout)
            (work.parent / f"{k}.stderr").write_bytes(proc.stderr)
            (work.parent / f"{k}.exit").write_text(f"{proc.returncode}\n")


def _files(top):
    top = pathlib.Path(top)
    return {p.relative_to(top).as_posix() for p in top.rglob("*") if p.is_file()}


def compare_trees(a, b):
    """Compare two directory trees file by file.

    Returns ``(identical, different, only_a, only_b)``: the number of
    relative paths whose bytes match, and the sorted paths whose bytes
    differ or that exist under one tree only.
    """
    in_a, in_b = _files(a), _files(b)
    common = sorted(in_a & in_b)
    different = [p for p in common
                 if (pathlib.Path(a) / p).read_bytes() != (pathlib.Path(b) / p).read_bytes()]
    return len(common) - len(different), different, sorted(in_a - in_b), sorted(in_b - in_a)


def unpack(rev, dest):
    """Write the files of revision ``rev`` of this repository into ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args()
    top = pathlib.Path(tempfile.mkdtemp(prefix="curvgraph-identity-"))
    try:
        unpack(args.parent, top / "parent-tree")
        run_cases(top / "parent-tree", top / "parent")
        run_cases(ROOT, top / "change")
        identical, different, only_parent, only_change = compare_trees(top / "parent",
                                                                       top / "change")
    finally:
        shutil.rmtree(top)
    print(json.dumps({
        "parent": args.parent,
        "commands": sum(len(commands) for _, commands in CASES),
        "identical": identical,
        "different": different,
        "onlyParent": only_parent,
        "onlyChange": only_change,
    }, indent=1))
    return 1 if different or only_parent or only_change else 0


if __name__ == "__main__":
    sys.exit(main())
