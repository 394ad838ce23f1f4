"""The compare step of tools/identity.py, on two small directory trees."""
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "identity", Path(__file__).resolve().parents[1] / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)


def _tree(top, files):
    for name, data in files.items():
        path = top / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return top


FILES = {"case/0.stdout": b'{"count":3}\n', "case/0.exit": b"0\n",
         "case/work/k.csv": b"K\n0.5\n", "other/0.stderr": b""}


def test_identical_trees(tmp_path):
    a, b = _tree(tmp_path / "a", FILES), _tree(tmp_path / "b", FILES)
    assert identity.compare_trees(a, b) == (4, [], [], [])


def test_one_changed_byte(tmp_path):
    changed = {**FILES, "case/work/k.csv": b"K\n0.6\n"}
    a, b = _tree(tmp_path / "a", FILES), _tree(tmp_path / "b", changed)
    assert identity.compare_trees(a, b) == (3, ["case/work/k.csv"], [], [])


def test_file_on_one_side(tmp_path):
    a = _tree(tmp_path / "a", FILES)
    b = _tree(tmp_path / "b", {**FILES, "case/work/extra": b""})
    assert identity.compare_trees(a, b) == (4, [], [], ["case/work/extra"])
    assert identity.compare_trees(b, a) == (4, [], ["case/work/extra"], [])
