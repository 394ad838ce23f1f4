"""The names ``perfbench/tracing.py`` wraps still exist, and its tracer leaves no trace.

The benchmark's tracer wraps functions and methods of curvgraph by name, so
renaming or deleting one of them breaks only a traced benchmark run.  These
tests load the tracer by path, resolve every name it lists, and install it
around one small CLI call to check that uninstalling restores every original.
"""
import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

from curvgraph import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _method_owner(module_name, path):
    cls_name, attr = path.split(".")
    return getattr(importlib.import_module(module_name), cls_name), attr


def test_every_traced_name_resolves():
    tracing = _tracing()
    for _, module_name, attr in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), attr
    for _, module_name, path in tracing.METHODS:
        cls, attr = _method_owner(module_name, path)
        assert callable(getattr(cls, attr, None)), path


def test_tracer_restores_every_original():
    tracing = _tracing()
    modules = {key: dict(vars(m)) for key, m in sys.modules.items()
               if m is not None and (key == "curvgraph" or key.startswith("curvgraph."))}
    classes = {path: dict(vars(_method_owner(module_name, path)[0]))
               for _, module_name, path in tracing.METHODS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["earth", "--samples", "20", "--seed", "1"])
    finally:
        tracer.uninstall()
    assert code == 0
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "earth.estimate_earth_radius", "manifolds.spheroid_direct",
            "curvature.curvature_from_triangle"} <= names
    for key, namespace in modules.items():
        after = vars(sys.modules[key])
        assert all(after.get(attr) is value for attr, value in namespace.items()), key
    for _, module_name, path in tracing.METHODS:
        cls, _ = _method_owner(module_name, path)
        assert dict(vars(cls)) == classes[path], path
