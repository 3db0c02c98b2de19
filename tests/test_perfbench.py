"""The benchmark's traced run wraps availkit functions it looks up by name
(perfbench/common.py); a renamed or deleted one breaks every traced run."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrappers_install_and_restore():
    common, tracer = load("common"), load("tracer").Tracer()
    try:
        common.install_wrappers(tracer)
        common.install_record_wrappers(tracer, capacity_per_key=10)
        patched = list(tracer._patches)
        assert patched
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    finally:
        tracer.restore()
    first = {}  # (owner, attr) -> the original, before any wrapper
    for owner, attr, original in patched:
        first.setdefault((id(owner), attr), (owner, original))
    assert all(getattr(owner, attr) is original for (_, attr), (owner, original) in first.items())
