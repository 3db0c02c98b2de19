"""The benchmark's traced run wraps availkit functions it looks up by name
(perfbench/common.py); a renamed or deleted one breaks every traced run."""

import importlib.util
from pathlib import Path

import numpy as np

from availkit import pipeline
from availkit.faultsim import simulate_frames
from availkit.model import MetricSeries
from availkit.rootcause import AnomalyConfig
from availkit.scenarios import WEB, three_tier_spec

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


def test_wrapped_layers_are_called_by_a_diagnosis():
    # a wrapped name that still resolves but is no longer called would read
    # 0 in every traced run
    spec = three_tier_spec(seed=1, duration_ticks=1800)
    frames = simulate_frames(spec)
    series = {key: MetricSeries(key, np.arange(len(frames.values)) * spec.tick_ms, frames.values[:, g])
              for g, key in enumerate(frames.columns)}
    common, tracer = load("common"), load("tracer").Tracer()
    try:
        common.install_wrappers(tracer, mse_memory_peak=False)
        pipeline.diagnose(series, spec.topology, WEB, aconf=AnomalyConfig(z_threshold=1e9))  # no z decides
    finally:
        tracer.restore()
    names = {span[1] for span in tracer.spans}
    for name in ("entropy.health_score", "entropy.mse_curve", "model.align", "causal.learn_metric_graph",
                 "rootcause.localize"):
        assert name in names, name
