"""Shared pieces of the benchmark: the checkout's sources, the diagnosis
settings of acceptance criterion 8 and the wrappers of the traced run."""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def use_checkout_sources() -> None:
    """Import availkit from this checkout's src/, never from an installed copy."""
    if not (SRC / "availkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no availkit sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def split_cpus() -> tuple[set[int], set[int]]:
    """CPUs for the load generator and for the server process.

    The server gets the last CPU this process may use and the generator the
    rest, so the two never compete for a core and the server's threads hand
    the interpreter lock to each other on one core. Left to the scheduler,
    that hand-over crossed cores, and its timing swung with the load of the
    shared host: the same code's full-phase rates spread three times as
    wide. With one CPU both share it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return set(cpus[:-1]), {cpus[-1]}


def criterion8_settings() -> dict:
    """Diagnosis keyword arguments of acceptance criterion 8 (z 5, baseline
    2,600, window 600, PC stride 5, entropy threshold 10)."""
    from availkit import AnomalyConfig, DiagnosisSettings, EntropyConfig

    return {
        "econf": EntropyConfig(alarm_threshold=10.0),
        "aconf": AnomalyConfig(z_threshold=5.0),
        "settings": DiagnosisSettings(baseline_n=2600, window_n=600, pc_row_stride=5, theta=10.0),
    }


def install_wrappers(tracer, mse_memory_peak: bool = True) -> None:
    """Span wrappers on every name a caller looks a layer function up by.

    With mse_memory_peak, tracemalloc runs around each mse_curve call for
    entropy.peak_traced_mb. The server process turns it off: tracemalloc
    would also trace its ingest thread, which runs concurrently, and slow
    it several times over.
    """
    from availkit import causal, entropy, faultsim, ingest, maintenance, pipeline, runtime
    from availkit.ingest import MetricStore
    from availkit.runtime import EngineRuntime

    # the package re-exports the availability() function under the module's name
    availability = importlib.import_module("availkit.availability")
    wraps = [
        (faultsim, "simulate", "faultsim.simulate"),
        (faultsim, "simulate_frames", "faultsim.simulate_frames"),
        (ingest, "load_metrics_file", "ingest.load_metrics_file"),
        (MetricStore, "all_series", "ingest.all_series"),
        (MetricStore, "series_for_service", "ingest.series_for_service"),
        (pipeline, "align", "model.align"),
        (pipeline, "health_score", "entropy.health_score"),
        (runtime, "health_score", "entropy.health_score"),
        (entropy, "sample_entropy", "entropy.sample_entropy"),
        (pipeline, "learn_metric_graph", "causal.learn_metric_graph"),
        (causal, "fisher_z_test", "causal.fisher_z_test"),
        (pipeline, "zscore_anomaly", "rootcause.zscore_anomaly"),
        (pipeline, "service_anomaly", "rootcause.service_anomaly"),
        (pipeline, "localize", "rootcause.localize"),
        (pipeline, "diagnose", "pipeline.diagnose"),
        (runtime, "diagnose", "pipeline.diagnose"),
        (EngineRuntime, "refresh_health", "runtime.refresh_health"),
        (EngineRuntime, "run_diagnosis", "runtime.run_diagnosis"),
        (EngineRuntime, "maintenance_evaluate", "runtime.maintenance_evaluate"),
        (maintenance, "decide_action", "maintenance.decide_action"),
        (runtime, "decide_action", "maintenance.decide_action"),
        (maintenance, "serialize_action_xml", "maintenance.serialize_action_xml"),
        (availability, "load_event_log", "availability.load_event_log"),
        (availability, "availability", "availability.availability"),
    ]
    for owner, attr, name in wraps:
        tracer.wrap_span(owner, attr, name)
    tracer.wrap_span(entropy, "mse_curve", "entropy.mse_curve", peak_memory=mse_memory_peak)


def install_record_wrappers(tracer, capacity_per_key: int) -> None:
    """Per-record timers for the TCP ingest path: line decode, and store
    appends split by whether the key already held its capacity.

    The split counts successful appends per key, which equals the key's
    stored length because the benchmark stream has no duplicate or late
    records (the run checks that deduped and late_dropped stay 0).
    """
    from availkit import ingest
    from availkit.ingest import MetricStore

    tracer.wrap_aggregate(ingest, "parse_metric_line", "ingest.parse_metric_line")
    original = MetricStore.append
    stored: dict = defaultdict(int)
    fill = tracer.aggregates["ingest.append_fill"]
    full = tracer.aggregates["ingest.append_full"]
    clock = time.perf_counter

    def append(self, sample):
        key = sample.key
        agg = full if stored[key] >= capacity_per_key else fill
        t0 = clock()
        try:
            ok = original(self, sample)
        finally:
            agg[0] += 1
            agg[1] += clock() - t0
        if ok:
            stored[key] += 1
        return ok

    tracer.patch(MetricStore, "append", append)
