"""End-to-end diagnosis over a store of metric series.

For every topology service this splits each metric series into a baseline
prefix and a detection window, computes z-scores and the entropy health
report on the window, learns the metric dependency CPDAG from baseline
rows, and feeds everything into the two-level localization.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .causal import PCConfig, learn_metric_graph
from .entropy import EntropyConfig, health_score
from .errors import EngineError, NoUsableMetric
from .model import MetricDependencyGraph, MetricKey, MetricSeries, ServiceDependencyGraph, ServiceNode, align
from .rootcause import AnomalyConfig, Diagnosis, ServiceStatus, localize, service_anomaly, zscore_anomaly

log = logging.getLogger(__name__)

MIN_DEFAULT_BASELINE_N = 120  # the default baseline is half the shortest series, at least this


@dataclass(frozen=True)
class DiagnosisSettings:
    baseline_n: int | None = None   # points per series used as baseline (default: half)
    window_n: int | None = None     # detection window length (default: entropy window)
    interval_ms: int | None = None  # alignment interval (default: inferred)
    pc_row_stride: int = 1          # subsample baseline rows for structure learning
    theta: float | None = None      # entropy alarm threshold override

    def __post_init__(self) -> None:
        for name in ("baseline_n", "window_n", "interval_ms", "pc_row_stride"):
            value = getattr(self, name)
            if value is None and name != "pc_row_stride":
                continue
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        theta = self.theta
        if theta is not None and not (isinstance(theta, numbers.Real) and math.isfinite(theta) and theta > 0):
            raise ValueError(f"theta must be finite and > 0, got {theta!r}")


def infer_interval(series_map: Mapping[MetricKey, MetricSeries]) -> int:
    """Smallest positive timestamp step over all series (1000 when none)."""
    diffs = []
    for series in series_map.values():
        if series.ts.size >= 2:
            d = np.diff(series.ts)
            d = d[d > 0]
            if d.size:
                diffs.append(int(d.min()))
    return min(diffs) if diffs else 1000


def _split_lengths(
    series_map: Mapping[MetricKey, MetricSeries],
    econf: EntropyConfig,
    settings: DiagnosisSettings,
) -> tuple[int, int]:
    shortest = min((len(s) for s in series_map.values()), default=0)
    baseline_n = settings.baseline_n
    if baseline_n is None:
        baseline_n = max(MIN_DEFAULT_BASELINE_N, shortest // 2)
    window_n = settings.window_n
    if window_n is None:
        window_n = min(econf.window_len, max(0, shortest - baseline_n))
    return baseline_n, window_n


@dataclass
class ServiceAnalysis:
    node: ServiceNode
    status: ServiceStatus
    graph: MetricDependencyGraph | None
    warnings: list[str]


def analyze_service(
    node: ServiceNode,
    series_map: Mapping[MetricKey, MetricSeries],
    econf: EntropyConfig,
    pconf: PCConfig,
    settings: DiagnosisSettings = DiagnosisSettings(),
    computed_at_ms: int | None = None,
) -> ServiceAnalysis:
    """Scores, health report and learned metric graph for one service."""
    warnings: list[str] = []
    baseline_n, window_n = _split_lengths(series_map, econf, settings)

    zscores: dict[str, float] = {}
    windows: dict[str, np.ndarray] = {}
    for key, series in series_map.items():
        values = series.values
        if window_n == 0 or len(values) < baseline_n + window_n:
            warnings.append(f"{key.metric}: too short for baseline/window split")
            continue
        baseline = values[:baseline_n]
        detection = values[-window_n:]
        zscores[key.metric] = zscore_anomaly(baseline, detection)
        windows[key.metric] = detection

    health = None
    if windows:
        try:
            health = health_score(node, windows, econf, computed_at_ms=computed_at_ms)
        except NoUsableMetric as exc:
            warnings.append(str(exc))

    graph: MetricDependencyGraph | None = None
    if len(series_map) >= 2:
        interval = settings.interval_ms or infer_interval(series_map)
        # Align only the first baseline_n buckets: cut each series at the
        # newest baseline timestamp first. The buckets start where align's
        # do; with no point at all, align raises EmptyInput.
        t_min = min((int(s.ts[0]) for s in series_map.values() if len(s)), default=0)
        last_ms = min((t_min // interval + baseline_n) * interval - 1, np.iinfo(np.int64).max)
        cut_series = []
        for key, series in series_map.items():
            cut = int(np.searchsorted(series.ts, last_ms, side="right"))
            cut_series.append(MetricSeries(key, series.ts[:cut], series.values[:cut]))
        try:
            matrix = align(cut_series, interval_ms=interval)
            matrix.values = matrix.values[:: settings.pc_row_stride]
            graph = learn_metric_graph(matrix, pconf)
        except EngineError as exc:
            warnings.append(f"structure learning skipped: {exc}")
    return ServiceAnalysis(
        node=node,
        status=ServiceStatus(health=health, metric_scores=zscores),
        graph=graph,
        warnings=warnings,
    )


def diagnose(
    series_by_key: Mapping[MetricKey, MetricSeries],
    topology: ServiceDependencyGraph,
    entry: ServiceNode,
    econf: EntropyConfig = EntropyConfig(),
    pconf: PCConfig = PCConfig(),
    aconf: AnomalyConfig = AnomalyConfig(),
    settings: DiagnosisSettings = DiagnosisSettings(),
    produced_at_ms: int | None = None,
) -> Diagnosis:
    """Full two-level diagnosis from raw series."""
    per_service: dict[ServiceNode, dict[MetricKey, MetricSeries]] = {}
    for key, series in series_by_key.items():
        per_service.setdefault(ServiceNode(key.ip, key.service), {})[key] = series

    statuses: dict[ServiceNode, ServiceStatus] = {}
    graphs: dict[ServiceNode, MetricDependencyGraph] = {}
    scores: dict[tuple[ServiceNode, str], float] = {}
    for node in topology.nodes:
        series_map = per_service.get(node)
        if not series_map:
            continue  # flagged as missing by service_anomaly
        analysis = analyze_service(node, series_map, econf, pconf, settings, computed_at_ms=produced_at_ms)
        for warning in analysis.warnings:
            log.debug("%s: %s", node.label(), warning)
        statuses[node] = analysis.status
        if analysis.graph is not None:
            graphs[node] = analysis.graph
        for metric, score in analysis.status.metric_scores.items():
            scores[(node, metric)] = score

    assessment = service_anomaly(statuses, topology, aconf, theta=settings.theta)
    return localize(
        topology,
        entry,
        assessment.anomalous,
        graphs,
        scores,
        aconf,
        produced_at_ms=produced_at_ms,
    )
