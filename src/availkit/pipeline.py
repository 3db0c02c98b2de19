"""End-to-end diagnosis over a store of metric series.

`cut_service` cuts each service's series once: the baseline (first
baseline_n points), the detection window (newest window_n), the health
window (newest entropy window_len) and the PC input (up to the last
baseline bucket). It also decides the one time grid the service is
aligned on, inferred from its timestamps. A diagnosis scores z on the
detection windows, and their entropy alarm only where no metric's z
decided the service (level 1 is the OR of the two). The alarm scores the
windows one metric at a time and stops once score_bound settles it, so a
diagnosis keeps the verdict, not a health report. It then learns the
metric CPDAG from the PC input and feeds both into the two-level
localization. Reports and diagnoses carry the data time of their cuts
(ServiceCut.data_ms), never the wall clock.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .causal import PCConfig, learn_metric_graph
from .entropy import EntropyConfig, health_score, require_finite, score_bound
from .errors import EngineError, NoUsableMetric
from .model import MetricDependencyGraph, MetricKey, MetricSeries, ServiceDependencyGraph, ServiceNode, align
from .rootcause import AnomalyConfig, Diagnosis, ServiceStatus, localize, service_anomaly, zscore_anomaly

log = logging.getLogger(__name__)

MIN_DEFAULT_BASELINE_N = 120  # the default baseline is half the shortest series, at least this
# Relative slack on the bounds that settle an entropy alarm early. It lies
# far above the rounding of a mean of scores, so rounding never flips a
# settled verdict; a service this close to the threshold is scored in full.
ALARM_BOUND_MARGIN = 1e-9


@dataclass(frozen=True)
class DiagnosisSettings:
    baseline_n: int | None = None   # points per series used as baseline (default: half)
    window_n: int | None = None     # detection window length (default: entropy window)
    pc_row_stride: int = 1          # subsample baseline rows for structure learning
    theta: float | None = None      # entropy alarm threshold override

    def __post_init__(self) -> None:
        for name in ("baseline_n", "window_n", "pc_row_stride"):
            value = getattr(self, name)
            if value is None and name != "pc_row_stride":
                continue
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        theta = self.theta
        if theta is not None and not (isinstance(theta, numbers.Real) and math.isfinite(theta) and theta > 0):
            raise ValueError(f"theta must be finite and > 0, got {theta!r}")


def infer_interval(series_map: Mapping[MetricKey, MetricSeries]) -> int:
    """The finest of the series' cadences (1000 when no series has a step).

    A series' cadence is its lower-median positive timestamp step, a step
    that occurs in it. On a regular series that is its only step, and a
    stray near-duplicate timestamp (a resend, a second producer, a clock
    step) does not shrink it, as it would the smallest step."""
    cadences = []
    for series in series_map.values():
        steps = np.diff(series.ts)
        steps = steps[steps > 0]
        if steps.size:
            middle = (steps.size - 1) // 2
            cadences.append(int(np.partition(steps, middle)[middle]))
    return min(cadences, default=1000)


@dataclass
class ServiceCut:
    """One service's series map cut into the windows the engine reads."""

    baseline: dict[str, np.ndarray]   # first baseline_n points of each metric long enough to split
    detection: dict[str, np.ndarray]  # newest window_n points of the same metrics
    health: dict[str, np.ndarray]     # newest entropy window_len points of every non-empty metric
    pc_input: list[MetricSeries]      # every series cut at the last baseline bucket
    interval_ms: int
    warnings: list[str]
    data_ms: int = 0  # newest timestamp of the service's series: the cut's data time


def cut_service(
    series_map: Mapping[MetricKey, MetricSeries], econf: EntropyConfig,
    settings: DiagnosisSettings = DiagnosisSettings(),
) -> ServiceCut:
    """Cut one service's series once, as views of the stored columns. The
    baseline defaults to half the shortest series (at least
    MIN_DEFAULT_BASELINE_N points), the detection window to the entropy
    window, shortened so it never overlaps the baseline. A series shorter
    than both has no baseline or detection window, and a warning says so.

    The cut's interval_ms is the service's one time grid, infer_interval of
    its series: every reader that aligns the service (the diagnosis's PC,
    a matrix subscription) aligns pc_input on it, which spans at most
    baseline_n of its buckets."""
    shortest = min((len(s) for s in series_map.values()), default=0)
    baseline_n = settings.baseline_n or max(MIN_DEFAULT_BASELINE_N, shortest // 2)
    window_n = settings.window_n or min(econf.window_len, max(0, shortest - baseline_n))
    cut = ServiceCut({}, {}, {}, [], infer_interval(series_map), [])
    # The PC input aligns only the first baseline_n buckets: cut each series
    # at the newest baseline timestamp. The buckets start where align's do;
    # with no point at all, align raises EmptyInput.
    t_min = min((int(s.ts[0]) for s in series_map.values() if len(s)), default=0)
    cut.data_ms = max((int(s.ts[-1]) for s in series_map.values() if len(s)), default=0)
    last_ms = min((t_min // cut.interval_ms + baseline_n) * cut.interval_ms - 1, np.iinfo(np.int64).max)
    for key, series in series_map.items():
        values = series.values
        if values.size:
            cut.health[key.metric] = values[-econf.window_len :]
        if window_n and len(values) >= baseline_n + window_n:
            cut.baseline[key.metric] = values[:baseline_n]
            cut.detection[key.metric] = values[-window_n:]
        else:
            cut.warnings.append(f"{key.metric}: too short for baseline/window split")
        end = int(np.searchsorted(series.ts, last_ms, side="right"))
        cut.pc_input.append(MetricSeries(key, series.ts[:end], values[:end]))
    return cut


def cut_services(
    series_by_key: Mapping[MetricKey, MetricSeries], nodes: list[ServiceNode],
    econf: EntropyConfig, settings: DiagnosisSettings = DiagnosisSettings(),
) -> dict[ServiceNode, ServiceCut]:
    """The cut of each of nodes that has a series, in nodes' order."""
    per_service: dict[ServiceNode, dict[MetricKey, MetricSeries]] = {}
    for key, series in series_by_key.items():
        per_service.setdefault(ServiceNode(key.ip, key.service), {})[key] = series
    return {node: cut_service(per_service[node], econf, settings) for node in nodes if node in per_service}


@dataclass
class ServiceAnalysis:
    node: ServiceNode
    status: ServiceStatus
    graph: MetricDependencyGraph | None
    warnings: list[str]


def entropy_alarm(node: ServiceNode, windows: Mapping[str, np.ndarray], econf: EntropyConfig) -> bool:
    """health_score(node, windows, econf).alarm from as few MSE curves as
    the verdict needs.

    Each metric is scored on its own by health_score, in health_score's
    sorted order. Once one participates, scoring stops as soon as a bound
    settles the alarm with ALARM_BOUND_MARGIN to spare:
    - it cannot fire when the highest mean the unscored metrics can reach,
      each at most its score_bound, stays below the threshold;
    - it must fire when the scored sum, spread over the scored and the
      unscored metrics together, lies above it: an unscored metric scores
      at least 0, and one that is excluded only raises the mean.
    Otherwise the alarm is the mean of every participating score, taken as
    health_score takes it. Raises NoUsableMetric, or NonFiniteValue, when
    health_score would."""
    theta = econf.alarm_threshold
    metrics = sorted(windows)
    for metric in metrics:  # health_score refuses a non-finite window long enough to score
        if len(windows[metric]) >= econf.max_scale * (econf.m + 2):
            require_finite(np.asarray(windows[metric], dtype=float))
    bounds = [score_bound(len(windows[metric]), econf) for metric in metrics]
    scores: list[float] = []
    unusable = NoUsableMetric(f"{node.label()} has no window to score")
    for i, metric in enumerate(metrics):
        try:
            scores.append(health_score(node, {metric: windows[metric]}, econf).per_metric_score[metric])
        except NoUsableMetric as exc:
            unusable = exc
        if not scores:
            continue
        total, count = sum(scores), len(scores)
        if total / (count + len(metrics) - i - 1) > theta * (1 + ALARM_BOUND_MARGIN):
            return True
        for bound in sorted(bounds[i + 1 :], reverse=True):  # raise the mean while a bound lifts it
            if bound * count <= total:
                break
            total, count = total + bound, count + 1
        if total / count < theta * (1 - ALARM_BOUND_MARGIN):
            return False
    if not scores:
        raise unusable
    return float(np.mean(scores)) > theta


def analyze_cut(
    node: ServiceNode, cut: ServiceCut, econf: EntropyConfig, pconf: PCConfig, aconf: AnomalyConfig,
    settings: DiagnosisSettings = DiagnosisSettings(),
) -> ServiceAnalysis:
    """Scores and learned metric graph for one service cut. The detection
    windows' entropy alarm is decided only when no metric's z exceeds
    aconf's threshold: service_anomaly's OR needs it only then."""
    warnings = list(cut.warnings)
    zscores = {metric: zscore_anomaly(cut.baseline[metric], window) for metric, window in cut.detection.items()}
    alarm = False
    if cut.detection and not any(score > aconf.z_threshold for score in zscores.values()):
        try:
            alarm = entropy_alarm(node, cut.detection, econf)
        except NoUsableMetric as exc:
            warnings.append(str(exc))

    graph: MetricDependencyGraph | None = None
    if len(cut.pc_input) >= 2:
        try:
            matrix = align(cut.pc_input, interval_ms=cut.interval_ms)
            matrix.values = matrix.values[:: settings.pc_row_stride]
            graph = learn_metric_graph(matrix, pconf)
        except EngineError as exc:
            warnings.append(f"structure learning skipped: {exc}")
    return ServiceAnalysis(node, ServiceStatus(alarm, zscores), graph, warnings)


def diagnose_cuts(
    cuts: Mapping[ServiceNode, ServiceCut], topology: ServiceDependencyGraph, entry: ServiceNode,
    econf: EntropyConfig, pconf: PCConfig, aconf: AnomalyConfig, settings: DiagnosisSettings,
    produced_at_ms: int | None = None,
) -> Diagnosis:
    """Two-level diagnosis from the cuts of topology nodes (a node without
    one is missing). settings.theta, when set, is the entropy alarm
    threshold; produced_at_ms defaults to the cuts' newest data time."""
    if settings.theta is not None:
        econf = replace(econf, alarm_threshold=settings.theta)
    if produced_at_ms is None:
        produced_at_ms = max((cut.data_ms for cut in cuts.values()), default=0)
    statuses: dict[ServiceNode, ServiceStatus] = {}
    graphs: dict[ServiceNode, MetricDependencyGraph] = {}
    scores: dict[tuple[ServiceNode, str], float] = {}
    for node, cut in cuts.items():
        analysis = analyze_cut(node, cut, econf, pconf, aconf, settings)
        for warning in analysis.warnings:
            log.debug("%s: %s", node.label(), warning)
        statuses[node] = analysis.status
        if analysis.graph is not None:
            graphs[node] = analysis.graph
        scores.update(((node, metric), score) for metric, score in analysis.status.metric_scores.items())

    assessment = service_anomaly(statuses, topology, aconf)
    return localize(topology, entry, assessment.anomalous, graphs, scores, aconf, produced_at_ms=produced_at_ms)


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
    cuts = cut_services(series_by_key, topology.nodes, econf, settings)
    return diagnose_cuts(cuts, topology, entry, econf, pconf, aconf, settings, produced_at_ms)
