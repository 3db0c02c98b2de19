"""Anomaly scoring and two-level root cause localization.

Level 1 walks the service dependency graph from the entry point and keeps
the anomalous services with no anomalous callee (failures propagate
upstream, so the deepest anomalous services are the best candidates).
Level 2 ranks, inside each candidate, the anomalous metrics that have no
anomalous parent in the learned metric dependency graph. Anomalous metrics
that unoriented edges join are one cause or none, since the data leave
their order open: CauseInfer's rule (Chen et al., INFOCOM 2014) that a
cause is an anomalous node with no anomalous parent, applied to the chain
components of the completed graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptyWindow, EntryNotInTopology, NonFiniteValue
from .model import MetricDependencyGraph, ServiceDependencyGraph, ServiceNode


@dataclass(frozen=True)
class AnomalyConfig:
    z_threshold: float = 3.0

    def __post_init__(self) -> None:
        if self.z_threshold <= 0:
            raise ValueError("z_threshold must be positive")


def zscore_anomaly(baseline: Sequence[float] | np.ndarray, window: Sequence[float] | np.ndarray) -> float:
    """Worst absolute deviation of the window from the baseline, in sigma.

    A zero-variance baseline scores 0 when the window never leaves the
    baseline mean, +inf otherwise (any deviation from a flat line is
    maximally anomalous). A NaN or an infinity in either raises
    NonFiniteValue, since it would score NaN, which exceeds no threshold;
    it is read off the mean, the sigma and the worst deviation, so the
    check costs no pass over the data.
    """
    base = np.asarray(baseline, dtype=float)
    win = np.asarray(window, dtype=float)
    if win.size == 0:
        raise EmptyWindow("anomaly window is empty")
    if base.size == 0:
        raise EmptyWindow("baseline is empty")
    mu = float(base.mean())
    sigma = float(base.std())
    worst = float(np.abs(win - mu).max())
    if not (math.isfinite(sigma) and math.isfinite(worst)):
        raise NonFiniteValue("a baseline or window value is NaN or infinite, or the z score overflows")
    if sigma == 0.0:
        return 0.0 if worst == 0.0 else math.inf
    return worst / sigma


def cusum_change(
    series: Sequence[float] | np.ndarray,
    mu0: float,
    sigma: float,
    k: float,
    h: float,
) -> list[int]:
    """Two-sided tabular CUSUM change indices.

    Each side accumulates S_t = max(0, S_{t-1} + (deviation - k*sigma)),
    alarms when S_t > h*sigma, and resets after its own alarm.
    """
    if sigma <= 0 or k <= 0 or h <= 0:
        raise ValueError("sigma, k and h must be positive")
    x = np.asarray(series, dtype=float)
    k *= sigma
    h *= sigma
    s_hi = 0.0
    s_lo = 0.0
    alarms: list[int] = []
    for t, value in enumerate(x):
        s_hi = max(0.0, s_hi + (value - mu0 - k))
        s_lo = max(0.0, s_lo + (mu0 - value - k))
        fired = False
        if s_hi > h:
            fired = True
            s_hi = 0.0
        if s_lo > h:
            fired = True
            s_lo = 0.0
        if fired:
            alarms.append(t)
    return alarms


@dataclass
class ServiceStatus:
    """Everything level 1 needs to know about one service."""

    entropy_alarm: bool = False  # the detection windows' health score is above the threshold
    metric_scores: dict[str, float] = field(default_factory=dict)


@dataclass
class AnomalyAssessment:
    anomalous: set[ServiceNode]
    missing: list[ServiceNode]  # topology nodes absent from the snapshot


def service_anomaly(
    statuses: Mapping[ServiceNode, ServiceStatus],
    topology: ServiceDependencyGraph,
    cfg: AnomalyConfig,
) -> AnomalyAssessment:
    """A service is anomalous when its entropy alarm fired or any of its
    metrics breached the z threshold. Topology nodes missing from the
    snapshot are treated as healthy but flagged."""
    anomalous: set[ServiceNode] = set()
    missing: list[ServiceNode] = []
    for node in topology.nodes:
        status = statuses.get(node)
        if status is None:
            missing.append(node)
            continue
        z_alarm = any(score > cfg.z_threshold for score in status.metric_scores.values())
        if status.entropy_alarm or z_alarm:
            anomalous.add(node)
    return AnomalyAssessment(anomalous=anomalous, missing=missing)


@dataclass
class Diagnosis:
    entry: ServiceNode
    anomalous_services: set[ServiceNode]
    ranked_causes: list[tuple[ServiceNode, str, float]]
    produced_at_ms: int  # data time: the newest timestamp of the diagnosed series
    evidence: list[str]

    def to_dict(self) -> dict:
        return {
            "entry": {"ip": self.entry.ip, "service": self.entry.service},
            "anomalous_services": [
                {"ip": n.ip, "service": n.service} for n in sorted(self.anomalous_services)
            ],
            "ranked_causes": [
                {
                    "ip": node.ip,
                    "service": node.service,
                    "metric": metric,
                    "score": score if math.isfinite(score) else "inf",
                }
                for node, metric, score in self.ranked_causes
            ],
            "produced_at_ms": self.produced_at_ms,
            "evidence": list(self.evidence),
        }


def localize(
    topology: ServiceDependencyGraph,
    entry: ServiceNode,
    anomalous: set[ServiceNode],
    metric_graphs: Mapping[ServiceNode, MetricDependencyGraph],
    scores: Mapping[tuple[ServiceNode, str], float],
    cfg: AnomalyConfig,
    produced_at_ms: int = 0,
) -> Diagnosis:
    """Two-level localization: deepest anomalous services, then their
    anomalous metrics with no anomalous parent, ranked by z-score with a
    total (ip, service, metric) tie-break.

    Anomalous metrics that undirected edges join form one component. It
    is a cause, and all its members are ranked, when no member has an
    anomalous directed parent outside it; its evidence names its
    undirected edges.
    """
    if topology.index_of(entry) is None:
        raise EntryNotInTopology(f"{entry.label()} is not a topology node")

    reachable = set(topology.reachable_from(entry))
    candidates = []
    for node in sorted(anomalous):
        if node not in reachable:
            continue
        if any(callee in anomalous for callee in topology.callees(node)):
            continue
        candidates.append(node)

    causes: list[tuple[ServiceNode, str, float]] = []
    evidence_by_cause: dict[tuple[ServiceNode, str], str] = {}
    for node in candidates:
        node_scores = {
            metric: score for (svc, metric), score in scores.items() if svc == node
        }
        hot = {m for m, s in node_scores.items() if s > cfg.z_threshold}
        parents: dict[str, set[str]] = {m: set() for m in hot}  # directed parents
        neighbours: dict[str, set[str]] = {m: set() for m in hot}  # undirected
        graph = metric_graphs.get(node)
        if graph is not None:
            names = graph.metrics
            for i, j in graph.directed:
                if names[j] in hot:
                    parents[names[j]].add(names[i])
            for i, j in graph.undirected:
                for a, b in ((names[i], names[j]), (names[j], names[i])):
                    if b in hot:
                        neighbours[b].add(a)
        done: set[str] = set()
        for first in sorted(hot):
            if first in done:
                continue
            component, todo = set(), [first]
            while todo:  # the hot metrics undirected edges join to `first`
                metric = todo.pop()
                if metric not in component:
                    component.add(metric)
                    todo.extend(neighbours[metric] & hot)
            done |= component
            if any((parents[m] - component) & hot for m in component):
                continue  # this anomaly is explained by an upstream metric
            edges = sorted(f"{a}-{b}" for a in component for b in neighbours[a] & component if a < b)
            for metric in sorted(component):
                score = node_scores[metric]
                causes.append((node, metric, score))
                outside = sorted((parents[metric] | neighbours[metric]) - component)
                if outside:
                    detail = f"no anomalous parent among {outside}"
                elif edges:
                    detail = "no parent metric outside its component"
                else:
                    detail = "no parent metric in the dependency graph"
                if edges:
                    detail += f"; unoriented edges {', '.join(edges)} join the hot metrics {sorted(component)}"
                shown = "inf" if math.isinf(score) else f"{score:.2f}"
                evidence_by_cause[(node, metric)] = (
                    f"{node.label()}/{metric}: z={shown} exceeds {cfg.z_threshold}; {detail}"
                )

    causes.sort(key=lambda c: (-c[2], (c[0].ip, c[0].service, c[1])))
    evidence = [evidence_by_cause[(node, metric)] for node, metric, _ in causes]
    return Diagnosis(
        entry=entry,
        anomalous_services=set(anomalous),
        ranked_causes=causes,
        produced_at_ms=produced_at_ms,
        evidence=evidence,
    )
