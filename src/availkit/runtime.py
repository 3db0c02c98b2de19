"""Shared engine state behind the HTTP API, the CLI and the service loops.

One EngineRuntime owns the metric store, the method bus, the mutable
control parameters, the subscriptions, the cached reports and the one
periodic loop that runs the maintenance cycle and every subscription.
"""

from __future__ import annotations

import itertools
import logging
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, replace

from .availability import availability as availability_stats
from .availability import load_event_log
from .bus import InputKind, MethodBus
from .config import EngineConfig
from .entropy import HealthReport, health_score
from .errors import EngineError, MissingField, NoUsableMetric, ParamOutOfBounds, TooManySubscriptions
from .ingest import MetricStore
from .maintenance import MaintenanceAction, MaintenanceLoop, decide_action
from .model import MetricKey, ServiceDependencyGraph, ServiceNode, align, load_topology
from .pipeline import ServiceCut, cut_service, cut_services, diagnose, diagnose_cuts
from .rootcause import Diagnosis

log = logging.getLogger(__name__)

MAX_SUBSCRIPTIONS = 64  # every subscription runs on the one loop thread
KEPT_ACTIONS = 100      # newest emitted maintenance messages kept in EngineRuntime.actions


@dataclass
class Subscription:
    id: str
    method: str
    target: dict  # {"ip", "service"} or {"ip", "service", "metric"}
    params: dict
    period_s: int
    created_at_ms: int
    latest_payload: dict | None = None
    latest_error: str | None = None
    runs: int = 0

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "method": self.method,
            "target": dict(self.target),
            "params": dict(self.params),
            "period_s": self.period_s,
            "created_at_ms": self.created_at_ms,
            "runs": self.runs,
            "latest_payload": self.latest_payload,
            "latest_error": self.latest_error,
        }


class EngineRuntime:
    def __init__(self, config: EngineConfig | None = None) -> None:
        # a copy: set_params replaces its entropy and pc sections
        self.config = replace(config) if config else EngineConfig()
        theta = self.config.diagnosis.theta
        if theta is not None:  # one alarm threshold, governed by set_params
            self.config.entropy = replace(self.config.entropy, alarm_threshold=theta)
            self.config.diagnosis = replace(self.config.diagnosis, theta=None)
        self.store = MetricStore(self.config.ingest)
        self.bus = MethodBus()
        self.topology = ServiceDependencyGraph(nodes=[], edges=[])
        if self.config.topology_path:
            self.topology = load_topology(self.config.topology_path)
        self._lock = threading.RLock()
        self._health_cache: dict[ServiceNode, HealthReport] = {}
        self._latest_diagnosis: Diagnosis | None = None
        self._subscriptions: dict[str, Subscription] = {}
        self._sub_counter = itertools.count(1)
        self._action_counter = itertools.count(1)
        self.actions: deque[str] = deque(maxlen=KEPT_ACTIONS)  # emitted maintenance messages (XML)
        self.loop = MaintenanceLoop(
            self.maintenance_evaluate, self.emit_action, self.config.maintenance_cycle_s
        )
        self._loop_thread: threading.Thread | None = None

    # --- parameters ---

    def get_params(self) -> dict:
        with self._lock:
            return {
                "maintenance_cycle_s": self.loop.cycle_s,
                "alarm_threshold": self.config.entropy.alarm_threshold,
                "alpha": self.config.pc.alpha,
            }

    def set_params(self, updates: dict) -> dict:
        """Atomically apply any of maintenance_cycle_s, alarm_threshold, alpha."""
        known = {"maintenance_cycle_s", "alarm_threshold", "alpha"}
        unknown = set(updates) - known
        if unknown:
            raise ValueError(f"unknown parameter(s): {sorted(unknown)}")
        with self._lock:
            entropy, pc = self.config.entropy, self.config.pc
            if "alarm_threshold" in updates:
                entropy = replace(entropy, alarm_threshold=float(updates["alarm_threshold"]))
            if "alpha" in updates:
                pc = replace(pc, alpha=float(updates["alpha"]))
            if "maintenance_cycle_s" in updates:  # the last check, so a rejection applies nothing
                self.loop.set_cycle_s(updates["maintenance_cycle_s"])
            self.config.entropy, self.config.pc = entropy, pc
            return self.get_params()

    # --- health ---

    def refresh_health(self, node: ServiceNode, cut: ServiceCut | None = None) -> HealthReport | None:
        """Compute and cache the entropy health report for one service from
        the health windows of cut (default: a fresh cut of the store)."""
        econf = self.config.entropy
        if cut is None:
            cut = cut_service(self.store.series_for_service(node), econf, self.config.diagnosis)
        try:  # no health window at all raises NoUsableMetric too
            report = health_score(node, cut.health, econf, computed_at_ms=cut.data_ms)
        except NoUsableMetric:
            return None
        with self._lock:
            self._health_cache[node] = report
        return report

    def health(self, node: ServiceNode) -> HealthReport | None:
        with self._lock:
            cached = self._health_cache.get(node)
            threshold = self.config.entropy.alarm_threshold
        # a report made before set_params changed the threshold is stale
        if cached is not None and cached.threshold == threshold:
            return cached
        return self.refresh_health(node)

    # --- diagnosis ---

    def run_diagnosis(self, entry: ServiceNode, cuts: dict[ServiceNode, ServiceCut] | None = None) -> Diagnosis:
        """Diagnose from entry on a fresh snapshot of the store, or on cuts
        already taken."""
        config = self.config
        args = (self.topology, entry, config.entropy, config.pc, config.anomaly, config.diagnosis)
        diag = diagnose(self.store.all_series(), *args) if cuts is None else diagnose_cuts(cuts, *args)
        with self._lock:
            self._latest_diagnosis = diag
        return diag

    def latest_diagnosis(self) -> Diagnosis | None:
        with self._lock:
            return self._latest_diagnosis

    # --- availability ---

    def availability_report(self, node: ServiceNode):
        if not self.config.events_path:
            return None
        logs = load_event_log(self.config.events_path)
        events = logs.get(node)
        if not events:
            return None
        return availability_stats(events)

    # --- subscriptions ---

    def subscribe(self, method: str, target: dict, params: dict, period_s: int) -> Subscription:
        """Run a bus method every period_s seconds, the first time one period
        from now. Runs happen on the maintenance loop, so only while it is
        running; `availkit serve` always starts it. The target names a
        service by non-empty string ip and service, and a single-series
        method's metric the same way; any other raises MissingField."""
        self.bus.resolve_params(method, params)  # raises UnknownMethod or ParamOutOfBounds
        if not 1 <= period_s <= sys.float_info.max:  # the loop keeps due times as floats
            raise ParamOutOfBounds(f"period_s must be between 1 and {sys.float_info.max:g}")
        fields = ("ip", "service")
        if self.bus.describe(method).input_kind is InputKind.single_series:
            fields += ("metric",)
        for name in fields:
            value = target.get(name)
            if not (isinstance(value, str) and value):
                raise MissingField(f"method {method!r} needs a non-empty string {name!r} in the target")
        with self._lock:
            if len(self._subscriptions) >= MAX_SUBSCRIPTIONS:
                raise TooManySubscriptions(f"at most {MAX_SUBSCRIPTIONS} subscriptions")
            sub_id = f"sub-{next(self._sub_counter)}"
            sub = Subscription(
                id=sub_id,
                method=method,
                target=dict(target),
                params=dict(params),
                period_s=period_s,
                created_at_ms=int(time.time() * 1000),
            )
            self.loop.schedule(sub_id, period_s, lambda: self.run_subscription_once(sub))
            self._subscriptions[sub_id] = sub
        return sub

    def unsubscribe(self, sub_id: str) -> bool:
        with self._lock:
            self.loop.cancel(sub_id)
            return self._subscriptions.pop(sub_id, None) is not None

    def subscriptions(self) -> list[Subscription]:
        with self._lock:
            return [self._subscriptions[k] for k in sorted(self._subscriptions)]

    def _subscription_input(self, sub: Subscription):
        desc = self.bus.describe(sub.method)
        node = ServiceNode(sub.target["ip"], sub.target["service"])  # checked by subscribe
        if desc.input_kind is InputKind.single_series:
            return self.store.series(MetricKey(node.ip, node.service, sub.target["metric"]))
        if desc.input_kind is InputKind.metric_matrix:  # the rows a diagnosis's PC reads
            series_map = self.store.series_for_service(node)
            if not series_map:
                raise ValueError(f"no data for {node.label()}")
            cut = cut_service(series_map, self.config.entropy, self.config.diagnosis)
            return align(cut.pc_input, interval_ms=cut.interval_ms)
        # InputKind.event_log
        if not self.config.events_path:
            raise ValueError("no events file configured")
        return load_event_log(self.config.events_path).get(node, [])

    def run_subscription_once(self, sub: Subscription) -> None:
        try:
            input_value = self._subscription_input(sub)
            sub.latest_payload = self.bus.run(sub.method, input_value, sub.params)
            sub.latest_error = None
        except (EngineError, ValueError) as exc:
            sub.latest_error = str(exc)
        finally:
            sub.runs += 1

    # --- maintenance ---

    def entry_node(self) -> ServiceNode | None:
        if self.config.entry is not None:
            return self.config.entry
        if self.topology.nodes:
            return self.topology.nodes[0]
        return None

    def maintenance_evaluate(self) -> MaintenanceAction | None:
        """One maintenance evaluation: cut each service from one snapshot and
        refresh its health from the cut; on an alarm, diagnose those cuts and
        issue the action at the diagnosis's data time."""
        entry = self.entry_node()
        if entry is None:
            return None
        cuts = cut_services(self.store.all_series(), self.topology.nodes, self.config.entropy, self.config.diagnosis)
        reports = [self.refresh_health(node, cut) for node, cut in cuts.items()]  # all cached for GET /health
        if not any(report is not None and report.alarm for report in reports):
            return None
        diag = self.run_diagnosis(entry, cuts)
        return decide_action(diag, self.config.policy, action_id=f"act-{next(self._action_counter)}",
                             issued_at_ms=diag.produced_at_ms, cycle_s=self.loop.cycle_s)

    def emit_action(self, xml: str) -> None:
        with self._lock:
            self.actions.append(xml)
        log.info("maintenance action emitted:\n%s", xml)

    def start_maintenance_loop(self) -> MaintenanceLoop:
        """Start the loop thread that runs maintenance and subscriptions;
        a second call is a no-op."""
        with self._lock:
            if self._loop_thread is None:
                self._loop_thread = threading.Thread(
                    target=self.loop.run, name="maintenance-loop", daemon=True
                )
                self._loop_thread.start()
        return self.loop

    def stop(self) -> None:
        self.loop.stop()
