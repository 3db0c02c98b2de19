"""Deterministic multi-tier workload and fault-injection simulator.

Each service carries a linear-Gaussian structural model over its metrics
(an acyclic within-tick DAG: x_j = sum_k w_jk * x_k + e_j), and callers
are coupled to their designated callee's interface metric with a one-tick
lag. Faults perturb means, drifts, noise scales or coupling weights while
active; a service is "down" while any of its metrics sits more than six
stationary sigmas from its no-fault mean. Identical seeds give
byte-identical output files.

Two optional per-metric knobs extend the plain white-noise model: a
separate white observation-noise scale and a deterministic seasonal level
(periodic workload). Both default to zero (the plain model); degradation
scenarios use them to give healthy traffic a regular texture that
saturation faults then disrupt, which is what makes entropy-based health
scoring observable at all.

Draw order is part of the output contract: per tick, the generator yields
p innovation draws, then p observation-noise draws (p = all metrics, in
column order). The simulator draws, applies faults and scores the down
rule a block of ticks at a time, and steps tick by tick only through the
lagged recursion; the files it writes are byte-identical to those of the
earlier one-tick-at-a-time loop (pinned by the tick-by-tick oracle in
tests/test_faultsim.py).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .availability import UpDownEvent, serialize_event_line
from .errors import DegenerateSpec, InvalidSpec
from .model import (
    MAX_TS_MS,
    MetricKey,
    MetricSample,
    ServiceDependencyGraph,
    ServiceNode,
    read_json,
    save_topology,
    topological_order,
    validate_topology,
)


MAX_SIM_VALUES = 2**24  # duration_ticks x metrics a spec may ask for: 128 MB of float64 values
_SIM_BLOCK = 512    # ticks of noise and fault effects held at once
_WRITE_BLOCK = 128  # ticks of metrics.ndjson lines formatted at once

# Each per-metric list of a ServiceModel, in spec-file order, and the value
# of every entry when the list is omitted.
PER_METRIC = {
    "noise_scales": 1.0,
    "base_levels": 0.0,
    "measure_noise": 0.0,
    "seasonal_amp": 0.0,
    "seasonal_period": 0.0,
    "seasonal_phase": 0.0,
}


class FaultKind(Enum):
    cpu_hog = "cpu_hog"
    mem_leak = "mem_leak"
    io_saturation = "io_saturation"
    config_error = "config_error"
    dependency_slowdown = "dependency_slowdown"


@dataclass(frozen=True)
class FaultEvent:
    start_tick: int
    end_tick: int
    target: tuple[ServiceNode, str]
    kind: FaultKind
    magnitude: float


@dataclass
class ServiceModel:
    """Structural model of one service's metrics."""

    node: ServiceNode
    metrics: list[str]
    edges: list[tuple[int, int]] = field(default_factory=list)  # (parent, child)
    weights: list[float] = field(default_factory=list)
    noise_scales: list[float] | None = None     # innovation scales
    base_levels: list[float] | None = None
    measure_noise: list[float] | None = None    # white observation noise
    seasonal_amp: list[float] | None = None     # periodic workload amplitude
    seasonal_period: list[float] | None = None  # period in ticks (0 = none)
    seasonal_phase: list[float] | None = None   # phase offset in radians
    interface_metric: int = 0                   # exported to callers
    coupled_metric: int | None = None           # driven by the designated callee
    coupling_weight: float = 0.0

    def __post_init__(self) -> None:
        for name, default in PER_METRIC.items():  # an omitted or empty list
            if not getattr(self, name):
                setattr(self, name, [default] * len(self.metrics))


@dataclass
class SimSpec:
    topology: ServiceDependencyGraph
    services: list[ServiceModel]
    tick_ms: int = 1000
    duration_ticks: int = 5000
    faults: list[FaultEvent] = field(default_factory=list)
    seed: int = 0

    def violations(self) -> list[str]:
        problems = [f"topology: {v.kind} {v.detail}" for v in validate_topology(self.topology)]
        if len(self.services) != len(self.topology.nodes):
            problems.append("one service model per topology node is required")
            return problems
        for model, node in zip(self.services, self.topology.nodes):
            name = node.label()
            if model.node != node:
                problems.append(f"{name}: model node does not match topology node")
            k = len(model.metrics)
            if k == 0:
                problems.append(f"{name}: no metrics")
                continue
            if len(set(model.metrics)) != k:
                problems.append(f"{name}: duplicate metric names")
            if len(model.weights) != len(model.edges):
                problems.append(f"{name}: weights not aligned with edges")
            if topological_order(k, model.edges) is None:
                problems.append(f"{name}: metric dependency model has a cycle")
            for i, j in model.edges:
                if not (0 <= i < k and 0 <= j < k):
                    problems.append(f"{name}: edge ({i},{j}) out of range")
            for label in PER_METRIC:
                if len(getattr(model, label)) != k:
                    problems.append(f"{name}: {label} not aligned with metrics")
            if not (0 <= model.interface_metric < k):
                problems.append(f"{name}: interface_metric out of range")
            if model.coupled_metric is not None and not (0 <= model.coupled_metric < k):
                problems.append(f"{name}: coupled_metric out of range")
        by_node = {m.node: m for m in self.services}
        for fault in self.faults:
            node, metric = fault.target
            model = by_node.get(node)
            if model is None:
                problems.append(f"fault targets unknown service {node.label()}")
            elif metric not in model.metrics:
                problems.append(f"fault targets unknown metric {node.label()}/{metric}")
            if not (0 <= fault.start_tick < fault.end_tick <= self.duration_ticks):
                problems.append(
                    f"fault window [{fault.start_tick},{fault.end_tick}) outside run"
                )
            if fault.magnitude <= 0:
                problems.append("fault magnitude must be positive")
        if self.tick_ms <= 0 or self.duration_ticks <= 0:
            problems.append("tick_ms and duration_ticks must be positive")
            return problems
        n_values = self.duration_ticks * sum(len(model.metrics) for model in self.services)
        if n_values > MAX_SIM_VALUES:
            problems.append(f"duration_ticks x metrics is {n_values} values, over {MAX_SIM_VALUES}")
        if (self.duration_ticks - 1) * self.tick_ms > MAX_TS_MS:
            problems.append(f"the last timestamp (duration_ticks - 1) x tick_ms exceeds {MAX_TS_MS}")
        return problems

    def validate(self) -> None:
        problems = self.violations()
        if problems:
            raise InvalidSpec("; ".join(problems))


@dataclass
class _Assembled:
    columns: list[MetricKey]
    offsets: list[int]              # global index of each service's metric 0
    minv: np.ndarray                # (I - W)^-1 over all metrics
    coupling: np.ndarray            # one-tick-lag matrix C
    noise: np.ndarray               # innovation scales
    measure: np.ndarray             # observation noise scales
    base: np.ndarray
    seasonal_amp: np.ndarray
    seasonal_omega: np.ndarray      # 2*pi/period (0 when no seasonality)
    seasonal_phase: np.ndarray
    coupled_rows: dict[ServiceNode, int]  # global row the service's coupling enters

    def seasonal_at(self, tick: int) -> np.ndarray:
        return self.seasonal_amp * np.sin(self.seasonal_omega * tick + self.seasonal_phase)


def _assemble(spec: SimSpec) -> _Assembled:
    offsets: list[int] = []
    columns: list[MetricKey] = []
    total = 0
    for model in spec.services:
        offsets.append(total)
        for metric in model.metrics:
            columns.append(MetricKey(model.node.ip, model.node.service, metric))
        total += len(model.metrics)

    w = np.zeros((total, total))
    for model, off in zip(spec.services, offsets):
        for (parent, child), weight in zip(model.edges, model.weights):
            w[off + child, off + parent] = weight

    coupling = np.zeros((total, total))
    coupled_rows: dict[ServiceNode, int] = {}
    node_index = {node: k for k, node in enumerate(spec.topology.nodes)}
    first_callee: dict[int, int] = {}
    for i, j in spec.topology.edges:
        first_callee.setdefault(i, j)
    for model, off in zip(spec.services, offsets):
        if model.coupled_metric is None or model.coupling_weight == 0.0:
            continue
        caller = node_index[model.node]
        callee = first_callee.get(caller)
        if callee is None:
            continue
        callee_model = spec.services[callee]
        src = offsets[callee] + callee_model.interface_metric
        row = off + model.coupled_metric
        coupling[row, src] = model.coupling_weight
        coupled_rows[model.node] = row

    minv = np.linalg.inv(np.eye(total) - w)
    lists = {
        name: np.concatenate([np.asarray(getattr(m, name), dtype=float) for m in spec.services])
        for name in PER_METRIC
    }
    period = lists["seasonal_period"]
    omega = np.where(period > 0, 2.0 * np.pi / np.where(period > 0, period, 1.0), 0.0)
    return _Assembled(
        columns, offsets, minv, coupling, lists["noise_scales"], lists["measure_noise"],
        lists["base_levels"], lists["seasonal_amp"], omega, lists["seasonal_phase"], coupled_rows,
    )


@dataclass
class StationaryStats:
    mean: np.ndarray        # no-fault observed mean per metric
    std: np.ndarray         # no-fault observed stddev per metric
    longrun_sd: np.ndarray  # sqrt of the long-run variance (for mean SEs)
    columns: list[MetricKey]


def stationary_stats(spec: SimSpec) -> StationaryStats:
    """Analytic no-fault stationary mean/std of every observed metric.

    The system u_t = A u_{t-1} + M e_t (A = M C, M = (I - W)^-1) is linear
    with a one-tick lag, so the stationary covariance solves the discrete
    Lyapunov equation S = A S A^T + Q with Q = M diag(noise^2) M^T, solved
    by fixed-point iteration (A is nilpotent for acyclic topologies). The
    deterministic seasonal level is excluded here; the down-rule
    compensates for it tick by tick.
    """
    asm = _assemble(spec)
    a = asm.minv @ asm.coupling
    q = asm.minv @ np.diag(asm.noise**2) @ asm.minv.T

    sigma = q.copy()
    for _ in range(200000):
        nxt = a @ sigma @ a.T + q
        delta = float(np.max(np.abs(nxt - sigma)))
        sigma = nxt
        if delta < 1e-13 * (1.0 + float(np.max(np.abs(sigma)))):
            break
    std = np.sqrt(np.diag(sigma) + asm.measure**2)

    eye = np.eye(len(asm.columns))
    s_lr = np.linalg.solve(eye - a, np.linalg.solve(eye - a, q.T).T)
    longrun = np.sqrt(np.maximum(np.diag(s_lr), 0.0) + asm.measure**2)
    return StationaryStats(mean=asm.base.copy(), std=std, longrun_sd=longrun, columns=asm.columns)


@dataclass
class SimFrames:
    """In-memory simulation result."""

    columns: list[MetricKey]
    values: np.ndarray                       # (ticks, metrics) observed values
    events: list[UpDownEvent]
    labels: list[dict]
    stats: StationaryStats


def _couplings_per_tick(
    coupling: np.ndarray, rescales: list[tuple[int, float]], active: np.ndarray
) -> list[np.ndarray]:
    """Each tick's coupling matrix: rows of the active rescales multiplied in
    slot order, one matrix per distinct pattern of active slots."""
    if not active.any():
        return [coupling] * len(active)
    patterns, which = np.unique(active, axis=0, return_inverse=True)
    matrices = []
    for pattern in patterns:
        scaled = coupling.copy()
        for on, (row, factor) in zip(pattern, rescales):
            if on:
                scaled[row, :] *= factor
        matrices.append(scaled)
    return [matrices[k] for k in which.reshape(-1).tolist()]


@np.errstate(over="ignore", invalid="ignore")  # simulate's finiteness check reports an overflow
def simulate_frames(spec: SimSpec) -> SimFrames:
    """Run the simulation and keep everything in memory."""
    spec.validate()
    asm = _assemble(spec)
    stats = stationary_stats(spec)
    p = len(asm.columns)
    n_ticks = spec.duration_ticks
    rng = np.random.default_rng(spec.seed)

    col_index = {key: g for g, key in enumerate(asm.columns)}
    # (fault, column, slot): slots number the slowdowns that rescale a
    # coupling row, in spec order; None for every other fault
    faults = []
    rescales: list[tuple[int, float]] = []  # (coupling row, factor) per slot
    for fault in spec.faults:
        node, metric = fault.target
        slot = None
        if fault.kind is FaultKind.dependency_slowdown and node in asm.coupled_rows:
            slot = len(rescales)
            rescales.append((asm.coupled_rows[node], 1.0 + fault.magnitude))
        faults.append((fault, col_index[MetricKey(node.ip, node.service, metric)], slot))
    services = [model.node for model in spec.services]  # column blocks start at asm.offsets
    limit = 6.0 * stats.std

    values = np.empty((n_ticks, p))
    u = np.zeros(p)
    down = np.zeros(len(services), dtype=bool)
    events = [UpDownEvent(ts_ms=0, target=node, state="up") for node in spec.topology.nodes]

    for lo in range(0, n_ticks, _SIM_BLOCK):
        hi = min(n_ticks, lo + _SIM_BLOCK)
        ticks = np.arange(lo, hi)
        draws = rng.normal(size=(hi - lo, 2, p))  # per tick: innovations, then observation noise
        shift = np.zeros((hi - lo, p))
        s_eff = np.tile(asm.noise, (hi - lo, 1))
        mn_eff = np.tile(asm.measure, (hi - lo, 1))
        rescaled = np.zeros((hi - lo, len(rescales)), dtype=bool)
        for fault, g, slot in faults:
            # a config error is a permanent step: it outlasts its end tick
            stop = n_ticks if fault.kind is FaultKind.config_error else fault.end_tick
            a, b = max(fault.start_tick, lo) - lo, min(stop, hi) - lo
            if a >= b:
                continue
            sigma_g = stats.std[g]
            if fault.kind is FaultKind.mem_leak:
                shift[a:b, g] += fault.magnitude * sigma_g * (ticks[a:b] - fault.start_tick) / 100.0
            elif fault.kind is FaultKind.io_saturation:
                # observation noise grows where there is some, else the innovations
                noisy = mn_eff[a:b, g] > 0.0
                mn_eff[a:b, g][noisy] *= 1.0 + fault.magnitude
                s_eff[a:b, g][~noisy] *= 1.0 + fault.magnitude
            else:
                shift[a:b, g] += fault.magnitude * sigma_g
                if slot is not None:
                    rescaled[a:b, slot] = True

        eta = draws[:, 0, :] * s_eff
        u_block = np.empty((hi - lo, p))
        for i, coupling in enumerate(_couplings_per_tick(asm.coupling, rescales, rescaled)):
            u = asm.minv @ (coupling @ u + eta[i] + shift[i])
            u_block[i] = u
        seasonal = asm.seasonal_at(ticks[:, None])
        obs = asm.base + seasonal + u_block + draws[:, 1, :] * mn_eff
        values[lo:hi] = obs

        # six-sigma down rule from tick 1 on; tick 0 keeps the initial state
        exceed = np.abs(obs - (stats.mean + seasonal)) > limit
        state = np.logical_or.reduceat(exceed, asm.offsets, axis=1)
        if lo == 0:
            state[0] = down
        flips = state != np.vstack([down, state[:-1]])
        for i, s in zip(*np.nonzero(flips)):
            events.append(
                UpDownEvent(
                    ts_ms=(lo + int(i)) * spec.tick_ms,
                    target=services[s],
                    state="down" if state[i, s] else "up",
                )
            )
        down = state[-1]

    labels = [
        {
            "tick_start": f.start_tick,
            "tick_end": f.end_tick,
            "ip": f.target[0].ip,
            "service": f.target[0].service,
            "metric": f.target[1],
            "kind": f.kind.value,
        }
        for f in spec.faults
    ]
    return SimFrames(columns=asm.columns, values=values, events=events, labels=labels, stats=stats)


@dataclass
class SimOutput:
    metrics_path: Path
    labels_path: Path
    events_path: Path
    topology_path: Path
    n_samples: int
    n_ticks: int


def _write_metrics(path: Path, frames: SimFrames, tick_ms: int) -> int:
    """Write frames.values as ingestion lines, tick by tick in column order.

    Each line equals serialize_metric_line of the same sample: names go
    through json.dumps and a finite float's %r is what json.dumps emits.
    The MetricSample rules are checked once per column (at the last, largest
    timestamp) and once for all values, before anything is written.
    """
    n_ticks, p = frames.values.shape
    last_ts = (n_ticks - 1) * tick_ms
    for key in frames.columns:  # raises MetricSample's ValueError for a bad key or ts
        MetricSample(ts_ms=last_ts, ip=key.ip, service=key.service, metric=key.metric, value=0.0)
    finite = np.isfinite(frames.values)
    if not finite.all():  # the same for the first non-finite value
        key = frames.columns[0]
        bad = float(frames.values[~finite][0])
        MetricSample(ts_ms=0, ip=key.ip, service=key.service, metric=key.metric, value=bad)

    def literal(text: str) -> str:  # a JSON string, made safe for %-formatting
        return json.dumps(text).replace("%", "%%")

    tick_template = "".join(
        '{"ts_ms": %r, "ip": ' + literal(key.ip) + ', "service": ' + literal(key.service)
        + ', "metric": ' + literal(key.metric) + ', "value": %r}\n'
        for key in frames.columns
    )
    args: list = [None] * (2 * p)  # ts and value of each column, in line order
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, n_ticks, _WRITE_BLOCK):
            hi = min(n_ticks, lo + _WRITE_BLOCK)
            for t, row in zip(range(lo, hi), frames.values[lo:hi].tolist()):
                args[0::2] = [t * tick_ms] * p
                args[1::2] = row
                fh.write(tick_template % tuple(args))
    return n_ticks * p


def simulate(spec: SimSpec, out_dir) -> SimOutput:
    """Run the simulation and write the four output files.

    metrics.ndjson uses the ingestion line format, events.ndjson the
    event-log format, topology.json the topology document, labels.ndjson
    one ground-truth record per injected fault.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    frames = simulate_frames(spec)

    metrics_path = out / "metrics.ndjson"
    n_samples = _write_metrics(metrics_path, frames, spec.tick_ms)

    events_path = out / "events.ndjson"
    with open(events_path, "w", encoding="utf-8") as fh:
        for event in frames.events:
            fh.write(serialize_event_line(event))

    labels_path = out / "labels.ndjson"
    with open(labels_path, "w", encoding="utf-8") as fh:
        for label in frames.labels:
            fh.write(json.dumps(label, separators=(", ", ": ")) + "\n")

    topology_path = out / "topology.json"
    save_topology(spec.topology, topology_path)

    return SimOutput(
        metrics_path=metrics_path,
        labels_path=labels_path,
        events_path=events_path,
        topology_path=topology_path,
        n_samples=n_samples,
        n_ticks=spec.duration_ticks,
    )


def generate_random_spec(
    n_services: int,
    metrics_per_service: int,
    expected_degree: float,
    seed: int,
    duration_ticks: int = 5000,
    tick_ms: int = 1000,
) -> SimSpec:
    """Random tree topology plus random per-service metric DAGs.

    The tree is rooted at service 0 (the entry); metric DAG edges are
    sampled over a random topological order with probability
    expected_degree/(metrics_per_service - 1), weights uniform in
    [0.5, 1.5] with random sign, unit noise.
    """
    if n_services < 1 or metrics_per_service < 2:
        raise DegenerateSpec("need n_services >= 1 and metrics_per_service >= 2")
    if expected_degree < 0:
        raise DegenerateSpec("expected_degree must be non-negative")
    rng = np.random.default_rng(seed)

    nodes = [ServiceNode(f"10.0.0.{k + 1}", f"svc{k}") for k in range(n_services)]
    edges = [(int(rng.integers(0, k)), k) for k in range(1, n_services)]
    topology = ServiceDependencyGraph(nodes=nodes, edges=edges)

    p_edge = min(1.0, expected_degree / (metrics_per_service - 1))
    services: list[ServiceModel] = []
    for node in nodes:
        order = [int(v) for v in rng.permutation(metrics_per_service)]
        dag_edges: list[tuple[int, int]] = []
        weights: list[float] = []
        for a in range(metrics_per_service):
            for b in range(a + 1, metrics_per_service):
                if rng.uniform() < p_edge:
                    dag_edges.append((order[a], order[b]))
                    sign = 1.0 if rng.uniform() < 0.5 else -1.0
                    weights.append(float(sign * rng.uniform(0.5, 1.5)))
        services.append(
            ServiceModel(
                node=node,
                metrics=[f"m{i}" for i in range(metrics_per_service)],
                edges=dag_edges,
                weights=weights,
                noise_scales=[1.0] * metrics_per_service,
                interface_metric=order[-1],
                coupled_metric=order[0],
                coupling_weight=1.0,
            )
        )
    return SimSpec(
        topology=topology,
        services=services,
        tick_ms=tick_ms,
        duration_ticks=duration_ticks,
        faults=[],
        seed=seed,
    )


# --- spec (de)serialization for the CLI ---

def spec_to_dict(spec: SimSpec) -> dict:
    return {
        "tick_ms": spec.tick_ms,
        "duration_ticks": spec.duration_ticks,
        "seed": spec.seed,
        "topology": spec.topology.to_dict(),
        "services": [
            {
                "ip": m.node.ip,
                "service": m.node.service,
                "metrics": list(m.metrics),
                "edges": [[i, j] for i, j in m.edges],
                "weights": list(m.weights),
                **{name: list(getattr(m, name)) for name in PER_METRIC},
                "interface_metric": m.interface_metric,
                "coupled_metric": m.coupled_metric,
                "coupling_weight": m.coupling_weight,
            }
            for m in spec.services
        ],
        "faults": [
            {
                "start_tick": f.start_tick,
                "end_tick": f.end_tick,
                "ip": f.target[0].ip,
                "service": f.target[0].service,
                "metric": f.target[1],
                "kind": f.kind.value,
                "magnitude": f.magnitude,
            }
            for f in spec.faults
        ],
    }


def _reject_unknown(doc: dict, known, where: str) -> None:
    unknown = set(doc) - set(known)
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {sorted(unknown)}")


def spec_from_dict(doc: dict) -> SimSpec:
    """The SimSpec of a spec document; a key spec_to_dict does not write raises ValueError."""
    _reject_unknown(doc, ("tick_ms", "duration_ticks", "seed", "topology", "services", "faults"), "spec")
    topology = ServiceDependencyGraph.from_dict(doc["topology"])
    services = []
    for svc in doc.get("services", []):
        node = ServiceNode(str(svc["ip"]), str(svc["service"]))
        _reject_unknown(svc, [*PER_METRIC, "ip", "service", "metrics", "edges", "weights", "interface_metric",
                              "coupled_metric", "coupling_weight"], f"service {node.label()}")
        services.append(
            ServiceModel(
                node=node,
                metrics=[str(m) for m in svc["metrics"]],
                edges=[(int(e[0]), int(e[1])) for e in svc.get("edges", [])],
                weights=[float(w) for w in svc.get("weights", [])],
                **{name: [float(v) for v in svc.get(name, [])] for name in PER_METRIC},
                interface_metric=int(svc.get("interface_metric", 0)),
                coupled_metric=(
                    None if svc.get("coupled_metric") is None else int(svc["coupled_metric"])
                ),
                coupling_weight=float(svc.get("coupling_weight", 0.0)),
            )
        )
    faults = []
    for i, f in enumerate(doc.get("faults", [])):
        _reject_unknown(f, ("start_tick", "end_tick", "ip", "service", "metric", "kind", "magnitude"), f"fault {i}")
        faults.append(
            FaultEvent(
                start_tick=int(f["start_tick"]),
                end_tick=int(f["end_tick"]),
                target=(ServiceNode(str(f["ip"]), str(f["service"])), str(f["metric"])),
                kind=FaultKind(str(f["kind"])),
                magnitude=float(f["magnitude"]),
            )
        )
    return SimSpec(
        topology=topology,
        services=services,
        tick_ms=int(doc.get("tick_ms", 1000)),
        duration_ticks=int(doc.get("duration_ticks", 5000)),
        faults=faults,
        seed=int(doc.get("seed", 0)),
    )


def load_spec(path) -> SimSpec:
    return read_json(path, spec_from_dict)


def save_spec(spec: SimSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2)
        fh.write("\n")
