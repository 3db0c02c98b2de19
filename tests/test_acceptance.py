"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from availkit.availability import availability, forecast_failure_time, UpDownEvent
from availkit.causal import (
    PCConfig,
    cpdag_of_dag,
    d_separated,
    meek_closure,
    orient_v_structures,
    pc_skeleton,
    skeleton_from_ci,
)
from availkit.entropy import EntropyConfig, health_score, sample_entropy
from availkit.faultsim import FaultKind, generate_random_spec, simulate, simulate_frames
from availkit.ingest import MetricSample, load_metrics_file, parse_metric_line, serialize_metric_line
from availkit.maintenance import (
    ActionKind,
    MaintenanceAction,
    MaintenanceLoop,
    decide_action,
    default_policy,
    parse_action_xml,
    serialize_action_xml,
)
from availkit.model import MetricMatrix, MetricSeries, ServiceNode
from availkit.pipeline import DiagnosisSettings, diagnose
from availkit.rootcause import AnomalyConfig, Diagnosis
from availkit.scenarios import DB, FAULT_TARGETS, WEB, degradation_spec, three_tier_with_fault


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --- criterion 1: sample-entropy oracle equivalence ---

def oracle_sampen(x: np.ndarray, m: int, r: float):
    """Independent brute-force counter: per-template row scans over
    sliding-window template matrices (all ordered pairs enumerated)."""
    n = len(x)
    t = n - m
    templates_m = np.lib.stride_tricks.sliding_window_view(x, m)[:t]
    templates_m1 = np.lib.stride_tricks.sliding_window_view(x, m + 1)[:t]
    b = a = 0
    for i in range(t):
        b += int((np.abs(templates_m - templates_m[i]).max(axis=1) <= r).sum()) - 1
        a += int((np.abs(templates_m1 - templates_m1[i]).max(axis=1) <= r).sum()) - 1
    if b == 0:
        return None
    if a == 0:
        return math.log(b + 1)
    return -math.log(a / b)


def test_criterion_1_sampen_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=500)
        r = 0.15 * float(np.std(x))
        fast = sample_entropy(x, m=2, r=r)
        want = oracle_sampen(x, 2, r)
        assert fast.value is not None and want is not None
        worst = max(worst, abs(fast.value - want))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    report(1, ok, f"100 series, worst |fast - oracle| = {worst:.2e}, {elapsed:.1f}s")


# --- criterion 2: figure-4 qualitative reproduction ---

def test_criterion_2_entropy_rises_toward_failure():
    start = time.monotonic()
    cfg = EntropyConfig()
    wins = 0
    margins = []
    for seed in range(20):
        spec = degradation_spec(seed)
        frames = simulate_frames(spec)
        db_cols = {
            key.metric: g for g, key in enumerate(frames.columns) if key.service == DB.service
        }
        healthy = {m: frames.values[600:1200, g] for m, g in db_cols.items()}
        failure = {m: frames.values[3000:3600, g] for m, g in db_cols.items()}
        h = health_score(DB, healthy, cfg, computed_at_ms=0)
        f = health_score(DB, failure, cfg, computed_at_ms=0)
        margins.append(f.score - h.score)
        if f.score > h.score:
            wins += 1
    elapsed = time.monotonic() - start
    ok = wins >= 19 and elapsed < 120.0
    report(
        2,
        ok,
        f"failure-phase score above healthy in {wins}/20 runs "
        f"(median margin {np.median(margins):+.2f}), {elapsed:.1f}s",
    )


# --- criterion 3: causal discovery oracle + finite-sample F1 ---

def _random_dag(n, rng, p=0.35):
    order = rng.permutation(n)
    return {
        (int(order[a]), int(order[b]))
        for a in range(n)
        for b in range(a + 1, n)
        if rng.uniform() < p
    }


def _named(graph):
    directed = {(graph.metrics[i], graph.metrics[j]) for i, j in graph.directed}
    undirected = {tuple(sorted((graph.metrics[i], graph.metrics[j]))) for i, j in graph.undirected}
    return directed, undirected


def _sample_sem(seed, n_rows=5000, n_metrics=10, degree=2.0):
    spec = generate_random_spec(1, n_metrics, degree, seed=seed)
    model = spec.services[0]
    w = np.zeros((n_metrics, n_metrics))
    for (parent, child), weight in zip(model.edges, model.weights):
        w[child, parent] = weight
    minv = np.linalg.inv(np.eye(n_metrics) - w)
    rng = np.random.default_rng(1000 + seed)
    data = rng.normal(size=(n_rows, n_metrics)) @ minv.T
    true_edges = {(min(i, j), max(i, j)) for i, j in model.edges}
    matrix = MetricMatrix(1000, 0, [f"m{i}" for i in range(n_metrics)], data)
    return matrix, true_edges


def test_criterion_3_causal_discovery_oracle_and_f1():
    start = time.monotonic()
    exact = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        edges = _random_dag(n, rng)
        names = [f"x{i}" for i in range(n)]
        skel = skeleton_from_ci(
            n, lambda i, j, s: d_separated(n, edges, i, j, s), max_cond=max(0, n - 2)
        )
        learned = meek_closure(orient_v_structures(skel, metrics=names))
        truth = cpdag_of_dag(names, edges)
        if _named(learned) == _named(truth):
            exact += 1

    f1s = []
    for seed in range(20):
        matrix, true_edges = _sample_sem(seed)
        skel = pc_skeleton(matrix, PCConfig(alpha=0.01, max_cond=3))
        found = set(skel.edges())
        tp = len(found & true_edges)
        fp = len(found - true_edges)
        fn = len(true_edges - found)
        f1s.append(2 * tp / (2 * tp + fp + fn) if (tp + fp + fn) else 1.0)
    mean_f1 = float(np.mean(f1s))
    elapsed = time.monotonic() - start
    ok = exact == 50 and mean_f1 >= 0.90 and elapsed < 120.0
    report(3, ok, f"oracle CPDAG {exact}/50 exact, mean skeleton F1 {mean_f1:.3f}, {elapsed:.1f}s")


# --- criterion 4: PC-stable order independence ---

def test_criterion_4_order_independence():
    from availkit.causal import learn_metric_graph

    start = time.monotonic()
    identical = 0
    for seed in range(20):
        matrix, _ = _sample_sem(seed + 100)
        names = matrix.column_names()
        g1 = learn_metric_graph(matrix, PCConfig())
        rng = np.random.default_rng(seed)
        perm = rng.permutation(len(names))
        permuted = MetricMatrix(
            matrix.interval_ms,
            matrix.start_ms,
            [names[k] for k in perm],
            matrix.values[:, perm],
        )
        g2 = learn_metric_graph(permuted, PCConfig())
        if _named(g1) == _named(g2):
            identical += 1
    elapsed = time.monotonic() - start
    ok = identical == 20
    report(4, ok, f"graphs identical up to relabeling on {identical}/20 permuted datasets, {elapsed:.1f}s")


# --- criterion 5: two-level root cause ---

def _frames_to_series(frames, tick_ms):
    return {
        key: MetricSeries(key, np.arange(frames.values.shape[0]) * tick_ms, frames.values[:, g])
        for g, key in enumerate(frames.columns)
    }


def test_criterion_5_two_level_root_cause():
    start = time.monotonic()
    econf = EntropyConfig(alarm_threshold=10.0)
    pconf = PCConfig()
    aconf = AnomalyConfig(z_threshold=5.0)
    settings = DiagnosisSettings(baseline_n=1200, window_n=600, pc_row_stride=5, theta=10.0)
    top1 = top3 = total = 0
    for kind in FaultKind:
        for seed in range(10):
            spec = three_tier_with_fault(kind, seed)
            frames = simulate_frames(spec)
            diag = diagnose(
                _frames_to_series(frames, spec.tick_ms),
                spec.topology,
                WEB,
                econf,
                pconf,
                aconf,
                settings,
                produced_at_ms=0,
            )
            total += 1
            if diag.ranked_causes and diag.ranked_causes[0][0] == DB:
                top1 += 1
            target = (DB, FAULT_TARGETS[kind][0])
            if target in [(c[0], c[1]) for c in diag.ranked_causes[:3]]:
                top3 += 1
    elapsed = time.monotonic() - start
    ok = top1 >= 0.9 * total and top3 >= 0.8 * total and elapsed < 180.0
    report(
        5,
        ok,
        f"injected service top-ranked {top1}/{total}, (service, metric) in top-3 {top3}/{total}, "
        f"{elapsed:.1f}s",
    )


# --- criterion 6: availability arithmetic and forecast exactness ---

def test_criterion_6_availability_and_forecast():
    node = ServiceNode("10.0.0.3", "db")

    def log(*pairs):
        return [UpDownEvent(ts_ms=ts, target=node, state=state) for ts, state in pairs]

    sla = availability(log((0, "up"), (1999, "down"), (2000, "up"), (3999, "down"), (4000, "up")))
    exact_cases = [
        (sla.availability, 0.9995),
        (availability(log((0, "up"), (10, "down"), (20, "up"), (30, "down"), (40, "up"))).availability, 0.5),
        (availability(log((0, "up"), (999, "down"), (1000, "up"), (1999, "down"), (2000, "up"))).availability, 0.999),
    ]
    arithmetic_ok = all(got == want for got, want in exact_cases)
    identity_ok = sla.availability == sla.mttf_ms / (sla.mttf_ms + sla.mttr_ms)

    rng = np.random.default_rng(7)
    worst_rel = 0.0
    for _ in range(100):
        slope = float(rng.uniform(1e-7, 1e-2))
        intercept = float(rng.uniform(-1.0, 0.5))
        ts = np.arange(0, 30) * 1000
        history = [(int(t), intercept + slope * t) for t in ts]
        theta = history[-1][1] + float(rng.uniform(0.01, 3.0))
        forecast = forecast_failure_time(history, theta=theta, fit_window=30)
        expected = (theta - intercept) / slope
        assert forecast.kind == "crossing"
        worst_rel = max(worst_rel, abs(forecast.crossing_ts_ms - expected) / expected)
    forecast_ok = worst_rel <= 1e-9
    ok = arithmetic_ok and identity_ok and forecast_ok
    report(
        6,
        ok,
        f"(1999,1) -> {sla.availability}, identities exact, "
        f"worst forecast relative error {worst_rel:.2e}",
    )


# --- criterion 7: round trips ---

def test_criterion_7_round_trips():
    rng = np.random.default_rng(11)
    metrics_ok = 0
    for i in range(1000):
        sample = MetricSample(
            ts_ms=int(rng.integers(0, 2**52)),
            ip=f"{rng.integers(1, 255)}.{rng.integers(0, 255)}.{rng.integers(0, 255)}.{rng.integers(1, 255)}",
            service=f"svc-{i % 13}",
            metric=f"metric_{i % 31}",
            value=float(rng.normal() * 10.0 ** int(rng.integers(-8, 9))),
        )
        if parse_metric_line(serialize_metric_line(sample)) == sample:
            metrics_ok += 1

    kinds = list(ActionKind)
    actions_ok = 0
    for i in range(1000):
        action = MaintenanceAction(
            id=f"act-{i}",
            issued_at_ms=int(rng.integers(0, 2**48)),
            target=ServiceNode(f"10.{rng.integers(0, 255)}.{rng.integers(0, 255)}.{rng.integers(1, 255)}", f"s{i % 11}"),
            kind=kinds[i % 4],
            reason_metric=f"m<{i}>&\"x\"",
            reason_score=float(rng.normal()) if i % 9 else math.inf,
            cycle_s=int(rng.integers(1, 100000)),
        )
        if parse_action_xml(serialize_action_xml(action)) == action:
            actions_ok += 1
    ok = metrics_ok == 1000 and actions_ok == 1000
    report(7, ok, f"metric lines {metrics_ok}/1000, maintenance XML {actions_ok}/1000 identities")


# --- criterion 8: end to end under 60 s plus scripted maintenance ---

def test_criterion_8_end_to_end(tmp_path):
    start = time.monotonic()
    spec = three_tier_with_fault(
        FaultKind.cpu_hog, seed=2, start_tick=5200, end_tick=7700, duration_ticks=7700
    )
    out = simulate(spec, tmp_path)  # 7700 ticks x 13 metrics = 100100 samples
    assert out.n_samples >= 100_000
    series, stats = load_metrics_file(out.metrics_path)
    assert stats.rejected == 0
    diag = diagnose(
        series,
        spec.topology,
        WEB,
        EntropyConfig(alarm_threshold=10.0),
        PCConfig(),
        AnomalyConfig(z_threshold=5.0),
        DiagnosisSettings(baseline_n=2600, window_n=600, pc_row_stride=5, theta=10.0),
        produced_at_ms=0,
    )
    elapsed = time.monotonic() - start
    e2e_ok = elapsed < 60.0 and bool(diag.ranked_causes) and diag.ranked_causes[0][0] == DB

    # scripted maintenance: alarm on one tick only
    alarm_schedule = [False, False, True, False, False]
    state = {"i": 0}

    def evaluate():
        fired = alarm_schedule[state["i"] % len(alarm_schedule)]
        state["i"] += 1
        if not fired:
            return None
        return decide_action(diag, default_policy(), f"act-{state['i']}", 0, cycle_s=60)

    emitted = []
    loop = MaintenanceLoop(evaluate, emitted.append, cycle_s=60)
    for _ in range(len(alarm_schedule)):
        loop.tick()
    one_action_ok = len(emitted) == 1 and parse_action_xml(emitted[0]).target == DB

    quiet = []
    quiet_loop = MaintenanceLoop(lambda: None, quiet.append, cycle_s=60)
    for _ in range(5):
        quiet_loop.tick()
    zero_ok = quiet == []

    ok = e2e_ok and one_action_ok and zero_ok
    report(
        8,
        ok,
        f"simulate({out.n_samples} samples) -> ingest -> diagnose in {elapsed:.1f}s; "
        f"alarm tick emitted {len(emitted)} action(s), quiet run emitted {len(quiet)}",
    )


# --- criterion 9: determinism ---

def test_criterion_9_determinism(tmp_path):
    spec = three_tier_with_fault(
        FaultKind.io_saturation, seed=4, start_tick=400, end_tick=900, duration_ticks=900
    )
    out_a = simulate(spec, tmp_path / "a")
    out_b = simulate(spec, tmp_path / "b")
    files_ok = all(
        Path(getattr(out_a, name)).read_bytes() == Path(getattr(out_b, name)).read_bytes()
        for name in ("metrics_path", "labels_path", "events_path", "topology_path")
    )

    series_a, _ = load_metrics_file(out_a.metrics_path)
    series_b, _ = load_metrics_file(out_b.metrics_path)
    kwargs = dict(
        econf=EntropyConfig(alarm_threshold=10.0),
        pconf=PCConfig(),
        aconf=AnomalyConfig(z_threshold=5.0),
        settings=DiagnosisSettings(baseline_n=300, window_n=400, pc_row_stride=3, theta=10.0),
        produced_at_ms=0,
    )
    d1 = diagnose(series_a, spec.topology, WEB, **kwargs)
    d2 = diagnose(series_b, spec.topology, WEB, **kwargs)
    diag_ok = d1.to_dict() == d2.to_dict()
    ok = files_ok and diag_ok
    report(9, ok, f"byte-identical outputs: {files_ok}, value-identical diagnoses: {diag_ok}")
