import json
from pathlib import Path

import numpy as np
import pytest

from availkit.availability import UpDownEvent, load_event_log
from availkit.errors import DegenerateSpec, InvalidSpec
from availkit.errors import MalformedRecord
from availkit.faultsim import (
    _SIM_BLOCK,
    MAX_SIM_VALUES,
    PER_METRIC,
    FaultEvent,
    FaultKind,
    ServiceModel,
    SimSpec,
    _assemble,
    generate_random_spec,
    load_spec,
    save_spec,
    simulate,
    simulate_frames,
    spec_from_dict,
    spec_to_dict,
    stationary_stats,
)
from availkit.ingest import load_metrics_file, serialize_metric_line
from availkit.model import MAX_TS_MS, MetricSample, ServiceDependencyGraph, ServiceNode
from availkit.scenarios import (
    APP,
    DB,
    WEB,
    degradation_spec,
    three_tier_spec,
    three_tier_with_fault,
)


class TestSpecValidation:
    def test_valid_spec(self):
        spec = three_tier_spec(seed=0, duration_ticks=100)
        assert spec.violations() == []

    def test_fault_on_unknown_metric(self):
        spec = three_tier_spec(seed=0, duration_ticks=100)
        spec.faults = [FaultEvent(10, 20, (DB, "no_such_metric"), FaultKind.cpu_hog, 8.0)]
        with pytest.raises(InvalidSpec, match="no_such_metric"):
            spec.validate()

    def test_fault_window_outside_run(self):
        spec = three_tier_spec(seed=0, duration_ticks=100)
        spec.faults = [FaultEvent(50, 200, (DB, "cpu_util"), FaultKind.cpu_hog, 8.0)]
        with pytest.raises(InvalidSpec):
            spec.validate()

    def test_value_count_capped(self):
        per_tick = 13  # metrics of the three-tier spec
        assert three_tier_spec(seed=0, duration_ticks=MAX_SIM_VALUES // per_tick).violations() == []
        spec = three_tier_spec(seed=0, duration_ticks=MAX_SIM_VALUES // per_tick + 1)
        assert spec.violations() == [
            f"duration_ticks x metrics is {spec.duration_ticks * per_tick} values, over {MAX_SIM_VALUES}"]

    def test_last_timestamp_fits_int64(self):
        assert three_tier_spec(seed=0, duration_ticks=2, tick_ms=MAX_TS_MS).violations() == []
        for ticks, tick_ms in ((2, MAX_TS_MS + 1), (100, 2**62)):
            spec = three_tier_spec(seed=0, duration_ticks=ticks, tick_ms=tick_ms)
            assert spec.violations() == [
                f"the last timestamp (duration_ticks - 1) x tick_ms exceeds {MAX_TS_MS}"]

    def test_cyclic_metric_model_rejected(self):
        spec = three_tier_spec(seed=0, duration_ticks=100)
        spec.services[2].edges = [(0, 4), (4, 0)]
        spec.services[2].weights = [0.5, 0.5]
        with pytest.raises(InvalidSpec, match="cycle"):
            spec.validate()


class TestSimulate:
    def test_no_fault_run(self, tmp_path):
        spec = three_tier_spec(seed=1, duration_ticks=50)
        out = simulate(spec, tmp_path)
        assert Path(out.labels_path).read_text() == ""
        logs = load_event_log(out.events_path)
        assert set(logs) == set(spec.topology.nodes)
        for events in logs.values():
            assert len(events) == 1 and events[0].state == "up" and events[0].ts_ms == 0

    def test_seed_determinism_byte_identical(self, tmp_path):
        spec = three_tier_with_fault(FaultKind.cpu_hog, seed=3, duration_ticks=300,
                                     start_tick=100, end_tick=200)
        out1 = simulate(spec, tmp_path / "a")
        out2 = simulate(spec, tmp_path / "b")
        for name in ("metrics_path", "labels_path", "events_path", "topology_path"):
            assert Path(getattr(out1, name)).read_bytes() == Path(getattr(out2, name)).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        s1 = three_tier_spec(seed=1, duration_ticks=50)
        s2 = three_tier_spec(seed=2, duration_ticks=50)
        o1 = simulate(s1, tmp_path / "a")
        o2 = simulate(s2, tmp_path / "b")
        assert Path(o1.metrics_path).read_bytes() != Path(o2.metrics_path).read_bytes()

    def test_big_fault_produces_label_and_down_events(self, tmp_path):
        spec = three_tier_with_fault(FaultKind.cpu_hog, seed=5, duration_ticks=400,
                                     start_tick=100, end_tick=200)
        out = simulate(spec, tmp_path)
        labels = [json.loads(ln) for ln in Path(out.labels_path).read_text().splitlines()]
        assert labels == [
            {
                "tick_start": 100,
                "tick_end": 200,
                "ip": DB.ip,
                "service": DB.service,
                "metric": "cpu_util",
                "kind": "cpu_hog",
            }
        ]
        logs = load_event_log(out.events_path)
        db_states = [(e.ts_ms, e.state) for e in logs[DB]]
        downs = [ts for ts, state in db_states if state == "down"]
        assert downs and 100_000 <= downs[0] <= 110_000  # 8 sigma trips the 6 sigma rule fast

    def test_labels_iff_fault_events(self, tmp_path):
        spec = three_tier_spec(seed=7, duration_ticks=60)
        spec.faults = [
            FaultEvent(10, 20, (DB, "cpu_util"), FaultKind.cpu_hog, 8.0),
            FaultEvent(30, 40, (DB, "io_wait"), FaultKind.io_saturation, 9.0),
        ]
        out = simulate(spec, tmp_path)
        labels = [json.loads(ln) for ln in Path(out.labels_path).read_text().splitlines()]
        assert len(labels) == len(spec.faults)
        for label, fault in zip(labels, spec.faults):
            assert label["metric"] == fault.target[1]
            assert label["kind"] == fault.kind.value

    def test_metrics_file_loads_cleanly(self, tmp_path):
        spec = three_tier_spec(seed=9, duration_ticks=40)
        out = simulate(spec, tmp_path)
        series, stats = load_metrics_file(out.metrics_path)
        assert stats.rejected == 0
        n_metrics = sum(len(m.metrics) for m in spec.services)
        assert len(series) == n_metrics
        assert all(len(s) == 40 for s in series.values())
        assert out.n_samples == 40 * n_metrics


def reference_frames(spec):
    """The simulator stepped one tick at a time: the oracle for the blocked
    simulate_frames. Per tick it draws p innovations, then p observations."""
    asm = _assemble(spec)
    stats = stationary_stats(spec)
    p = len(asm.columns)
    rng = np.random.default_rng(spec.seed)
    col_index = {key: g for g, key in enumerate(asm.columns)}
    service_of = {}
    for g, key in enumerate(asm.columns):
        service_of.setdefault(ServiceNode(key.ip, key.service), []).append(g)

    values = np.zeros((spec.duration_ticks, p))
    u = np.zeros(p)
    events = [UpDownEvent(ts_ms=0, target=node, state="up") for node in spec.topology.nodes]
    state_down = {node: False for node in spec.topology.nodes}
    for t in range(spec.duration_ticks):
        shift = np.zeros(p)
        s_eff = asm.noise.copy()
        mn_eff = asm.measure.copy()
        coupling = asm.coupling
        coupling_scaled = False
        for fault in spec.faults:
            node, metric = fault.target
            g = col_index[(node.ip, node.service, metric)]
            sigma_g = stats.std[g]
            active = fault.start_tick <= t < fault.end_tick
            if fault.kind is FaultKind.config_error:
                if t >= fault.start_tick:
                    shift[g] += fault.magnitude * sigma_g
                continue
            if not active:
                continue
            if fault.kind is FaultKind.cpu_hog:
                shift[g] += fault.magnitude * sigma_g
            elif fault.kind is FaultKind.mem_leak:
                shift[g] += fault.magnitude * sigma_g * (t - fault.start_tick) / 100.0
            elif fault.kind is FaultKind.io_saturation:
                if mn_eff[g] > 0.0:
                    mn_eff[g] *= 1.0 + fault.magnitude
                else:
                    s_eff[g] *= 1.0 + fault.magnitude
            elif fault.kind is FaultKind.dependency_slowdown:
                shift[g] += fault.magnitude * sigma_g
                row = asm.coupled_rows.get(node)
                if row is not None:
                    if not coupling_scaled:
                        coupling = asm.coupling.copy()
                        coupling_scaled = True
                    coupling[row, :] *= 1.0 + fault.magnitude
        eta = rng.normal(size=p) * s_eff
        u = asm.minv @ (coupling @ u + eta + shift)
        seasonal = asm.seasonal_at(t)
        obs = asm.base + seasonal + u + rng.normal(size=p) * mn_eff
        values[t] = obs
        if t >= 1:
            expected = stats.mean + seasonal
            for node, indices in service_of.items():
                down = bool(
                    np.any(np.abs(obs[indices] - expected[indices]) > 6.0 * stats.std[indices])
                )
                if down != state_down[node]:
                    state_down[node] = down
                    events.append(UpDownEvent(
                        ts_ms=t * spec.tick_ms, target=node, state="down" if down else "up"
                    ))
    return values, events


B = _SIM_BLOCK


def _seasonal_boundaries_spec():
    spec = three_tier_spec(seed=19, duration_ticks=B + 300, seasonal=True)
    spec.faults = [
        FaultEvent(B - 200, B + 100, (DB, "mem_used"), FaultKind.mem_leak, 3.0),
        FaultEvent(B - 1, B + 1, (DB, "io_wait"), FaultKind.io_saturation, 20.0),
        FaultEvent(B + 50, B + 300, (WEB, "cpu_util"), FaultKind.cpu_hog, 8.0),
    ]
    return spec


def _overlapping_slowdowns_spec():
    # both APP slowdowns land on its coupling row, the WEB one on another;
    # the first ends more than a block before the last block starts
    spec = three_tier_spec(seed=23, duration_ticks=3 * B + 5)
    spec.faults = [
        FaultEvent(100, B + 10, (APP, "latency"), FaultKind.dependency_slowdown, 2.0),
        FaultEvent(B - 10, 2 * B, (APP, "cpu_util"), FaultKind.dependency_slowdown, 1.5),
        FaultEvent(B, 2 * B, (WEB, "latency"), FaultKind.dependency_slowdown, 0.5),
        FaultEvent(B, B + 1, (DB, "threads_connected"), FaultKind.config_error, 8.0),
    ]
    return spec


def _random_topology_spec():
    spec = generate_random_spec(4, 5, 2.0, seed=7, duration_ticks=B + 300)
    root, leaf = spec.services[0], spec.services[-1]
    spec.faults = [
        FaultEvent(200, B, (root.node, root.metrics[root.coupled_metric]),
                   FaultKind.dependency_slowdown, 3.0),
        FaultEvent(B, B + 300, (leaf.node, "m1"), FaultKind.io_saturation, 9.0),  # no measure noise
        FaultEvent(B - 100, B + 100, (leaf.node, "m2"), FaultKind.cpu_hog, 8.0),
    ]
    return spec


ORACLE_SPECS = {
    **{
        kind.value: (lambda kind=kind, seed=seed: three_tier_with_fault(
            kind, seed, start_tick=B, end_tick=2 * B, duration_ticks=2 * B + 77))
        for seed, kind in enumerate(FaultKind)
    },
    "degradation": lambda: degradation_spec(3, start_tick=B - 1, end_tick=2 * B + 1,
                                            duration_ticks=2 * B + 100),
    "seasonal_boundaries": _seasonal_boundaries_spec,
    "overlapping_slowdowns": _overlapping_slowdowns_spec,
    "random_topology": _random_topology_spec,
}


class TestBlockedOracle:
    """simulate_frames works in blocks of ticks; its values and events must
    equal the tick-by-tick reference bit for bit."""

    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    def test_equals_tick_by_tick_reference(self, name):
        spec = ORACLE_SPECS[name]()
        assert spec.duration_ticks % B != 0
        values, events = reference_frames(spec)
        frames = simulate_frames(spec)
        assert np.array_equal(frames.values, values)
        assert frames.events == events
        assert len(events) > len(spec.topology.nodes)  # the down rule fired

    def test_lines_equal_serialize_metric_line_for_escaped_names(self, tmp_path):
        node = ServiceNode("10.0.0.9", 'caf\u00e9 "front"')
        metrics = ['lat\u00e9ncy "p99"', "100%r hits", "\\path\t"]
        spec = SimSpec(
            topology=ServiceDependencyGraph(nodes=[node], edges=[]),
            services=[ServiceModel(node=node, metrics=metrics)],
            tick_ms=250,
            duration_ticks=300,
            seed=5,
        )
        out = simulate(spec, tmp_path)
        values = simulate_frames(spec).values
        expected = "".join(
            serialize_metric_line(MetricSample(
                ts_ms=t * spec.tick_ms, ip=node.ip, service=node.service, metric=m,
                value=float(values[t, g]),
            ))
            for t in range(spec.duration_ticks)
            for g, m in enumerate(metrics)
        )
        assert Path(out.metrics_path).read_text(encoding="utf-8") == expected
        assert out.n_samples == 3 * spec.duration_ticks

    def test_non_finite_value_rejected_before_writing(self, tmp_path):
        # the leak's shift overflows to inf two ticks in
        spec = three_tier_with_fault(FaultKind.mem_leak, seed=1, start_tick=10, end_tick=20,
                                     duration_ticks=30)
        spec.faults = [FaultEvent(10, 20, (DB, "mem_used"), FaultKind.mem_leak, 1e308)]
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="value must be finite"):
            simulate(spec, tmp_path)
        assert not (tmp_path / "metrics.ndjson").exists()


class TestStationaryStats:
    def test_sample_mean_within_five_standard_errors(self):
        spec = generate_random_spec(3, 5, 2.0, seed=11, duration_ticks=6000)
        frames = simulate_frames(spec)
        stats = frames.stats
        n = spec.duration_ticks
        sample_mean = frames.values.mean(axis=0)
        se = stats.longrun_sd / np.sqrt(n)
        assert np.all(np.abs(sample_mean - stats.mean) <= 5.0 * se)

    def test_sample_std_close_to_analytic(self):
        spec = three_tier_spec(seed=13, duration_ticks=6000)
        frames = simulate_frames(spec)
        ratio = frames.values.std(axis=0) / frames.stats.std
        assert np.all(ratio > 0.9) and np.all(ratio < 1.1)


class TestRandomSpec:
    def test_tree_topology(self):
        spec = generate_random_spec(6, 4, 1.0, seed=17)
        assert len(spec.topology.nodes) == 6
        assert len(spec.topology.edges) == 5
        # connected: everything reachable from the root
        reachable = spec.topology.reachable_from(spec.topology.nodes[0])
        assert len(reachable) == 6

    def test_same_seed_identical(self):
        a = generate_random_spec(4, 6, 2.0, seed=23)
        b = generate_random_spec(4, 6, 2.0, seed=23)
        assert spec_to_dict(a) == spec_to_dict(b)

    def test_zero_degree_no_metric_edges(self):
        spec = generate_random_spec(3, 5, 0.0, seed=29)
        assert all(m.edges == [] for m in spec.services)

    def test_too_few_metrics_rejected(self):
        with pytest.raises(DegenerateSpec):
            generate_random_spec(3, 1, 2.0, seed=31)

    def test_weights_in_declared_range(self):
        spec = generate_random_spec(2, 8, 3.0, seed=37)
        for model in spec.services:
            for w in model.weights:
                assert 0.5 <= abs(w) <= 1.5


class TestSpecSerialization:
    def test_round_trip_dict(self):
        spec = three_tier_with_fault(FaultKind.mem_leak, seed=41, duration_ticks=100,
                                     start_tick=10, end_tick=90)
        doc = spec_to_dict(spec)
        back = spec_from_dict(doc)
        assert spec_to_dict(back) == doc

    def test_round_trip_file(self, tmp_path):
        spec = generate_random_spec(3, 4, 1.5, seed=43)
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        loaded = load_spec(path)
        assert spec_to_dict(loaded) == spec_to_dict(spec)
        frames_a = simulate_frames(spec)
        frames_b = simulate_frames(loaded)
        assert np.array_equal(frames_a.values, frames_b.values)

    def test_round_trip_file_keeps_every_per_metric_list(self, tmp_path):
        spec = three_tier_spec(seed=47, duration_ticks=200, seasonal=True)
        for i, model in enumerate(spec.services):
            k = len(model.metrics)
            for j, (name, default) in enumerate(PER_METRIC.items()):
                # distinct from the default and from every other list
                values = [default + 0.5 + 0.1 * j + 0.01 * i + 0.001 * g for g in range(k)]
                if name == "seasonal_period":
                    values = [40.0 + v for v in values]
                setattr(model, name, values)
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        loaded = load_spec(path)
        for model, back in zip(spec.services, loaded.services):
            for name in PER_METRIC:
                assert getattr(back, name) == getattr(model, name), name
        assert np.array_equal(simulate_frames(loaded).values, simulate_frames(spec).values)

    @pytest.mark.parametrize(
        "key, misspelled",
        [("seed", "sead"), ("duration_ticks", "duration_tick"), ("tick_ms", "tick_msec"),
         ("services", "servces"), ("faults", "fault")],
    )
    def test_misspelled_top_level_key_rejected(self, tmp_path, key, misspelled):
        doc = spec_to_dict(degradation_spec(seed=0, duration_ticks=50, start_tick=10, end_tick=40))
        doc[misspelled] = doc.pop(key)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedRecord, match=f"spec: unknown key.*'{misspelled}'") as exc:
            load_spec(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("misspelled", ["magnitud", "start_tik", "kinds"])
    def test_misspelled_fault_key_rejected(self, tmp_path, misspelled):
        doc = spec_to_dict(degradation_spec(seed=0, duration_ticks=50, start_tick=10, end_tick=40))
        doc["faults"][1][misspelled] = 1.0
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedRecord, match=f"fault 1: unknown key.*'{misspelled}'") as exc:
            load_spec(path)
        assert str(path) in str(exc.value)

    def test_removed_smoothing_key_rejected(self, tmp_path):
        doc = spec_to_dict(three_tier_spec(seed=0, duration_ticks=50))
        doc["services"][2]["smoothing"] = [0.6] * len(doc["services"][2]["metrics"])
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedRecord, match="smoothing") as exc:
            load_spec(path)
        assert str(path) in str(exc.value)
