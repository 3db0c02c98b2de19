import json
import threading

import numpy as np
import pytest

from availkit import entropy
from availkit.config import EngineConfig, load_config
from availkit.config import config_from_dict
from availkit.entropy import EntropyConfig, health_score
from availkit.errors import MissingField, ParamOutOfBounds
from availkit.errors import MalformedRecord
from availkit.faultsim import FaultKind, simulate
from availkit.maintenance import ActionKind, MaintenanceLoop, parse_action_xml, serialize_action_xml
from availkit.model import MetricKey, MetricSample, ServiceNode, align
from availkit.pipeline import DiagnosisSettings, cut_service
from availkit.rootcause import AnomalyConfig
from availkit.runtime import EngineRuntime
from availkit.runtime import KEPT_ACTIONS
from availkit.scenarios import DB, WEB, degradation_spec, three_tier_with_fault
from fakeclock import FakeClock


@pytest.fixture(scope="module")
def degraded_sim(tmp_path_factory):
    return simulate(degradation_spec(seed=3), tmp_path_factory.mktemp("sim"))


def make_runtime(sim) -> EngineRuntime:
    config = EngineConfig(topology_path=str(sim.topology_path), events_path=str(sim.events_path))
    runtime = EngineRuntime(config)
    runtime.store.load_file(sim.metrics_path)
    return runtime


@pytest.fixture(scope="module")
def degraded_runtime(degraded_sim):
    runtime = make_runtime(degraded_sim)
    yield runtime
    runtime.stop()


@pytest.fixture
def fresh_runtime(degraded_sim):
    runtime = make_runtime(degraded_sim)
    yield runtime
    runtime.stop()


def fake_loop(runtime: EngineRuntime) -> FakeClock:
    """Move runtime's periodic work onto a loop on a fake clock; the test
    then calls runtime.loop.run() and stops it from a scheduled job."""
    clock = FakeClock()
    runtime.loop = MaintenanceLoop(runtime.maintenance_evaluate, runtime.emit_action, runtime.loop.cycle_s, clock=clock)
    return clock


DB_IO_WAIT = {"ip": DB.ip, "service": DB.service, "metric": "io_wait"}


class TestConfigFile:
    def test_load_and_defaults(self, tmp_path):
        doc = {
            "ingest": {"listen_endpoint": "127.0.0.1:9999", "store_capacity_per_key": 5000},
            "entropy": {"alarm_threshold": 2.0},
            "pc": {"alpha": 0.05},
            "anomaly": {"z_threshold": 4.0},
            "policy": {"costs": {"migrate": 99.0}},
            "topology_path": "topo.json",
            "entry": {"ip": "10.0.0.1", "service": "web"},
            "maintenance_cycle_s": 120,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        config = load_config(path)
        assert config.ingest.listen_endpoint == "127.0.0.1:9999"
        assert config.ingest.store_capacity_per_key == 5000
        assert config.ingest.out_of_order_buffer_ms == 5000  # default kept
        assert config.entropy.alarm_threshold == 2.0
        assert config.entropy.m == 2
        assert config.pc.alpha == 0.05
        assert config.anomaly.z_threshold == 4.0
        assert config.policy.costs[ActionKind.migrate] == 99.0
        assert config.topology_path == str(tmp_path / "topo.json")
        assert config.entry == ServiceNode("10.0.0.1", "web")
        assert config.maintenance_cycle_s == 120

    @pytest.mark.parametrize("field", ["r_fraction", "alarm_threshold"])
    def test_infinite_entropy_setting_rejected(self, field):
        with pytest.raises(MalformedRecord, match="entropy"):
            config_from_dict({"entropy": {field: float("inf")}})


class TestRuntime:
    def test_health_computed_and_cached(self, degraded_runtime):
        report = degraded_runtime.health(DB)
        assert report is not None
        assert report.alarm  # failure-phase window scores above the default threshold

    def test_subscription_run_produces_payload(self, degraded_runtime):
        sub = degraded_runtime.subscribe(
            "mse",
            {"ip": DB.ip, "service": DB.service, "metric": "io_wait"},
            {},
            period_s=3600,
        )
        try:
            degraded_runtime.run_subscription_once(sub)
            assert sub.latest_error is None
            assert sub.latest_payload is not None
            assert len(sub.latest_payload["curve"]) == 10
        finally:
            degraded_runtime.unsubscribe(sub.id)

    def test_maintenance_evaluate_emits_action_on_alarm(self, degraded_runtime):
        action = degraded_runtime.maintenance_evaluate()
        assert action is not None
        assert action.target == DB
        degraded_runtime.emit_action("<maintenance_action/>")
        assert degraded_runtime.actions

    def test_action_log_keeps_the_newest(self, fresh_runtime):
        for i in range(KEPT_ACTIONS + 5):
            fresh_runtime.emit_action(f"<maintenance_action id='{i}'/>")
        assert len(fresh_runtime.actions) == KEPT_ACTIONS
        assert fresh_runtime.actions[0] == "<maintenance_action id='5'/>"
        assert fresh_runtime.actions[-1] == f"<maintenance_action id='{KEPT_ACTIONS + 4}'/>"

    def test_period_beyond_float_range_rejected(self, fresh_runtime):
        # used to raise OverflowError from the loop's due-time arithmetic
        with pytest.raises(ParamOutOfBounds):
            fresh_runtime.subscribe("zscore", DB_IO_WAIT, {}, period_s=10**400)
        assert fresh_runtime.subscriptions() == []

    @pytest.mark.parametrize("params", [{"m": 0}, {"bogus": 1}, {"r_fraction": "x"}],
                             ids=["below_bound", "unknown", "unreadable"])
    def test_bad_subscription_params_register_nothing(self, fresh_runtime, params):
        # accepted, they would fail on every run
        with pytest.raises(ParamOutOfBounds):
            fresh_runtime.subscribe("mse", DB_IO_WAIT, params, period_s=5)
        assert fresh_runtime.subscriptions() == []

    @pytest.mark.parametrize("method, target", [
        ("mse", {"ip": DB.ip, "service": DB.service}),
        ("mse", {**DB_IO_WAIT, "metric": ""}),
        ("pc", {"ip": DB.ip}),
        ("pc", {"ip": DB.ip, "service": ""}),
        ("zscore", {"ip": 5, "service": [], "metric": {}}),
        ("availability", {"ip": DB.ip, "service": None}),
    ], ids=["no_metric", "empty_metric", "no_service", "empty_service", "not_strings", "null_service"])
    def test_bad_target_registers_nothing(self, fresh_runtime, method, target):
        # accepted, they would fail on every run
        with pytest.raises(MissingField):
            fresh_runtime.subscribe(method, target, {}, period_s=5)
        assert fresh_runtime.subscriptions() == []

    def test_matrix_target_needs_no_metric(self, fresh_runtime):
        sub = fresh_runtime.subscribe("pc", {"ip": DB.ip, "service": DB.service}, {}, period_s=3600)
        fresh_runtime.run_subscription_once(sub)
        assert sub.latest_error is None

    def test_set_params_rejects_unknown(self, degraded_runtime):
        with pytest.raises(ValueError):
            degraded_runtime.set_params({"bogus": 1})

    def test_entry_defaults_to_first_topology_node(self, degraded_runtime):
        assert degraded_runtime.entry_node() == degraded_runtime.topology.nodes[0]

    def test_config_theta_is_the_one_alarm_threshold(self, degraded_sim):
        config = EngineConfig(
            topology_path=str(degraded_sim.topology_path),
            anomaly=AnomalyConfig(z_threshold=1e9),  # only entropy alarms count
            diagnosis=DiagnosisSettings(theta=50.0),
        )
        runtime = EngineRuntime(config)
        try:
            runtime.store.load_file(degraded_sim.metrics_path)
            entry = runtime.entry_node()
            assert runtime.get_params()["alarm_threshold"] == 50.0
            assert not runtime.health(DB).alarm
            assert runtime.run_diagnosis(entry).anomalous_services == set()
            runtime.set_params({"alarm_threshold": 0.01})
            assert runtime.health(DB).alarm  # not the report cached at 50
            assert DB in runtime.run_diagnosis(entry).anomalous_services
        finally:
            runtime.stop()


@pytest.fixture
def mse_calls(monkeypatch):
    calls = []
    original = entropy.mse_curve

    def counted(x, cfg):
        calls.append(len(x))
        return original(x, cfg)

    monkeypatch.setattr(entropy, "mse_curve", counted)
    return calls


class TestServiceCut:
    def test_evaluation_decided_by_z_scores_no_window(self, fresh_runtime, mse_calls):
        # no health gate: at z 3 every service is decided by z, so the
        # diagnosis scores no entropy window at all
        assert fresh_runtime.maintenance_evaluate() is not None
        assert mse_calls == []

    def test_mse_subscription_scores_only_its_series(self, fresh_runtime, mse_calls):
        sub = fresh_runtime.subscribe("mse", DB_IO_WAIT, {}, period_s=3600)
        fresh_runtime.run_subscription_once(sub)
        assert sub.latest_error is None
        assert mse_calls == [len(fresh_runtime.store.series(MetricKey(DB.ip, DB.service, "io_wait")))]
        assert fresh_runtime.health(DB) is not None  # scored on a miss

    def test_long_health_window_is_not_scored_by_an_evaluation(self, degraded_sim, mse_calls):
        config = EngineConfig(
            entropy=EntropyConfig(window_len=3000),
            anomaly=AnomalyConfig(z_threshold=5.0),
            diagnosis=DiagnosisSettings(baseline_n=1800, window_n=600, pc_row_stride=5),
            topology_path=str(degraded_sim.topology_path),
        )
        runtime = EngineRuntime(config)
        try:
            runtime.store.load_file(degraded_sim.metrics_path)
            assert runtime.maintenance_evaluate() is not None
        finally:
            runtime.stop()
        # every service has a metric over z, so no 600-point detection
        # window is scored, and no 3,000-point health window either
        assert mse_calls == []

    def test_a_z_decided_fault_acts_where_no_health_window_alarms(self, tmp_path):
        # criterion-8 thresholds: a cpu_hog at the db is over z 5, while no
        # service's health window scores over theta 10, which used to hold
        # the evaluation back before it diagnosed
        sim = simulate(three_tier_with_fault(FaultKind.cpu_hog, 0, 2400, 3000, 3000), tmp_path)
        config = EngineConfig(entropy=EntropyConfig(alarm_threshold=10.0), anomaly=AnomalyConfig(z_threshold=5.0),
                              topology_path=str(sim.topology_path))
        runtime = EngineRuntime(config)
        try:
            runtime.store.load_file(sim.metrics_path)
            assert not any(runtime.health(node).alarm for node in runtime.topology.nodes)
            action = runtime.maintenance_evaluate()
        finally:
            runtime.stop()
        assert action is not None and action.target == DB

    def test_cached_health_is_the_newest_window(self, fresh_runtime):
        fresh_runtime.maintenance_evaluate()
        econf = fresh_runtime.config.entropy
        for node in fresh_runtime.topology.nodes:
            windows = {key.metric: series.values[-econf.window_len:]
                       for key, series in fresh_runtime.store.series_for_service(node).items()}
            cached = fresh_runtime.health(node).to_dict()
            expected = health_score(node, windows, econf).to_dict()
            cached.pop("computed_at_ms"), expected.pop("computed_at_ms")
            assert cached == expected

    def test_evaluation_diagnosis_equals_a_fresh_one(self, fresh_runtime):
        assert fresh_runtime.maintenance_evaluate() is not None
        latest = fresh_runtime.latest_diagnosis().to_dict()
        fresh = fresh_runtime.run_diagnosis(fresh_runtime.entry_node()).to_dict()
        latest.pop("produced_at_ms"), fresh.pop("produced_at_ms")
        assert latest == fresh and latest["ranked_causes"]


class TestMatrixSubscription:
    @pytest.mark.parametrize("method", ["pc", "correlation"])
    def test_reads_the_baseline_rows_on_the_cut_grid(self, method):
        # 400 points of a -> b -> c at 1 s, and one of a's points resent 1 ms later
        rng = np.random.default_rng(5)
        a = rng.normal(size=400)
        b = 0.8 * a + 0.3 * rng.normal(size=400)
        c = 0.8 * b + 0.3 * rng.normal(size=400)
        ts = np.arange(400) * 1000
        columns = {MetricKey(DB.ip, DB.service, m): (ts, v) for m, v in (("a", a), ("b", b), ("c", c))}
        columns[MetricKey(DB.ip, DB.service, "a")] = (np.insert(ts, 51, ts[50] + 1), np.insert(a, 51, a[50]))
        runtime = EngineRuntime(EngineConfig())
        runtime.store.append_many({key: (t.tolist(), v.tolist()) for key, (t, v) in columns.items()})
        sub = runtime.subscribe(method, {"ip": DB.ip, "service": DB.service}, {}, period_s=3600)
        runtime.run_subscription_once(sub)
        assert sub.latest_error is None

        cut = cut_service(runtime.store.series_for_service(DB), runtime.config.entropy, runtime.config.diagnosis)
        matrix = align(cut.pc_input, interval_ms=cut.interval_ms)
        assert cut.interval_ms == 1000
        assert matrix.values.shape == (200, 3)  # baseline_n: half of the shortest series
        assert sub.latest_payload == runtime.bus.run(method, matrix)
        if method == "correlation":
            assert sub.latest_payload["n_rows"] == 200
        else:
            assert sub.latest_payload["directed"] or sub.latest_payload["undirected"]


class TestDataTime:
    NEWEST_MS = 3_599_000  # the last tick of degradation_spec's 3,600

    def test_fresh_runtimes_emit_identical_actions(self, degraded_sim):
        xml = []
        for _ in range(2):
            runtime = make_runtime(degraded_sim)
            try:
                action = runtime.maintenance_evaluate()
                assert action.issued_at_ms == self.NEWEST_MS
                assert runtime.health(DB).computed_at_ms == self.NEWEST_MS
                xml.append(serialize_action_xml(action))
            finally:
                runtime.stop()
        assert xml[0] == xml[1]

    def test_each_service_keeps_its_own_stamp(self, fresh_runtime):
        later = self.NEWEST_MS + 5_000
        assert fresh_runtime.store.append(MetricSample(later, WEB.ip, WEB.service, "cpu_util", 1.0))
        assert fresh_runtime.health(WEB).computed_at_ms == later
        assert fresh_runtime.health(DB).computed_at_ms == self.NEWEST_MS
        assert fresh_runtime.run_diagnosis(fresh_runtime.entry_node()).produced_at_ms == later

    def test_health_reflects_a_point_appended_after_an_evaluation(self, fresh_runtime):
        assert fresh_runtime.maintenance_evaluate() is not None
        assert fresh_runtime.health(DB).computed_at_ms == self.NEWEST_MS
        later = self.NEWEST_MS + 1_000
        assert fresh_runtime.store.append(MetricSample(later, DB.ip, DB.service, "io_wait", 1.0))
        assert fresh_runtime.health(DB).computed_at_ms == later


class TestLoop:
    def test_cycle_set_before_start_governs_first_tick(self, fresh_runtime):
        clock = fake_loop(fresh_runtime)
        fresh_runtime.set_params({"maintenance_cycle_s": 1})
        clock.at(fresh_runtime.loop, 1.5, fresh_runtime.loop.stop)
        fresh_runtime.loop.run()
        assert fresh_runtime.loop.ticks == 1  # at 1 s, not at the default 300 s
        action = parse_action_xml(fresh_runtime.actions[0])
        assert action.target == DB and action.cycle_s == 1

    def test_cycle_too_large_for_a_float_is_rejected(self, fresh_runtime):
        clock = fake_loop(fresh_runtime)
        with pytest.raises(ValueError, match="cycle_s"):
            fresh_runtime.set_params({"maintenance_cycle_s": 10**400})
        assert fresh_runtime.get_params()["maintenance_cycle_s"] == 300
        clock.at(fresh_runtime.loop, 300.5, fresh_runtime.loop.stop)
        fresh_runtime.loop.run()  # a float due time cannot hold 10**400 s
        assert fresh_runtime.loop.ticks == 1

    def test_subscriptions_add_no_threads(self, fresh_runtime):
        fresh_runtime.start_maintenance_loop()
        before = set(threading.enumerate())
        subs = [
            fresh_runtime.subscribe("zscore", DB_IO_WAIT, {}, period_s=3600) for _ in range(20)
        ]
        assert set(threading.enumerate()) - before == set()
        assert threading.active_count() <= len(before)
        for sub in subs:
            assert fresh_runtime.unsubscribe(sub.id)

    def test_second_start_starts_no_thread(self, fresh_runtime):
        loop = fresh_runtime.start_maintenance_loop()
        before = set(threading.enumerate())
        assert fresh_runtime.start_maintenance_loop() is loop
        assert set(threading.enumerate()) - before == set()

    def test_unsubscribe_stops_runs(self, fresh_runtime):
        clock = fake_loop(fresh_runtime)
        sub = fresh_runtime.subscribe("zscore", DB_IO_WAIT, {}, period_s=1)
        clock.at(fresh_runtime.loop, 1.5, lambda: fresh_runtime.unsubscribe(sub.id))
        clock.at(fresh_runtime.loop, 4.5, fresh_runtime.loop.stop)  # more than two periods later
        fresh_runtime.loop.run()
        assert sub.runs == 1  # at 1 s only
        assert sub.latest_error is None and "score" in sub.latest_payload
        assert fresh_runtime.subscriptions() == []
