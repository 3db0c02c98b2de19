from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from availkit import entropy, pipeline
from availkit.causal import PCConfig, learn_metric_graph
from availkit.entropy import EntropyConfig, health_score
from availkit.errors import EntryNotInTopology, NonFiniteValue, NoUsableMetric
from availkit.faultsim import FaultKind, simulate_frames
from availkit.model import MetricKey, MetricMatrix, MetricSeries, ServiceNode, align
from availkit.pipeline import DiagnosisSettings, analyze_cut, cut_service, diagnose, infer_interval
from availkit.rootcause import AnomalyConfig, zscore_anomaly
from availkit.scenarios import DB, WEB, degradation_spec, three_tier_spec, three_tier_with_fault

ECONF = EntropyConfig(alarm_threshold=10.0)
PCONF = PCConfig()
ACONF = AnomalyConfig(z_threshold=5.0)
ENTROPY_ONLY = AnomalyConfig(z_threshold=1e9)  # no z decides: every detection window's entropy is scored
SETTINGS = DiagnosisSettings(baseline_n=1200, window_n=600, pc_row_stride=5, theta=10.0)


def frames_to_series(frames, tick_ms=1000):
    return {
        key: MetricSeries(key, np.arange(frames.values.shape[0]) * tick_ms, frames.values[:, g])
        for g, key in enumerate(frames.columns)
    }


@pytest.fixture(scope="module")
def faulted_series():
    spec = three_tier_with_fault(FaultKind.cpu_hog, seed=0)
    frames = simulate_frames(spec)
    return spec, frames_to_series(frames)


class TestAnalyzeService:
    def test_scores_and_graph(self, faulted_series):
        spec, series = faulted_series
        db_series = {k: s for k, s in series.items() if k.service == "db"}
        analysis = analyze_cut(DB, cut_service(db_series, ECONF, SETTINGS), ECONF, PCONF, ACONF, SETTINGS)
        assert analysis.status.metric_scores["cpu_util"] > 5.0
        assert analysis.status.metric_scores["mem_used"] < 5.0
        assert analysis.graph is not None
        assert "latency" in analysis.graph.metrics

    def test_health_report_present(self, faulted_series):
        _, series = faulted_series
        db_series = {k: s for k, s in series.items() if k.service == "db"}
        cut = cut_service(db_series, ECONF, SETTINGS)
        analysis = analyze_cut(DB, cut, ECONF, PCONF, ENTROPY_ONLY, SETTINGS)
        assert analysis.status.entropy_alarm == health_score(DB, cut.detection, ECONF).alarm

    def test_short_series_warns_not_crashes(self):
        key = MetricKey(DB.ip, DB.service, "tiny")
        series = {key: MetricSeries(key, np.arange(10), np.arange(10.0))}
        analysis = analyze_cut(DB, cut_service(series, ECONF, SETTINGS), ECONF, PCONF, ACONF, SETTINGS)
        assert analysis.status.metric_scores == {}
        assert analysis.warnings

    def test_window_never_overlaps_baseline(self):
        # 800 + 600 points are needed; at 1,000 the newest 600 would reach into the baseline
        keys = [MetricKey(DB.ip, DB.service, m) for m in ("a", "b")]
        rng = np.random.default_rng(3)
        series = {k: MetricSeries(k, np.arange(1000) * 1000, rng.normal(size=1000)) for k in keys}
        settings = DiagnosisSettings(baseline_n=800, window_n=600)
        analysis = analyze_cut(DB, cut_service(series, ECONF, settings), ECONF, PCONF, ACONF, settings)
        assert analysis.status.metric_scores == {}
        assert not analysis.status.entropy_alarm
        for metric in ("a", "b"):
            assert f"{metric}: too short for baseline/window split" in analysis.warnings

    def test_all_empty_series_skip_structure_learning(self):
        keys = [MetricKey(DB.ip, DB.service, m) for m in ("a", "b")]
        series = {k: MetricSeries(k, np.array([], np.int64), np.array([])) for k in keys}
        analysis = analyze_cut(DB, cut_service(series, ECONF, SETTINGS), ECONF, PCONF, ACONF, SETTINGS)
        assert analysis.graph is None
        assert any(w.startswith("structure learning skipped") for w in analysis.warnings)


class TestServiceCut:
    def test_default_cut(self):
        # 1,000 points: baseline 500, detection 500 (the entropy window would
        # overlap the baseline), health 600
        keys = [MetricKey(DB.ip, DB.service, m) for m in ("a", "b")]
        values = np.arange(1000.0)
        series = {k: MetricSeries(k, np.arange(1000) * 1000, values) for k in keys}
        cut = pipeline.cut_service(series, EntropyConfig())
        assert list(cut.detection) == list(cut.baseline) == list(cut.health) == ["a", "b"]
        assert np.array_equal(cut.baseline["a"], values[:500])
        assert np.array_equal(cut.detection["a"], values[500:])
        assert np.array_equal(cut.health["a"], values[400:])
        assert [len(s) for s in cut.pc_input] == [500, 500]
        assert cut.warnings == [] and cut.interval_ms == 1000

    def test_empty_series_leaves_no_detection_window(self):
        # the shortest series sets the default split, so an empty one leaves
        # nothing to detect on; health still scores the others
        keys = [MetricKey(DB.ip, DB.service, m) for m in ("a", "empty")]
        series = {keys[0]: MetricSeries(keys[0], np.arange(1000) * 1000, np.arange(1000.0)),
                  keys[1]: MetricSeries(keys[1], np.array([], np.int64), np.array([]))}
        cut = pipeline.cut_service(series, EntropyConfig())
        assert cut.detection == {} and list(cut.health) == ["a"]
        assert cut.warnings == [f"{m}: too short for baseline/window split" for m in ("a", "empty")]


def _chain_service(n=4000, resend_at=None):
    """Metrics a -> b -> c of DB at a 1 s cadence; with resend_at, a's point
    at that index is sent a second time 1 ms later."""
    rng = np.random.default_rng(11)
    a = rng.normal(size=n)
    b = 0.8 * a + 0.3 * rng.normal(size=n)
    c = 0.8 * b + 0.3 * rng.normal(size=n)
    ts = np.arange(n, dtype=np.int64) * 1000
    out = {}
    for metric, values in (("a", a), ("b", b), ("c", c)):
        key = MetricKey(DB.ip, DB.service, metric)
        out[key] = MetricSeries(key, ts, values)
    if resend_at is not None:
        key = MetricKey(DB.ip, DB.service, "a")
        k = resend_at
        out[key] = MetricSeries(key, np.insert(ts, k + 1, ts[k] + 1), np.insert(a, k + 1, a[k]))
    return out


class TestInferInterval:
    def test_near_duplicate_timestamp_keeps_the_cadence(self):
        # the smallest step would be the resend's 1 ms
        assert infer_interval(_chain_service(resend_at=100)) == 1000

    def test_finest_cadence_wins(self):
        keys = [MetricKey(DB.ip, DB.service, m) for m in ("slow", "fast", "single", "empty")]
        series = {
            keys[0]: MetricSeries(keys[0], np.arange(50) * 5000, np.zeros(50)),
            keys[1]: MetricSeries(keys[1], np.arange(50) * 250, np.zeros(50)),
            keys[2]: MetricSeries(keys[2], np.array([7]), np.zeros(1)),
            keys[3]: MetricSeries(keys[3], np.array([], np.int64), np.array([])),
        }
        assert infer_interval(series) == 250
        assert infer_interval({k: series[k] for k in keys[2:]}) == 1000  # no step at all

    def test_cadence_is_a_step_of_the_series(self):
        # steps 300, 300, 700, 700, 700: the lower median is 700, not a mean
        key = MetricKey(DB.ip, DB.service, "a")
        ts = np.array([0, 300, 600, 1300, 2000, 2700])
        assert infer_interval({key: MetricSeries(key, ts, np.zeros(6))}) == 700

    def test_jittered_service_still_learns_its_graph(self):
        clean, jittered = _chain_service(), _chain_service(resend_at=100)
        analyses = []
        for series in (clean, jittered):
            cut = cut_service(series, ECONF)
            assert cut.interval_ms == 1000
            analyses.append(analyze_cut(DB, cut, ECONF, PCONF, ACONF))
        assert not any(w.startswith("structure learning skipped") for w in analyses[1].warnings)
        assert analyses[1].graph is not None and analyses[1].graph.metrics == ["a", "b", "c"]
        assert analyses[1].graph.to_dict() == analyses[0].graph.to_dict()


def _ragged_service(rng):
    """Metrics a -> b -> c that start at different ticks and have gaps, a
    second sample of c in some ticks' buckets, and a metric d whose first
    point lies after the baseline span; d's 250 ms cadence is the finest."""
    t0 = 1_234_999  # 1 ms before a bucket boundary at 250 and 1000 ms: the span's last ms holds a point
    n = 2000
    a = rng.normal(size=n)
    b = 0.8 * a + 0.3 * rng.normal(size=n)
    c = 0.8 * b + 0.3 * rng.normal(size=n)
    ticks = np.arange(n)
    out = {}

    def add(metric, ts, values):
        key = MetricKey(DB.ip, DB.service, metric)
        out[key] = MetricSeries(key, ts, values)

    keep_a = rng.random(n) > 0.1
    keep_a[1195:1205] = True  # a point in the last baseline bucket at interval 1000
    add("a", t0 + 1000 * ticks[keep_a], a[keep_a])
    keep_b = (ticks >= 3) & (rng.random(n) > 0.1)
    add("b", t0 + 1000 * ticks[keep_b], b[keep_b])
    # c from tick 7, 100 ms before each tick, plus a sample 500 ms before that every 5th tick
    ts_c, vals_c = [], []
    for k in range(7, n):
        if k % 5 == 0:
            ts_c.append(t0 + 1000 * k - 600)
            vals_c.append(c[k] + 0.01)
        ts_c.append(t0 + 1000 * k - 100)
        vals_c.append(c[k])
    add("c", np.array(ts_c), np.array(vals_c))
    d_ts = t0 + 1000 * 1500 + 250 * np.arange(4 * (n - 1500))
    add("d", d_ts, rng.normal(size=d_ts.size))
    return out


class TestBaselineCut:
    @pytest.mark.parametrize("stride", [1, 2])
    def test_pc_input_equals_full_span_align_trimmed(self, stride, monkeypatch):
        series = _ragged_service(np.random.default_rng(7))
        # odd baseline_n: its last bucket holds a point and survives stride 2
        settings = DiagnosisSettings(baseline_n=1201, window_n=200, pc_row_stride=stride, theta=10.0)
        # reference: align the whole span, keep the first baseline_n rows with the stride
        interval = infer_interval(series)
        assert interval == 250  # set by d, which starts after the baseline span
        full = align(list(series.values()), interval_ms=interval)
        rows = full.values[: settings.baseline_n][::stride]
        want = learn_metric_graph(MetricMatrix(interval, full.start_ms, full.columns, rows), PCONF)

        seen = []
        monkeypatch.setattr(
            pipeline, "learn_metric_graph", lambda m, c: seen.append(m) or learn_metric_graph(m, c)
        )
        got = analyze_cut(DB, cut_service(series, ECONF, settings), ECONF, PCONF, ACONF, settings).graph
        assert (seen[0].start_ms, seen[0].interval_ms) == (full.start_ms, interval)
        assert seen[0].columns == full.columns
        np.testing.assert_array_equal(seen[0].values, rows)
        assert got is not None
        assert got.to_dict() == want.to_dict()
        assert got.dropped == want.dropped == ["d"]
        assert got.directed or got.undirected


class TestDiagnose:
    def test_finds_injected_fault(self, faulted_series):
        spec, series = faulted_series
        diag = diagnose(series, spec.topology, WEB, ECONF, PCONF, ACONF, SETTINGS, produced_at_ms=0)
        assert diag.ranked_causes
        assert diag.ranked_causes[0][0] == DB
        assert (DB, "cpu_util") in [(c[0], c[1]) for c in diag.ranked_causes[:3]]
        assert DB in diag.anomalous_services

    def test_healthy_system_yields_no_causes(self):
        spec = three_tier_spec(seed=1)
        frames = simulate_frames(spec)
        diag = diagnose(
            frames_to_series(frames), spec.topology, WEB, ECONF, PCONF, ACONF, SETTINGS,
            produced_at_ms=0,
        )
        assert diag.ranked_causes == []
        assert diag.anomalous_services == set()

    @pytest.mark.parametrize("z_threshold", [3.0, 1e9])
    def test_nan_in_a_detection_window_raises_at_any_z(self, z_threshold):
        # z 3 used to decide db by another metric and return a diagnosis,
        # since the NaN metric's z is NaN, which exceeds no threshold
        spec = three_tier_spec(seed=1)
        series = frames_to_series(simulate_frames(spec))
        key = MetricKey(DB.ip, DB.service, "threads_connected")
        values = series[key].values.copy()
        values[-10] = np.nan
        series[key] = MetricSeries(key, series[key].ts, values)
        with pytest.raises(NonFiniteValue):
            diagnose(series, spec.topology, WEB, ECONF, PCONF, AnomalyConfig(z_threshold), SETTINGS, produced_at_ms=0)

    def test_entry_not_in_topology(self, faulted_series):
        spec, series = faulted_series
        with pytest.raises(EntryNotInTopology):
            diagnose(series, spec.topology, ServiceNode("1.2.3.4", "ghost"),
                     ECONF, PCONF, ACONF, SETTINGS)

    def test_partial_data_does_not_fail(self, faulted_series):
        spec, series = faulted_series
        only_db = {k: s for k, s in series.items() if k.service == "db"}
        diag = diagnose(only_db, spec.topology, WEB, ECONF, PCONF, ACONF, SETTINGS, produced_at_ms=0)
        # web and app are missing: treated as healthy, db still localized
        assert diag.ranked_causes[0][0] == DB

    def test_theta_decides_the_entropy_alarm(self, faulted_series):
        spec, series = faulted_series
        only_db = {k: s for k, s in series.items() if k.service == "db"}
        score = health_score(DB, cut_service(only_db, ECONF, SETTINGS).detection, ECONF).score

        def alarmed(threshold, theta):
            econf = EntropyConfig(alarm_threshold=threshold)
            settings = DiagnosisSettings(baseline_n=1200, window_n=600, pc_row_stride=5, theta=theta)
            diag = diagnose(only_db, spec.topology, WEB, econf, PCONF, ENTROPY_ONLY, settings)
            return DB in diag.anomalous_services

        assert alarmed(score / 2, None) and not alarmed(score * 2, None)
        assert alarmed(score * 2, score / 2)  # theta wins over econf's threshold either way
        assert not alarmed(score / 2, score * 2)
        assert not alarmed(score / 2, score)  # the rule is strict

    def test_stamped_with_the_newest_data_time(self, faulted_series):
        spec, series = faulted_series
        newest = (spec.duration_ticks - 1) * spec.tick_ms
        older = {k: MetricSeries(k, s.ts[:-100], s.values[:-100]) if k.service == "db" else s
                 for k, s in series.items()}
        cuts = pipeline.cut_services(older, spec.topology.nodes, ECONF, SETTINGS)
        assert cuts[WEB].data_ms == newest and cuts[DB].data_ms == newest - 100 * spec.tick_ms
        assert diagnose(older, spec.topology, WEB, ECONF, PCONF, ACONF, SETTINGS).produced_at_ms == newest
        assert pipeline.diagnose_cuts({}, spec.topology, WEB, ECONF, PCONF, ACONF, SETTINGS).produced_at_ms == 0

    def test_value_identical_across_runs(self, faulted_series):
        spec, series = faulted_series
        d1 = diagnose(series, spec.topology, WEB, ECONF, PCONF, ACONF, SETTINGS, produced_at_ms=0)
        d2 = diagnose(series, spec.topology, WEB, ECONF, PCONF, ACONF, SETTINGS, produced_at_ms=0)
        assert d1.to_dict() == d2.to_dict()


def level_one_oracle(series, topology, econf, aconf, settings):
    """Level 1 with no shortcut: a service is anomalous when a metric's z
    exceeds the threshold or the health score of all its detection windows
    alarms."""
    if settings.theta is not None:
        econf = replace(econf, alarm_threshold=settings.theta)
    anomalous = set()
    for node, cut in pipeline.cut_services(series, topology.nodes, econf, settings).items():
        z_alarm = any(zscore_anomaly(cut.baseline[m], w) > aconf.z_threshold for m, w in cut.detection.items())
        try:
            entropy_alarm = health_score(node, cut.detection, econf).alarm
        except NoUsableMetric:
            entropy_alarm = False
        if z_alarm or entropy_alarm:
            anomalous.add(node)
    return anomalous


# Thresholds chosen so that, across the cases, services are decided by z,
# by entropy alone, or are healthy.
LEVEL_ONE_CASES = {
    "cpu_hog": (lambda: three_tier_with_fault(FaultKind.cpu_hog, seed=0), ECONF,
                replace(SETTINGS, theta=1.74), 5.0),
    "healthy": (lambda: three_tier_spec(seed=1), EntropyConfig(), DiagnosisSettings(), 3.0),
    "degradation": (lambda: degradation_spec(seed=3), EntropyConfig(window_len=3000, alarm_threshold=1.5),
                    DiagnosisSettings(baseline_n=1800, window_n=600, pc_row_stride=5), 8.0),
}


class TestLevelOne:
    @pytest.mark.parametrize("deciding_z", [True, False], ids=["z_decides", "entropy_only"])
    @pytest.mark.parametrize("case", sorted(LEVEL_ONE_CASES))
    def test_anomalous_services_follow_the_or_rule(self, case, deciding_z):
        make_spec, econf, settings, z = LEVEL_ONE_CASES[case]
        spec = make_spec()
        series = frames_to_series(simulate_frames(spec))
        aconf = AnomalyConfig(z_threshold=z if deciding_z else 1e9)
        diag = diagnose(series, spec.topology, WEB, econf, PCONF, aconf, settings)
        assert diag.anomalous_services == level_one_oracle(series, spec.topology, econf, aconf, settings)

    def test_entropy_is_scored_only_where_no_z_decides(self, faulted_series, monkeypatch):
        _, series = faulted_series
        db_series = {k: s for k, s in series.items() if k.service == "db"}
        calls = []
        original = entropy.mse_curve
        monkeypatch.setattr(entropy, "mse_curve", lambda x, cfg: calls.append(len(x)) or original(x, cfg))
        settings = DiagnosisSettings(baseline_n=1200, window_n=500)  # shorter than the health windows
        cut = cut_service(db_series, ECONF, settings)
        assert not analyze_cut(DB, cut, ECONF, PCONF, ACONF, settings).status.entropy_alarm  # cpu_util's z decides
        assert calls == []
        alarm = analyze_cut(DB, cut, ECONF, PCONF, ENTROPY_ONLY, settings).status.entropy_alarm
        # the detection windows, in sorted order, until a bound settles the alarm
        assert 1 <= len(calls) <= len(db_series) and calls == [500] * len(calls)
        assert alarm == health_score(DB, cut.detection, ECONF).alarm


@pytest.fixture(scope="module")
def alarm_cases(faulted_series):
    """Detection windows of db that the settled alarm must decide exactly
    as health_score does."""
    def db_windows(series, n=None):
        db_series = {k: s for k, s in series.items() if k.service == "db"}
        if n is not None:
            return {k.metric: s.values[-n:] for k, s in db_series.items()}
        return cut_service(db_series, ECONF, SETTINGS).detection

    healthy = db_windows(frames_to_series(simulate_frames(three_tier_spec(seed=1))))
    short = np.arange(10.0)  # fewer than max_scale * (m + 2) points
    sparse = np.random.default_rng(0).normal(size=40)  # two defined scales of ten
    gap = np.where(np.arange(600) == 595, np.nan, healthy["cpu_util"])
    return {
        "healthy": healthy,
        "faulted": db_windows(faulted_series[1]),
        "degradation_3000": db_windows(frames_to_series(simulate_frames(degradation_spec(seed=3))), 3000),
        "constant": {**healthy, "flat": np.full(600, 2.0)},
        "one_too_short": {**healthy, "short": short},
        "one_too_few_defined": {**healthy, "sparse": sparse},
        "all_unusable": {"short": short, "sparse": sparse},
        "non_finite_last": {**healthy, "zz_gap": gap},  # scored last in sorted order
        "non_finite_too_short": {**healthy, "short": np.append(short, np.nan)},  # excluded, not refused
    }


def _alarm_or_error(decide):
    try:
        return decide()
    except (NoUsableMetric, NonFiniteValue) as exc:
        return type(exc)


class TestSettledEntropyAlarm:
    @pytest.mark.parametrize("case", ["healthy", "faulted", "degradation_3000", "constant", "one_too_short",
                                      "one_too_few_defined", "all_unusable", "non_finite_last",
                                      "non_finite_too_short"])
    def test_alarm_equals_the_full_health_score(self, alarm_cases, case):
        windows = alarm_cases[case]
        thresholds = [0.5, 1.0, 2.0, 10.0, 1e9]
        full = _alarm_or_error(lambda: health_score(DB, windows, ECONF))
        if isinstance(full, type):
            assert (full, case) in {(NoUsableMetric, "all_unusable"), (NonFiniteValue, "non_finite_last")}
        else:
            if case == "one_too_few_defined":  # the case holds what its name says
                assert "sparse" in full.excluded_metrics and "sparse" in full.per_metric_entropy
            score = full.score
            thresholds += [score, np.nextafter(score, -np.inf), np.nextafter(score, np.inf)]
        for theta in thresholds:
            econf = replace(ECONF, alarm_threshold=float(theta))
            want = _alarm_or_error(lambda: health_score(DB, windows, econf).alarm)
            assert _alarm_or_error(lambda: pipeline.entropy_alarm(DB, windows, econf)) is want, theta

    def test_a_bound_below_the_mean_is_left_out_of_the_reachable_mean(self, monkeypatch):
        # a scores 6. Counting b's bound (5) would lower the reachable mean
        # of a and c (9) to 7.67, below theta 8; b is excluded and c scores
        # 12, so the mean is 9 and the alarm fires
        scores = {"a": 6.0, "b": None, "c": 12.0}
        bounds = {2: 5.0, 3: 12.0}

        def fake_health_score(node, windows, cfg):
            (metric,) = windows
            if scores[metric] is None:
                raise NoUsableMetric(metric)
            return SimpleNamespace(per_metric_score={metric: scores[metric]})

        monkeypatch.setattr(pipeline, "health_score", fake_health_score)
        monkeypatch.setattr(pipeline, "score_bound", lambda n, cfg: bounds.get(n, 100.0))
        windows = {"a": np.zeros(1), "b": np.zeros(2), "c": np.zeros(3)}
        assert pipeline.entropy_alarm(DB, windows, replace(ECONF, alarm_threshold=8.0))

    @pytest.mark.parametrize("n", [40, 120, 600])
    def test_no_curve_score_exceeds_the_bound(self, n):
        rng = np.random.default_rng(n)
        series = {"noise": rng.normal(size=n), "walk": np.cumsum(rng.normal(size=n)),
                  "spikes": np.where(rng.random(n) < 0.05, 50.0, 0.0) + rng.normal(size=n)}
        participated = 0
        for r_fraction in (0.01, 0.05, 0.15, 0.5, 1.0):
            econf = EntropyConfig(r_fraction=r_fraction, window_len=n)
            bound = entropy.score_bound(n, econf)
            for x in series.values():
                try:
                    score = health_score(DB, {"x": x}, econf).score
                except NoUsableMetric:
                    continue
                participated += 1
                assert 0.0 <= score <= bound
        assert participated >= 5
        assert entropy.score_bound(600, ECONF) == pytest.approx(10.85, abs=0.005)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_healthy_criterion8_diagnosis_scores_one_curve_per_service(self, seed, monkeypatch):
        # criterion 8's settings: at theta 10 one healthy metric's score
        # leaves the others unable to lift a service's mean over it
        spec = three_tier_spec(seed, 3600)
        series = frames_to_series(simulate_frames(spec))
        calls = []
        original = entropy.mse_curve
        monkeypatch.setattr(entropy, "mse_curve", lambda x, cfg: calls.append(len(x)) or original(x, cfg))
        settings = DiagnosisSettings(baseline_n=2600, window_n=600, pc_row_stride=5, theta=10.0)
        diag = diagnose(series, spec.topology, WEB, ECONF, PCONF, ACONF, settings)
        assert diag.anomalous_services == set()
        assert calls == [600] * len(spec.topology.nodes)


class TestDiagnosisSettings:
    @pytest.mark.parametrize("field, value", [
        ("baseline_n", 0), ("window_n", -1), ("pc_row_stride", 0), ("pc_row_stride", None),
        ("theta", 0.0), ("theta", -1.0), ("theta", float("nan")), ("theta", float("inf")),
    ])
    def test_bad_value_is_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            DiagnosisSettings(**{field: value})

    def test_defaults_and_values_in_use_are_valid(self):
        DiagnosisSettings()
        DiagnosisSettings(baseline_n=1800, window_n=600, pc_row_stride=5)
        DiagnosisSettings(baseline_n=1201, window_n=200, pc_row_stride=2, theta=10)
