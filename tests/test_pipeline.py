import numpy as np
import pytest

from availkit.causal import PCConfig
from availkit.entropy import EntropyConfig
from availkit.errors import EntryNotInTopology
from availkit.faultsim import FaultKind, simulate_frames
from availkit.model import MetricKey, MetricSeries, ServiceNode
from availkit.pipeline import DiagnosisSettings, analyze_service, diagnose
from availkit.rootcause import AnomalyConfig
from availkit.scenarios import DB, WEB, three_tier_spec, three_tier_with_fault

ECONF = EntropyConfig(alarm_threshold=10.0)
PCONF = PCConfig()
ACONF = AnomalyConfig(z_threshold=5.0)
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
        analysis = analyze_service(DB, db_series, ECONF, PCONF, ACONF, SETTINGS)
        assert analysis.status.metric_scores["cpu_util"] > 5.0
        assert analysis.status.metric_scores["mem_used"] < 5.0
        assert analysis.graph is not None
        assert "latency" in analysis.graph.metrics

    def test_health_report_present(self, faulted_series):
        _, series = faulted_series
        db_series = {k: s for k, s in series.items() if k.service == "db"}
        analysis = analyze_service(DB, db_series, ECONF, PCONF, ACONF, SETTINGS)
        assert analysis.status.health is not None
        assert analysis.status.health.score >= 0.0

    def test_short_series_warns_not_crashes(self):
        key = MetricKey(DB.ip, DB.service, "tiny")
        series = {key: MetricSeries(key, np.arange(10), np.arange(10.0))}
        analysis = analyze_service(DB, series, ECONF, PCONF, ACONF, SETTINGS)
        assert analysis.status.metric_scores == {}
        assert analysis.warnings


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

    def test_value_identical_across_runs(self, faulted_series):
        spec, series = faulted_series
        d1 = diagnose(series, spec.topology, WEB, ECONF, PCONF, ACONF, SETTINGS, produced_at_ms=0)
        d2 = diagnose(series, spec.topology, WEB, ECONF, PCONF, ACONF, SETTINGS, produced_at_ms=0)
        assert d1.to_dict() == d2.to_dict()
