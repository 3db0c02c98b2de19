import math

import numpy as np
import pytest

from availkit.causal import PCConfig
from availkit.entropy import EntropyConfig
from availkit.errors import EmptyWindow, EntryNotInTopology
from availkit.faultsim import FaultEvent, FaultKind, generate_random_spec, simulate_frames
from availkit.model import MetricDependencyGraph, MetricSeries, ServiceDependencyGraph, ServiceNode
from availkit.pipeline import DiagnosisSettings, diagnose
from availkit.rootcause import (
    AnomalyConfig,
    ServiceStatus,
    cusum_change,
    localize,
    service_anomaly,
    zscore_anomaly,
)
from availkit.scenarios import three_tier_with_fault

WEB = ServiceNode("10.0.0.1", "web")
APP = ServiceNode("10.0.0.2", "app")
DB = ServiceNode("10.0.0.3", "db")
CHAIN = ServiceDependencyGraph(nodes=[WEB, APP, DB], edges=[(0, 1), (1, 2)])
CFG = AnomalyConfig(z_threshold=3.0)


class TestZScore:
    def test_worst_deviation(self):
        baseline = np.concatenate([np.full(50, 9.0), np.full(50, 11.0)])  # mu=10 sigma=1
        assert zscore_anomaly(baseline, [10.0, 14.0, 9.0]) == pytest.approx(4.0)

    def test_window_at_mean_scores_zero(self):
        baseline = np.concatenate([np.full(50, 9.0), np.full(50, 11.0)])
        assert zscore_anomaly(baseline, np.full(10, 10.0)) == 0.0

    def test_flat_baseline_deviation_is_infinite(self):
        assert zscore_anomaly(np.full(50, 3.0), [3.0, 3.1]) == math.inf
        assert zscore_anomaly(np.full(50, 3.0), [3.0, 3.0]) == 0.0

    def test_empty_window(self):
        with pytest.raises(EmptyWindow):
            zscore_anomaly(np.ones(30), [])


class TestCusum:
    def test_constant_series_no_change(self):
        assert cusum_change(np.full(200, 5.0), mu0=5.0, sigma=1.0, k=0.5, h=5.0) == []

    def test_single_step_exceedance(self):
        x = np.zeros(100)
        x[50:] += 10.0  # +10 sigma step
        alarms = cusum_change(x, mu0=0.0, sigma=1.0, k=0.5, h=5.0)
        assert alarms and alarms[0] == 50

    def test_small_shift_detected_within_budget(self):
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(100):
            x = rng.normal(size=400)
            x[200:] += 2.0
            alarms = cusum_change(x, mu0=0.0, sigma=1.0, k=0.5, h=5.0)
            first_after = next((a for a in alarms if a >= 200), None)
            if first_after is not None and first_after <= 230:
                hits += 1
        assert hits >= 95

    def test_downward_shift_detected(self):
        x = np.zeros(100)
        x[40:] -= 10.0
        alarms = cusum_change(x, mu0=0.0, sigma=1.0, k=0.5, h=5.0)
        assert alarms and alarms[0] == 40


class TestServiceAnomaly:
    def test_all_healthy(self):
        statuses = {
            node: ServiceStatus(entropy_alarm=False, metric_scores={"m": 1.0})
            for node in CHAIN.nodes
        }
        out = service_anomaly(statuses, CHAIN, CFG)
        assert out.anomalous == set() and out.missing == []

    def test_entropy_alarm_only(self):
        statuses = {node: ServiceStatus(entropy_alarm=False) for node in CHAIN.nodes}
        statuses[APP] = ServiceStatus(entropy_alarm=True)
        out = service_anomaly(statuses, CHAIN, CFG)
        assert out.anomalous == {APP}

    def test_zscore_only_or_rule(self):
        statuses = {node: ServiceStatus(entropy_alarm=False) for node in CHAIN.nodes}
        statuses[DB] = ServiceStatus(entropy_alarm=False, metric_scores={"cpu": 3.1})
        out = service_anomaly(statuses, CHAIN, CFG)
        assert out.anomalous == {DB}

    def test_boundary_z_not_anomalous(self):
        statuses = {DB: ServiceStatus(metric_scores={"cpu": 3.0})}
        out = service_anomaly(statuses, CHAIN, CFG)
        assert DB not in out.anomalous

    def test_missing_nodes_flagged(self):
        out = service_anomaly({}, CHAIN, CFG)
        assert out.anomalous == set()
        assert set(out.missing) == set(CHAIN.nodes)


def graph(metrics, directed=(), undirected=()):
    return MetricDependencyGraph(
        metrics=list(metrics), directed=set(directed), undirected=set(undirected)
    )


class TestLocalize:
    def test_deepest_anomalous_service(self):
        diag = localize(
            CHAIN, WEB, {APP, DB}, {}, {(APP, "m"): 5.0, (DB, "m"): 4.0}, CFG, produced_at_ms=0
        )
        assert {c[0] for c in diag.ranked_causes} == {DB}

    def test_metric_with_anomalous_parent_excluded(self):
        g = graph(["cpu_util", "latency"], directed={(0, 1)})
        scores = {(DB, "cpu_util"): 5.0, (DB, "latency"): 8.0}
        diag = localize(CHAIN, WEB, {DB}, {DB: g}, scores, CFG, produced_at_ms=0)
        assert diag.ranked_causes[0][:2] == (DB, "cpu_util")
        assert all(c[1] != "latency" for c in diag.ranked_causes)

    def test_ancestor_frontier_on_propagated_chain(self):
        # when an anomaly propagates along a -> b -> c, only the chain root
        # survives; b and c are explained by their anomalous parents
        g = graph(["a", "b", "c"], directed={(0, 1), (1, 2)})
        scores = {(DB, "a"): 9.0, (DB, "b"): 7.0, (DB, "c"): 8.0}
        diag = localize(CHAIN, WEB, {DB}, {DB: g}, scores, CFG, produced_at_ms=0)
        assert [(c[0], c[1]) for c in diag.ranked_causes] == [(DB, "a")]

    def test_undirected_edge_counts_both_ways(self):
        g = graph(["a", "b"], undirected={(0, 1)})
        scores = {(DB, "a"): 5.0, (DB, "b"): 6.0}
        diag = localize(CHAIN, WEB, {DB}, {DB: g}, scores, CFG, produced_at_ms=0)
        # the edge leaves their order open: both are one cause, ranked by z-score
        assert diag.ranked_causes == [(DB, "b", 6.0), (DB, "a", 5.0)]
        assert all("unoriented edges a-b" in line for line in diag.evidence)

    def test_component_with_hot_directed_parent_excluded(self):
        # p -> a - b: the hot parent p explains the whole component {a, b}
        g = graph(["p", "a", "b", "c"], directed={(0, 1)}, undirected={(1, 2), (2, 3)})
        scores = {(DB, "p"): 4.0, (DB, "a"): 5.0, (DB, "b"): 6.0, (DB, "c"): 1.0}
        diag = localize(CHAIN, WEB, {DB}, {DB: g}, scores, CFG, produced_at_ms=0)
        assert diag.ranked_causes == [(DB, "p", 4.0)]
        assert diag.evidence == ["10.0.0.3:db/p: z=4.00 exceeds 3.0; no parent metric in the dependency graph"]

    def test_entry_only_anomalous_is_candidate(self):
        scores = {(WEB, "m"): 7.0}
        diag = localize(CHAIN, WEB, {WEB}, {}, scores, CFG, produced_at_ms=0)
        assert diag.ranked_causes[0][:2] == (WEB, "m")

    def test_entry_not_in_topology(self):
        with pytest.raises(EntryNotInTopology):
            localize(CHAIN, ServiceNode("9.9.9.9", "ghost"), set(), {}, {}, CFG)

    def test_rank_order_and_tie_break(self):
        scores = {
            (DB, "b_metric"): 5.0,
            (DB, "a_metric"): 5.0,
            (DB, "c_metric"): 9.0,
        }
        diag = localize(CHAIN, WEB, {DB}, {}, scores, CFG, produced_at_ms=0)
        names = [c[1] for c in diag.ranked_causes]
        assert names == ["c_metric", "a_metric", "b_metric"]

    def test_infinite_score_ranks_first(self):
        scores = {(DB, "flat"): math.inf, (DB, "noisy"): 50.0}
        diag = localize(CHAIN, WEB, {DB}, {}, scores, CFG, produced_at_ms=0)
        assert diag.ranked_causes[0][1] == "flat"

    def test_determinism_byte_identical(self):
        scores = {(DB, f"m{i}"): 3.5 + (i % 3) for i in range(10)}
        d1 = localize(CHAIN, WEB, {DB}, {}, scores, CFG, produced_at_ms=0)
        d2 = localize(CHAIN, WEB, {DB}, {}, dict(reversed(list(scores.items()))), CFG, produced_at_ms=0)
        assert d1.ranked_causes == d2.ranked_causes
        assert d1.to_dict() == d2.to_dict()

    def test_every_cause_exceeds_threshold(self):
        scores = {(DB, "hot"): 4.0, (DB, "warm"): 2.9, (DB, "cold"): 0.5}
        diag = localize(CHAIN, WEB, {DB}, {}, scores, CFG, produced_at_ms=0)
        assert [c[1] for c in diag.ranked_causes] == ["hot"]
        assert all(c[2] > CFG.z_threshold for c in diag.ranked_causes)

    def test_cycle_safe_traversal(self):
        loop = ServiceDependencyGraph(nodes=[WEB, APP], edges=[(0, 1), (1, 0)])
        diag = localize(loop, WEB, {APP}, {}, {(APP, "m"): 5.0}, CFG, produced_at_ms=0)
        assert diag.ranked_causes[0][0] == APP

    def test_deepest_on_all_small_trees(self):
        # brute force: every tree shape up to 6 nodes, one fully anomalous
        # root-to-leaf path; candidate must be exactly the path's deepest node
        import itertools

        for n in range(2, 7):
            for parents in itertools.product(*[range(k) for k in range(1, n)]):
                nodes = [ServiceNode(f"10.0.1.{i}", f"s{i}") for i in range(n)]
                edges = [(p, i + 1) for i, p in enumerate(parents)]
                topo = ServiceDependencyGraph(nodes=nodes, edges=edges)
                # pick the path root -> ... -> deepest leaf by always taking
                # the first child
                children = {i: [j for (p, j) in edges if p == i] for i in range(n)}
                path = [0]
                while children[path[-1]]:
                    path.append(children[path[-1]][0])
                anomalous = {nodes[i] for i in path}
                scores = {(nodes[i], "m"): 10.0 for i in path}
                diag = localize(topo, nodes[0], anomalous, {}, scores, CFG, produced_at_ms=0)
                services = {c[0] for c in diag.ranked_causes}
                assert services == {nodes[path[-1]]}, (edges, path)


class TestUndirectedRegressions:
    """Runs whose hot metrics only undirected edges join, which ranked nothing
    while an undirected neighbour counted as a parent."""

    @staticmethod
    def run(spec, entry, baseline_n):
        frames = simulate_frames(spec)
        series = {key: MetricSeries(key, np.arange(len(frames.values)) * spec.tick_ms, frames.values[:, g])
                  for g, key in enumerate(frames.columns)}
        return diagnose(series, spec.topology, entry, EntropyConfig(alarm_threshold=10.0), PCConfig(),
                        AnomalyConfig(z_threshold=5.0),
                        DiagnosisSettings(baseline_n=baseline_n, window_n=600, pc_row_stride=5, theta=10.0),
                        produced_at_ms=0)

    def test_three_tier_seed_303(self):
        spec = three_tier_with_fault(FaultKind.cpu_hog, 303, start_tick=5200, end_tick=7700, duration_ticks=7700)
        diag = self.run(spec, WEB, 2600)
        assert [(node.service, metric) for node, metric, _ in diag.ranked_causes] == [
            ("db", "cpu_util"), ("db", "latency")]
        assert all("unoriented edges cpu_util-latency" in line for line in diag.evidence)

    def test_random_topology(self):
        spec = generate_random_spec(5, 8, 2.0, 3, duration_ticks=4000)
        target = (ServiceNode("10.0.0.3", "svc2"), "m1")
        spec.faults = [FaultEvent(3200, 4000, target, FaultKind.cpu_hog, 6.0)]
        diag = self.run(spec, spec.topology.nodes[0], 2400)
        assert [c[:2] for c in diag.ranked_causes] == [target, (target[0], "m4")]
