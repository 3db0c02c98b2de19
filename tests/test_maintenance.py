import math
import threading
import time

import pytest

from availkit.errors import MalformedXml, MissingElement, UnknownAction
from availkit.maintenance import (
    ActionKind,
    MaintenanceAction,
    MaintenanceLoop,
    MaintenancePolicy,
    decide_action,
    default_policy,
    parse_action_xml,
    serialize_action_xml,
)
from availkit.model import ServiceNode
from availkit.rootcause import Diagnosis
from fakeclock import FakeClock

DB = ServiceNode("10.0.0.3", "mysql")

SAMPLE_ACTION = MaintenanceAction(
    id="act-42",
    issued_at_ms=1714000000000,
    target=DB,
    kind=ActionKind.restart,
    reason_metric="cpu_util",
    reason_score=4.2,
    cycle_s=300,
)

SAMPLE_XML = (
    "<maintenance_action>\n"
    "  <id>act-42</id>\n"
    "  <issued_at>1714000000000</issued_at>\n"
    '  <target ip="10.0.0.3" service="mysql"/>\n'
    "  <action>restart</action>\n"
    '  <reason metric="cpu_util" score="4.2"/>\n'
    "  <cycle_s>300</cycle_s>\n"
    "</maintenance_action>\n"
)


def diagnosis(causes):
    return Diagnosis(
        entry=ServiceNode("10.0.0.1", "web"),
        anomalous_services={c[0] for c in causes},
        ranked_causes=list(causes),
        produced_at_ms=0,
        evidence=["" for _ in causes],
    )


class TestDecideAction:
    def test_min_cost_for_cpu_category(self):
        policy = MaintenancePolicy(
            costs={
                ActionKind.restart: 1.0,
                ActionKind.reconfigure: 5.0,
                ActionKind.migrate: 10.0,
                ActionKind.scale: 8.0,
            },
            applicability={
                "cpu": {ActionKind.migrate, ActionKind.scale},
                "memory": {ActionKind.restart},
                "io": {ActionKind.migrate},
                "config": {ActionKind.reconfigure, ActionKind.restart},
                "unknown": {ActionKind.restart},
            },
            category_rules=[("cpu*", "cpu"), ("*connection*", "config")],
        )
        diag = diagnosis([(DB, "cpu_util", 9.0)])
        action = decide_action(diag, policy, action_id="a", issued_at_ms=0, cycle_s=60)
        assert action.kind is ActionKind.scale  # 8 < 10

    def test_config_category_min_cost(self):
        policy = MaintenancePolicy(
            costs={
                ActionKind.restart: 1.0,
                ActionKind.reconfigure: 5.0,
                ActionKind.migrate: 10.0,
                ActionKind.scale: 8.0,
            },
            applicability={
                "cpu": {ActionKind.scale},
                "memory": {ActionKind.restart},
                "io": {ActionKind.migrate},
                "config": {ActionKind.reconfigure, ActionKind.restart},
                "unknown": {ActionKind.restart},
            },
            category_rules=[("*connection*", "config")],
        )
        diag = diagnosis([(DB, "max_connections", 7.0)])
        action = decide_action(diag, policy, action_id="a", issued_at_ms=0, cycle_s=60)
        assert action.kind is ActionKind.restart  # 1 < 5

    def test_empty_diagnosis_no_action(self):
        assert decide_action(diagnosis([]), default_policy(), "a", 0, 60) is None

    def test_unknown_metric_falls_back_to_restart(self):
        diag = diagnosis([(DB, "some_exotic_gauge", 5.0)])
        action = decide_action(diag, default_policy(), "a", 0, 60)
        assert action.kind is ActionKind.restart

    def test_first_matching_pattern_wins(self):
        policy = default_policy()
        assert policy.categorize("cpu_util") == "cpu"
        assert policy.categorize("mem_used") == "memory"
        assert policy.categorize("io_wait") == "io"
        assert policy.categorize("threads_connected") == "config"

    def test_cost_tie_broken_by_declaration_order(self):
        policy = MaintenancePolicy(
            costs={
                ActionKind.restart: 2.0,
                ActionKind.reconfigure: 2.0,
                ActionKind.migrate: 2.0,
                ActionKind.scale: 2.0,
            },
            applicability={
                "cpu": {ActionKind.scale, ActionKind.migrate, ActionKind.reconfigure},
                "memory": {ActionKind.restart},
                "io": {ActionKind.migrate},
                "config": {ActionKind.reconfigure},
                "unknown": {ActionKind.restart},
            },
            category_rules=[("cpu*", "cpu")],
        )
        action = decide_action(diagnosis([(DB, "cpu_util", 5.0)]), policy, "a", 0, 60)
        assert action.kind is ActionKind.reconfigure  # earliest in declaration order

    def test_argmin_property_by_enumeration(self):
        policy = default_policy()
        for metric in ("cpu_util", "mem_used", "io_wait", "max_connections", "mystery"):
            action = decide_action(diagnosis([(DB, metric, 5.0)]), policy, "a", 0, 60)
            category = policy.categorize(metric)
            for other in policy.applicability[category]:
                assert policy.costs[action.kind] <= policy.costs[other]


class TestXmlCodec:
    def test_sample_document_byte_exact(self):
        assert serialize_action_xml(SAMPLE_ACTION) == SAMPLE_XML

    def test_sample_document_parses(self):
        assert parse_action_xml(SAMPLE_XML) == SAMPLE_ACTION

    def test_round_trip_generated_actions(self):
        import numpy as np

        rng = np.random.default_rng(8)
        kinds = list(ActionKind)
        for i in range(200):
            action = MaintenanceAction(
                id=f"act-{i}",
                issued_at_ms=int(rng.integers(0, 2**48)),
                target=ServiceNode(f"10.{rng.integers(0, 256)}.0.{rng.integers(0, 256)}", f"svc-{i % 7}"),
                kind=kinds[i % 4],
                reason_metric=f"metric_{i}<&>\"quoted\"",
                reason_score=float(rng.normal()) if i % 5 else math.inf,
                cycle_s=int(rng.integers(1, 86400)),
            )
            assert parse_action_xml(serialize_action_xml(action)) == action

    def test_unknown_action_rejected(self):
        doc = SAMPLE_XML.replace("restart", "reboot")
        with pytest.raises(UnknownAction):
            parse_action_xml(doc)

    def test_missing_target_rejected(self):
        doc = SAMPLE_XML.replace('  <target ip="10.0.0.3" service="mysql"/>\n', "")
        with pytest.raises(MissingElement):
            parse_action_xml(doc)

    def test_unknown_element_rejected(self):
        doc = SAMPLE_XML.replace("</maintenance_action>", "  <extra>1</extra>\n</maintenance_action>")
        with pytest.raises(MalformedXml):
            parse_action_xml(doc)

    def test_garbage_rejected(self):
        with pytest.raises(MalformedXml):
            parse_action_xml("<not-xml")

    def test_score_rendering_shortest_decimal(self):
        xml = serialize_action_xml(SAMPLE_ACTION)
        assert 'score="4.2"' in xml


class TestMaintenanceLoop:
    def test_healthy_ticks_emit_nothing(self):
        emitted = []
        loop = MaintenanceLoop(lambda: None, emitted.append, cycle_s=300)
        for _ in range(10):
            loop.tick()
        assert emitted == [] and loop.ticks == 10

    def test_alarm_tick_emits_exactly_one(self):
        emitted = []
        calls = {"n": 0}

        def evaluate():
            calls["n"] += 1
            return SAMPLE_ACTION if calls["n"] == 3 else None

        loop = MaintenanceLoop(evaluate, emitted.append, cycle_s=300)
        for _ in range(10):
            loop.tick()
        assert len(emitted) == 1
        assert parse_action_xml(emitted[0]) == SAMPLE_ACTION

    def test_evaluation_errors_do_not_kill_loop(self):
        emitted = []

        def evaluate():
            raise RuntimeError("backend exploded")

        loop = MaintenanceLoop(evaluate, emitted.append, cycle_s=300)
        for _ in range(3):
            loop.tick()
        assert loop.ticks == 3 and emitted == []

    def test_cycle_update_takes_effect_next_tick(self):
        clock = FakeClock()
        ticks = []
        loop = MaintenanceLoop(lambda: ticks.append(clock.now()), lambda _x: None, cycle_s=1, clock=clock)
        clock.at(loop, 2.5, lambda: loop.set_cycle_s(3))
        clock.at(loop, 9.5, loop.stop)
        loop.run()
        assert loop.cycle_s == 3
        # the tick already due at 3 keeps the old spacing; the ones after it are 3 s apart
        assert ticks == [1.0, 2.0, 3.0, 6.0, 9.0]

    def test_overlapping_ticks_skipped_and_counted(self):
        clock = FakeClock()
        loop = MaintenanceLoop(lambda: clock.advance(2.2), lambda _x: None, cycle_s=1, clock=clock)
        clock.at(loop, 3.5, loop.stop)
        loop.run()
        # the tick at 1 runs until 3.2, so the ticks due at 2 and 3 are skipped; the next is due at 4
        assert loop.skipped_ticks == 2
        assert loop.ticks == 1

    def test_failing_job_does_not_stop_ticks(self):
        clock = FakeClock()
        runs = []

        def failing_job():
            runs.append(clock.now())
            raise RuntimeError("job exploded")

        loop = MaintenanceLoop(lambda: None, lambda _x: None, cycle_s=1, clock=clock)
        loop.schedule("bad", 0.25, failing_job)
        clock.at(loop, 2.5, loop.stop)
        loop.run()
        assert loop.ticks == 2
        assert runs == [0.25 * i for i in range(1, 11)]  # the job kept its own, shorter period

    def test_cancelled_job_does_not_run(self):
        clock = FakeClock()
        runs = []
        loop = MaintenanceLoop(lambda: None, lambda _x: None, cycle_s=1, clock=clock)
        loop.schedule("job", 0.25, lambda: runs.append(1))
        assert loop.cancel("job") is True
        assert loop.cancel("job") is False
        loop.schedule("late", 0.25, lambda: runs.append(2))
        clock.at(loop, 0.5, lambda: loop.cancel("late"))
        clock.at(loop, 2.5, loop.stop)
        loop.run()
        assert runs == [2, 2]  # "late" ran at 0.25, and at 0.5 just before its cancel
        assert loop.ticks == 2

    def test_huge_cycle_does_not_kill_loop(self):
        # the one test on the real clock: a real Condition wait and a stop() from another thread
        loop = MaintenanceLoop(lambda: None, lambda _x: None, cycle_s=10**12)
        thread = threading.Thread(target=loop.run, daemon=True)
        thread.start()
        time.sleep(0.3)
        alive = thread.is_alive()  # waiting, not dead of an overflowing timeout
        loop.stop()
        thread.join(timeout=5)
        assert alive and not thread.is_alive()
