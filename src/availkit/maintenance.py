"""Recovery decisions and the periodic maintenance cycle.

A Diagnosis is turned into the cheapest applicable action for the top
cause's category; the action travels as a small canonical XML message
(the analysis and maintenance sides share only this format). One loop
thread re-evaluates health on a runtime-adjustable period and runs every
other periodic job in between, never two at once.
"""

from __future__ import annotations

import logging
import math
import sys
import threading
import time
from dataclasses import dataclass
from enum import Enum
from fnmatch import fnmatchcase
from typing import Callable, Hashable
from xml.etree import ElementTree
from xml.sax.saxutils import escape, quoteattr

from .errors import MalformedXml, MissingElement, UnknownAction
from .model import ServiceNode
from .rootcause import Diagnosis

log = logging.getLogger(__name__)


class ActionKind(Enum):
    restart = "restart"
    reconfigure = "reconfigure"
    migrate = "migrate"
    scale = "scale"


# declaration order doubles as the cost tie-break
ACTION_ORDER = [ActionKind.restart, ActionKind.reconfigure, ActionKind.migrate, ActionKind.scale]

CATEGORIES = ("cpu", "memory", "io", "config", "unknown")


@dataclass
class MaintenancePolicy:
    costs: dict[ActionKind, float]
    applicability: dict[str, set[ActionKind]]
    category_rules: list[tuple[str, str]]  # (metric glob, category), in order

    def __post_init__(self) -> None:
        for category in CATEGORIES:
            kinds = self.applicability.get(category)
            if not kinds:
                raise ValueError(f"category {category!r} has no applicable action")
        if self.applicability["unknown"] != {ActionKind.restart}:
            raise ValueError("the unknown category must map to exactly {restart}")
        for kind in ActionKind:
            if self.costs.get(kind, 0.0) <= 0.0:
                raise ValueError(f"cost for {kind.value} must be positive")
        for _, category in self.category_rules:
            if category not in CATEGORIES:
                raise ValueError(f"rule maps to unknown category {category!r}")

    def categorize(self, metric: str) -> str:
        for pattern, category in self.category_rules:
            if fnmatchcase(metric, pattern):
                return category
        return "unknown"


def default_policy() -> MaintenancePolicy:
    return MaintenancePolicy(
        costs={
            ActionKind.restart: 1.0,
            ActionKind.reconfigure: 2.0,
            ActionKind.migrate: 10.0,
            ActionKind.scale: 5.0,
        },
        applicability={
            "cpu": {ActionKind.scale, ActionKind.migrate},
            "memory": {ActionKind.restart, ActionKind.migrate},
            "io": {ActionKind.migrate, ActionKind.scale},
            "config": {ActionKind.reconfigure, ActionKind.restart},
            "unknown": {ActionKind.restart},
        },
        category_rules=[
            ("cpu*", "cpu"),
            ("*cpu*", "cpu"),
            ("*mem*", "memory"),
            ("*swap*", "memory"),
            ("*io*", "io"),
            ("*disk*", "io"),
            ("*connection*", "config"),
            ("*config*", "config"),
            ("*thread*", "config"),
        ],
    )


@dataclass(frozen=True)
class MaintenanceAction:
    id: str
    issued_at_ms: int
    target: ServiceNode
    kind: ActionKind
    reason_metric: str
    reason_score: float
    cycle_s: int


def decide_action(
    diag: Diagnosis,
    policy: MaintenancePolicy,
    action_id: str,
    issued_at_ms: int,
    cycle_s: int,
) -> MaintenanceAction | None:
    """Cheapest applicable action for the top-ranked cause.

    Cost ties break by action declaration order
    (restart < reconfigure < migrate < scale); an empty diagnosis yields
    no action.
    """
    if not diag.ranked_causes:
        return None
    node, metric, score = diag.ranked_causes[0]
    category = policy.categorize(metric)
    applicable = policy.applicability[category]
    kind = min(applicable, key=lambda k: (policy.costs[k], ACTION_ORDER.index(k)))
    return MaintenanceAction(
        id=action_id,
        issued_at_ms=issued_at_ms,
        target=node,
        kind=kind,
        reason_metric=metric,
        reason_score=score,
        cycle_s=cycle_s,
    )


def _render_score(score: float) -> str:
    if math.isinf(score):
        return "inf" if score > 0 else "-inf"
    return repr(score)


def serialize_action_xml(action: MaintenanceAction) -> str:
    """Canonical maintenance message: fixed field order, 2-space indent."""
    return (
        "<maintenance_action>\n"
        f"  <id>{escape(action.id)}</id>\n"
        f"  <issued_at>{action.issued_at_ms}</issued_at>\n"
        f"  <target ip={quoteattr(action.target.ip)} service={quoteattr(action.target.service)}/>\n"
        f"  <action>{action.kind.value}</action>\n"
        f"  <reason metric={quoteattr(action.reason_metric)} score={quoteattr(_render_score(action.reason_score))}/>\n"
        f"  <cycle_s>{action.cycle_s}</cycle_s>\n"
        "</maintenance_action>\n"
    )


_EXPECTED_ELEMENTS = ("id", "issued_at", "target", "action", "reason", "cycle_s")


def parse_action_xml(doc: str) -> MaintenanceAction:
    """Inverse of serialize_action_xml; unknown elements are rejected."""
    try:
        root = ElementTree.fromstring(doc)
    except ElementTree.ParseError as exc:
        raise MalformedXml(f"cannot parse maintenance message: {exc}") from exc
    if root.tag != "maintenance_action":
        raise MalformedXml(f"unexpected root element {root.tag!r}")
    children: dict[str, ElementTree.Element] = {}
    for child in root:
        if child.tag not in _EXPECTED_ELEMENTS or child.tag in children:
            raise MalformedXml(f"unexpected element {child.tag!r}")
        children[child.tag] = child
    for tag in _EXPECTED_ELEMENTS:
        if tag not in children:
            raise MissingElement(f"missing <{tag}>")
    kind_text = (children["action"].text or "").strip()
    try:
        kind = ActionKind(kind_text)
    except ValueError as exc:
        raise UnknownAction(f"unknown action {kind_text!r}") from exc
    target = children["target"]
    reason = children["reason"]
    for element, attrs in ((target, ("ip", "service")), (reason, ("metric", "score"))):
        for attr in attrs:
            if attr not in element.attrib:
                raise MissingElement(f"missing attribute {attr!r} on <{element.tag}>")
    try:
        return MaintenanceAction(
            id=(children["id"].text or ""),
            issued_at_ms=int((children["issued_at"].text or "").strip()),
            target=ServiceNode(target.attrib["ip"], target.attrib["service"]),
            kind=kind,
            reason_metric=reason.attrib["metric"],
            reason_score=float(reason.attrib["score"]),
            cycle_s=int((children["cycle_s"].text or "").strip()),
        )
    except ValueError as exc:
        raise MalformedXml(f"bad field value: {exc}") from exc


@dataclass
class _Job:
    period: Callable[[], float]  # seconds; read each time the job is rescheduled
    fn: Callable[[], object]
    due: float  # deadline on the loop's clock


_MAINTENANCE = object()  # job id of the maintenance tick


class RealClock:
    """The loop's clock: monotonic seconds, and waits on its condition.

    A MaintenanceLoop calls now() for due times and wait(cond, timeout_s)
    with cond held; a test passes an object with the same two methods.
    """

    @staticmethod
    def now() -> float:
        return time.monotonic()

    @staticmethod
    def wait(cond: threading.Condition, timeout_s: float) -> None:
        cond.wait(min(timeout_s, threading.TIMEOUT_MAX))  # a longer wait overflows


REAL_CLOCK = RealClock()


def check_cycle_s(value) -> int:
    """A maintenance cycle length: an integer number of seconds from 1 to
    sys.float_info.max, since the loop adds it to float due times."""
    if type(value) is not int or not 1 <= value <= sys.float_info.max:  # bool and 2.7 are rejected
        raise ValueError(f"cycle_s must be an integer between 1 and {sys.float_info.max:g}")
    return value


class MaintenanceLoop:
    """The engine's one periodic loop: the maintenance tick plus scheduled jobs.

    evaluate() returns a MaintenanceAction or None; emit() receives the
    serialized XML. Jobs run one at a time, earliest due first; ticks that
    a long run overlaps are skipped (skipped_ticks counts the maintenance
    tick's). A job that raises is logged and the loop carries on. Due
    times and waits go through clock (see RealClock).
    """

    def __init__(
        self,
        evaluate: Callable[[], MaintenanceAction | None],
        emit: Callable[[str], None],
        cycle_s: int,
        clock=REAL_CLOCK,
    ) -> None:
        self._evaluate = evaluate
        self._emit = emit
        self._clock = clock
        self._cond = threading.Condition()
        self.set_cycle_s(cycle_s)
        self._stopped = False
        self._jobs: dict[Hashable, _Job] = {}
        self.ticks = 0
        self.skipped_ticks = 0
        self.emitted = 0

    @property
    def cycle_s(self) -> int:
        with self._cond:
            return self._cycle_s

    def set_cycle_s(self, value: int) -> None:
        """Takes effect at the next tick; last write wins."""
        value = check_cycle_s(value)
        with self._cond:
            self._cycle_s = value
            self._cond.notify()

    def schedule(self, job_id: Hashable, period_s: float, fn: Callable[[], object]) -> None:
        """Run fn every period_s seconds from now on, replacing job_id's old job."""
        if not period_s > 0:
            raise ValueError("period_s must be positive")
        with self._cond:
            self._jobs[job_id] = _Job(lambda: period_s, fn, self._clock.now() + period_s)
            self._cond.notify()

    def cancel(self, job_id: Hashable) -> bool:
        """Drop a scheduled job; a run already under way finishes."""
        with self._cond:
            found = self._jobs.pop(job_id, None) is not None
            self._cond.notify()
        return found

    def tick(self) -> bool:
        """One evaluation; True when an action was emitted."""
        self.ticks += 1
        try:
            action = self._evaluate()
        except Exception:
            log.exception("maintenance evaluation failed; cycle continues")
            return False
        if action is None:
            return False
        try:
            self._emit(serialize_action_xml(action))
        except Exception:
            log.exception("maintenance emit failed; cycle continues")
            return False
        self.emitted += 1
        return True

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify()

    def run(self) -> None:
        """Service loop; returns only after stop()."""
        with self._cond:
            # the first tick is one cycle after start, at the cycle then in force
            self._jobs[_MAINTENANCE] = _Job(
                lambda: self._cycle_s, lambda: self.tick(), self._clock.now() + self._cycle_s
            )
        while True:
            with self._cond:
                if self._stopped:
                    return
                job_id, job = min(self._jobs.items(), key=lambda item: item[1].due)
                wait_s = job.due - self._clock.now()
                if wait_s > 0:
                    self._clock.wait(self._cond, wait_s)  # schedule, cancel, set_cycle_s and stop notify
                    continue
            try:
                job.fn()
            except Exception:
                log.exception("periodic job %r failed; loop continues", job_id)
            with self._cond:
                if self._jobs.get(job_id) is not job:
                    continue  # cancelled or replaced while it ran
                period, now = job.period(), self._clock.now()
                job.due += period
                while job.due <= now:  # the run overran one or more ticks
                    if job_id is _MAINTENANCE:
                        self.skipped_ticks += 1
                    job.due += period
