"""Failure modeling over up/down event logs, plus entropy-trend forecasting.

MTTF and MTTR are means over completed intervals only; a trailing open
interval is excluded rather than guessed at. The failure-time forecast is
an ordinary least squares line over the trailing entropy scores, solved
for the threshold crossing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    MalformedRecord,
    NoCompletedInterval,
    NonAlternatingLog,
    TooFewPoints,
)
from .model import ServiceNode, data_lines, quote_line

UP = "up"
DOWN = "down"


@dataclass(frozen=True)
class UpDownEvent:
    ts_ms: int
    target: ServiceNode
    state: str  # "up" | "down"

    def __post_init__(self) -> None:
        if self.state not in (UP, DOWN):
            raise ValueError(f"state must be 'up' or 'down', got {self.state!r}")


@dataclass(frozen=True)
class AvailabilityReport:
    target: ServiceNode
    mttf_ms: float
    mttr_ms: float
    availability: float
    n_failures: int

    def to_dict(self) -> dict:
        return {
            "target": {"ip": self.target.ip, "service": self.target.service},
            "mttf_ms": self.mttf_ms,
            "mttr_ms": self.mttr_ms,
            "availability": self.availability,
            "n_failures": self.n_failures,
        }


def _check_alternating(log: Sequence[UpDownEvent]) -> None:
    last_ts = None
    last_state = None
    for event in log:
        if last_ts is not None and event.ts_ms <= last_ts:
            raise NonAlternatingLog(f"timestamps not strictly increasing at {event.ts_ms}")
        if last_state is not None and event.state == last_state:
            raise NonAlternatingLog(f"state {event.state!r} repeats at {event.ts_ms}")
        last_ts = event.ts_ms
        last_state = event.state


def _intervals(log: Sequence[UpDownEvent]) -> tuple[list[float], list[float]]:
    """Durations of the completed up and down intervals: in an alternating
    log each event closes the interval its predecessor opened."""
    _check_alternating(log)
    ups: list[float] = []
    downs: list[float] = []
    for opening, closing in zip(log, log[1:]):
        (ups if opening.state == UP else downs).append(float(closing.ts_ms - opening.ts_ms))
    return ups, downs


def _mean(durations: list[float], state: str) -> float:
    if not durations:
        raise NoCompletedInterval(f"log holds no completed {state} interval")
    return float(np.mean(durations))


def mttf(log: Sequence[UpDownEvent]) -> float:
    """Mean completed up-interval duration in milliseconds."""
    return _mean(_intervals(log)[0], UP)


def mttr(log: Sequence[UpDownEvent]) -> float:
    """Mean completed down-interval duration in milliseconds."""
    return _mean(_intervals(log)[1], DOWN)


def availability(log: Sequence[UpDownEvent]) -> AvailabilityReport:
    """Steady-state availability MTTF/(MTTF+MTTR) with failure count."""
    ups, downs = _intervals(log)
    up_mean, down_mean = _mean(ups, UP), _mean(downs, DOWN)
    return AvailabilityReport(
        target=log[0].target,
        mttf_ms=up_mean,
        mttr_ms=down_mean,
        availability=up_mean / (up_mean + down_mean),
        n_failures=len(downs),
    )


@dataclass(frozen=True)
class Forecast:
    kind: str  # "crossing" | "already_exceeded" | "no_trend"
    crossing_ts_ms: float | None = None
    slope_per_ms: float = 0.0
    intercept: float = 0.0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "crossing_ts_ms": self.crossing_ts_ms,
            "slope_per_ms": self.slope_per_ms,
            "intercept": self.intercept,
        }


def forecast_failure_time(
    entropy_history: Sequence[tuple[int, float]],
    theta: float,
    fit_window: int,
) -> Forecast:
    """Project the entropy trend to the alarm threshold.

    Fits an OLS line over the trailing fit_window points. The latest score
    already above theta short-circuits to already_exceeded; a slope at or
    below 1e-12 per ms reports no_trend; otherwise the analytic crossing
    time is returned (already_exceeded when the fitted line crossed in the
    past).
    """
    if fit_window < 2:
        raise ValueError("fit_window must be >= 2")
    points = list(entropy_history)[-fit_window:]
    if len(points) < 2:
        raise TooFewPoints(f"need >= 2 points in the fit window, got {len(points)}")
    ts = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    latest_ts, latest_score = points[-1]

    if latest_score > theta:
        return Forecast(kind="already_exceeded")

    t_mean = ts.mean()
    y_mean = ys.mean()
    denom = float(((ts - t_mean) ** 2).sum())
    if denom == 0.0:
        return Forecast(kind="no_trend")
    slope = float(((ts - t_mean) * (ys - y_mean)).sum() / denom)
    intercept = y_mean - slope * t_mean
    if slope <= 1e-12:
        return Forecast(kind="no_trend", slope_per_ms=slope, intercept=intercept)
    crossing = (theta - intercept) / slope
    if crossing < latest_ts:
        # fitted line crossed in the past even though the last point is low
        return Forecast(kind="already_exceeded", slope_per_ms=slope, intercept=intercept)
    return Forecast(
        kind="crossing",
        crossing_ts_ms=float(crossing),
        slope_per_ms=slope,
        intercept=intercept,
    )


# --- event-log file format ---

def parse_event_line(line: str) -> UpDownEvent:
    try:
        doc = json.loads(line)
        return UpDownEvent(
            ts_ms=int(doc["ts_ms"]),
            target=ServiceNode(str(doc["ip"]), str(doc["service"])),
            state=str(doc["state"]),
        )
    except KeyError as exc:
        raise MalformedRecord(f"event record missing {exc.args[0]}: {quote_line(line.strip())}") from exc
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:  # int(1e999), deep nesting
        raise MalformedRecord(f"bad event record: {quote_line(line.strip())}") from exc


def serialize_event_line(event: UpDownEvent) -> str:
    doc = {
        "ts_ms": event.ts_ms,
        "ip": event.target.ip,
        "service": event.target.service,
        "state": event.state,
    }
    return json.dumps(doc, separators=(", ", ": ")) + "\n"


def load_event_log(path) -> dict[ServiceNode, list[UpDownEvent]]:
    """Events grouped per target, in file order."""
    logs: dict[ServiceNode, list[UpDownEvent]] = {}
    for lineno, line in data_lines(path):
        try:
            event = parse_event_line(line)
        except MalformedRecord as exc:
            raise MalformedRecord(f"{path}:{lineno}: {exc}") from exc
        logs.setdefault(event.target, []).append(event)
    return logs
