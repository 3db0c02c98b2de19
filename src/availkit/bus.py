"""Uniform registry and dispatch for analysis methods.

Every analysis the engine ships (entropy curves, structure learning,
anomaly detectors, availability stats, forecasting) registers here with a
typed parameter schema, so user-supplied methods get the same validation
and the frontend can enumerate everything through one listing.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping

import numpy as np

from . import causal, entropy, rootcause
from .availability import availability as availability_stats
from .availability import forecast_failure_time
from .errors import DuplicateName, InputKindMismatch, ParamOutOfBounds, UnknownMethod
from .model import MetricMatrix, MetricSeries, column_name


class InputKind(Enum):
    single_series = "single_series"
    metric_matrix = "metric_matrix"
    event_log = "event_log"


@dataclass(frozen=True)
class ParamSpec:
    kind: str  # "int" | "float" | "bool" | "str"
    default: object
    lo: float | None = None
    hi: float | None = None
    lo_open: bool = False
    hi_open: bool = False

    def validate(self, name: str, value: object):
        try:
            if self.kind == "int":
                if isinstance(value, float) and not value.is_integer():
                    raise ValueError(value)
                coerced: object = int(value)  # type: ignore[arg-type]
            elif self.kind == "float":
                coerced = float(value)  # type: ignore[arg-type]
            elif self.kind == "bool":
                if isinstance(value, str):
                    if value.lower() in ("true", "1", "yes"):
                        coerced = True
                    elif value.lower() in ("false", "0", "no"):
                        coerced = False
                    else:
                        raise ValueError(value)
                else:
                    coerced = bool(value)
            else:
                coerced = str(value)
        except (TypeError, ValueError) as exc:
            raise ParamOutOfBounds(f"parameter {name!r}: cannot read {value!r} as {self.kind}") from exc
        if self.kind in ("int", "float"):
            num = float(coerced)  # type: ignore[arg-type]
            if math.isnan(num):
                raise ParamOutOfBounds(f"parameter {name!r} is NaN")
            if self.lo is not None and (num < self.lo or (self.lo_open and num == self.lo)):
                raise ParamOutOfBounds(f"parameter {name!r}={value!r} below bound {self.lo}")
            if self.hi is not None and (num > self.hi or (self.hi_open and num == self.hi)):
                raise ParamOutOfBounds(f"parameter {name!r}={value!r} above bound {self.hi}")
        return coerced


@dataclass(frozen=True)
class MethodDescriptor:
    name: str
    input_kind: InputKind
    params: dict[str, ParamSpec]
    description: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "input_kind": self.input_kind.value,
            "description": self.description,
            "params": {
                pname: {
                    "type": spec.kind,
                    "default": spec.default,
                    "lo": spec.lo,
                    "hi": spec.hi,
                    "lo_open": spec.lo_open,
                    "hi_open": spec.hi_open,
                }
                for pname, spec in self.params.items()
            },
        }


_INPUT_TYPES = {
    InputKind.single_series: (MetricSeries, np.ndarray, list, tuple),
    InputKind.metric_matrix: (MetricMatrix,),
    InputKind.event_log: (list, tuple),
}


class MethodBus:
    """Thread-safe method registry; built-ins are registered on creation."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._methods: dict[str, tuple[MethodDescriptor, Callable]] = {}
        _register_builtins(self)

    def register(self, desc: MethodDescriptor, impl: Callable) -> MethodDescriptor:
        with self._lock:
            if desc.name in self._methods:
                raise DuplicateName(f"method {desc.name!r} is already registered")
            self._methods[desc.name] = (desc, impl)
        return desc

    def list_methods(self) -> list[MethodDescriptor]:
        with self._lock:
            return [self._methods[name][0] for name in sorted(self._methods)]

    def describe(self, name: str) -> MethodDescriptor:
        return self._entry(name)[0]

    def _entry(self, name: str) -> tuple[MethodDescriptor, Callable]:
        with self._lock:
            entry = self._methods.get(name)
        if entry is None:
            raise UnknownMethod(f"unknown method {name!r}")
        return entry

    def resolve_params(self, name: str, params: Mapping[str, object] | None = None) -> dict[str, object]:
        """params of method `name` validated against its ParamSpecs, the
        omitted ones at their defaults; an unknown or out-of-bounds one
        raises ParamOutOfBounds."""
        desc = self.describe(name)
        given = dict(params or {})
        resolved = {
            pname: spec.validate(pname, given.pop(pname)) if pname in given else spec.default
            for pname, spec in desc.params.items()
        }
        if given:
            raise ParamOutOfBounds(f"unknown parameter(s) {sorted(given)} for method {name!r}")
        return resolved

    def run(
        self,
        name: str,
        input_value,
        params: Mapping[str, object] | None = None,
    ) -> dict:
        """The payload of method `name` on `input_value` with
        resolve_params(name, params)."""
        desc, impl = self._entry(name)
        expected = _INPUT_TYPES[desc.input_kind]
        if not isinstance(input_value, expected):
            raise InputKindMismatch(
                f"method {name!r} expects {desc.input_kind.value}, got {type(input_value).__name__}"
            )
        return impl(input_value, **self.resolve_params(name, params))


def _series_values(value) -> np.ndarray:
    if isinstance(value, MetricSeries):
        return value.values
    return np.asarray(value, dtype=float)


def _mse_impl(series, m, r_fraction, max_scale):
    values = _series_values(series)
    cfg = entropy.EntropyConfig(
        m=m, r_fraction=r_fraction, max_scale=max_scale,
        window_len=max(len(values), max_scale * (m + 2)),
    )
    curve = entropy.mse_curve(values, cfg)
    return {
        "curve": [
            {"scale": i + 1, "value": e.value, "capped": e.capped}
            for i, e in enumerate(curve)
        ],
        "score": entropy.curve_score(curve),
    }


def _pc_impl(data, alpha, max_cond, min_rows):
    cfg = causal.PCConfig(alpha=alpha, max_cond=max_cond, min_rows=min_rows)
    graph = causal.learn_metric_graph(data, cfg)
    doc = graph.to_dict()
    doc["dropped"] = list(graph.dropped)
    return doc


def _split_baseline(series, baseline_len) -> tuple[np.ndarray, np.ndarray]:
    values = _series_values(series)
    if len(values) <= baseline_len:
        raise ParamOutOfBounds(
            f"baseline_len={baseline_len} leaves no detection window for {len(values)} points"
        )
    return values[:baseline_len], values[baseline_len:]


def _zscore_impl(series, baseline_len):
    score = rootcause.zscore_anomaly(*_split_baseline(series, baseline_len))
    return {"score": score, "baseline_len": baseline_len}


def _cusum_impl(series, baseline_len, k, h):
    base, rest = _split_baseline(series, baseline_len)
    sigma = float(np.std(base))
    if sigma == 0.0:
        raise ParamOutOfBounds("baseline has zero variance; cusum needs sigma > 0")
    changes = rootcause.cusum_change(rest, float(base.mean()), sigma, k, h)
    return {"change_points": [baseline_len + c for c in changes]}


def _correlation_impl(data):
    res = causal.correlation_matrix(data)
    return {
        "columns": [column_name(c) for c in res.columns],
        "matrix": res.matrix.tolist(),
        "dropped": [column_name(c) for c in res.dropped],
        "n_rows": res.n_rows,
    }


def _availability_impl(events):
    report = availability_stats(list(events))
    return report.to_dict()


def _history(series) -> list[tuple[int, float]]:
    """(ts, score) points of a MetricSeries, of (ts, score) pairs, or of a
    flat sequence of scores, whose ts is each score's index."""
    if isinstance(series, MetricSeries):
        return list(zip(series.ts.tolist(), series.values.tolist()))
    items = list(series)
    if all(isinstance(x, numbers.Real) for x in items):
        return [(i, float(x)) for i, x in enumerate(items)]
    try:
        return [(int(ts), float(v)) for ts, v in items]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputKindMismatch("method 'forecast' expects scores or (ts, score) pairs") from exc


def _forecast_impl(series, theta, fit_window):
    forecast = forecast_failure_time(_history(series), theta, fit_window)
    return forecast.to_dict()


def _register_builtins(bus: MethodBus) -> None:
    bus.register(
        MethodDescriptor(
            name="mse",
            input_kind=InputKind.single_series,
            params={
                "m": ParamSpec("int", entropy.EntropyConfig.m, lo=1),
                "r_fraction": ParamSpec("float", entropy.EntropyConfig.r_fraction, lo=0.0, lo_open=True),
                "max_scale": ParamSpec("int", entropy.EntropyConfig.max_scale, lo=1),
            },
            description="Multi-scale sample entropy curve of one series",
        ),
        _mse_impl,
    )
    bus.register(
        MethodDescriptor(
            name="pc",
            input_kind=InputKind.metric_matrix,
            params={
                "alpha": ParamSpec("float", causal.PCConfig.alpha, lo=0.0, hi=1.0, lo_open=True, hi_open=True),
                "max_cond": ParamSpec("int", causal.PCConfig.max_cond, lo=0),
                "min_rows": ParamSpec("int", causal.PCConfig.min_rows, lo=5),
            },
            description="Metric dependency CPDAG via PC-stable with Fisher-z tests",
        ),
        _pc_impl,
    )
    bus.register(
        MethodDescriptor(
            name="zscore",
            input_kind=InputKind.single_series,
            params={"baseline_len": ParamSpec("int", 120, lo=2)},
            description="Max |z| of the post-baseline window against the baseline",
        ),
        _zscore_impl,
    )
    bus.register(
        MethodDescriptor(
            name="cusum",
            input_kind=InputKind.single_series,
            params={
                "baseline_len": ParamSpec("int", 120, lo=2),
                "k": ParamSpec("float", 0.5, lo=0.0, lo_open=True),
                "h": ParamSpec("float", 5.0, lo=0.0, lo_open=True),
            },
            description="Two-sided tabular CUSUM change detection",
        ),
        _cusum_impl,
    )
    bus.register(
        MethodDescriptor(
            name="correlation",
            input_kind=InputKind.metric_matrix,
            params={},
            description="Pearson correlation matrix over complete rows",
        ),
        _correlation_impl,
    )
    bus.register(
        MethodDescriptor(
            name="availability",
            input_kind=InputKind.event_log,
            params={},
            description="MTTF, MTTR and availability from an up/down event log",
        ),
        _availability_impl,
    )
    bus.register(
        MethodDescriptor(
            name="forecast",
            input_kind=InputKind.single_series,
            params={
                "theta": ParamSpec("float", entropy.EntropyConfig.alarm_threshold, lo=0.0, lo_open=True),
                "fit_window": ParamSpec("int", 10, lo=2),
            },
            description="OLS projection of an entropy history to the alarm threshold",
        ),
        _forecast_impl,
    )
