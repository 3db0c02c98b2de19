"""In-memory span recorder for the traced benchmark run.

Only the traced run installs wrappers, and only from the benchmark's own
files. Each wrapper replaces the attribute where the caller looks the
function up (a module global such as ``availkit.pipeline.align`` or a class
attribute such as ``MetricStore.append``), so availkit itself is not edited.

A span is ``[op_id, name, start, end, parent_index]``. A span opened with
no enclosing span on its thread starts a new operation id; nested spans
inherit it, so every span of one pass, evaluation or request shares an id.
Per-record functions (hundreds of thousands of calls) are timed as
aggregates, ``name -> [calls, seconds]``, instead of spans, so tracing
memory stays small.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import tracemalloc
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.aggregates: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.peak_traced_bytes = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op_ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ---

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            op_id = self.spans[parent][0]
        else:
            parent = None
            op_id = next(self._op_ids)
        rec = [op_id, name, time.perf_counter(), None, parent]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack().pop()

    def span(self, name: str):
        return _SpanContext(self, name)

    # --- wrappers ---

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace owner.attr until restore()."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap_span(self, owner, attr: str, name: str, peak_memory: bool = False) -> None:
        """Record a span around every call; optionally the tracemalloc peak."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            started_tracing = peak_memory and not tracemalloc.is_tracing()
            if started_tracing:
                tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                if started_tracing:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.peak_traced_bytes = max(tracer.peak_traced_bytes, peak)
                tracer.end(idx)

        self.patch(owner, attr, wrapper)

    def wrap_aggregate(self, owner, attr: str, name: str) -> None:
        """Accumulate calls and seconds without creating spans."""
        original = getattr(owner, attr)
        agg = self.aggregates[name]
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                agg[0] += 1
                agg[1] += clock() - t0

        self.patch(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- export ---

    def export(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "aggregates": {k: list(v) for k, v in self.aggregates.items()},
            "peak_traced_bytes": self.peak_traced_bytes,
        }


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_idx")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        self._idx = self._tracer.begin(self._name)
        return self._idx

    def __exit__(self, *exc) -> None:
        self._tracer.end(self._idx)


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


def span_factory(tracer: Tracer | None):
    """tracer.span, or a no-op span context for the untraced run."""
    return tracer.span if tracer is not None else (lambda name: _NULL_SPAN)


def op_summaries(spans: list[list]) -> dict[int, dict]:
    """Per operation: its root span and, per span name, total and self time.

    Self time is a span's duration minus the durations of its direct
    children. Children of one span run one after another on its thread,
    so their durations do not overlap.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        parent = s[4]
        if parent is not None and s[3] is not None:
            child_time[parent] += s[3] - s[2]
    ops: dict[int, dict] = {}
    for idx, (op_id, name, start, end, parent) in enumerate(spans):
        if end is None:
            continue
        dur = end - start
        op = ops.setdefault(op_id, {"root": None, "names": {}})
        entry = op["names"].setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["total"] += dur
        entry["self"] += dur - child_time[idx]
        if parent is None:
            op["root"] = {"name": name, "start": start, "end": end, "dur": dur,
                          "self": dur - child_time[idx]}
    return ops
