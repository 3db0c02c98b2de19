"""Core data types: samples, series, aligned matrices and dependency graphs.

Everything here is an immutable-ish value object plus a few pure helpers
(align, validate_topology). Timestamps are integer epoch
milliseconds throughout; missing matrix cells are NaN. A series is
columnar: one int64 timestamp array and one float64 value array, which
every consumer reads directly.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import EmptyInput, FileUnreadable, MalformedRecord

MAX_TS_MS = 2**63 - 1  # stored as int64
QUOTED_CHARS = 80  # of an input line that an error message quotes
MAX_LINE_BYTES = 64 * 1024  # of an input line without its line end; a longer line is rejected

_DOTTED_QUAD = re.compile(r"([0-9]{1,3})\.([0-9]{1,3})\.([0-9]{1,3})\.([0-9]{1,3})")


def is_dotted_quad(ip: str) -> bool:
    """Exactly four ASCII decimal octets 0-255: no trailing newline and no
    other Unicode digits, so one address has one spelling as a key."""
    m = _DOTTED_QUAD.fullmatch(ip)
    if not m:
        return False
    return all(0 <= int(octet) <= 255 for octet in m.groups())


class MetricKey(NamedTuple):
    """Identity of one monitored time series."""

    ip: str
    service: str
    metric: str


class ServiceNode(NamedTuple):
    """One node of the service dependency graph: (IP address, service name)."""

    ip: str
    service: str

    def label(self) -> str:
        return f"{self.ip}:{self.service}"


@dataclass(frozen=True)
class MetricSample:
    """A single timestamped observation of one metric on one service."""

    ts_ms: int
    ip: str
    service: str
    metric: str
    value: float

    def __post_init__(self) -> None:
        if not 0 <= self.ts_ms <= MAX_TS_MS:
            raise ValueError(f"ts_ms must be in [0, 2**63-1], got {quote_line(str(self.ts_ms))}")
        if not self.service or not self.metric:
            raise ValueError("service and metric must be non-empty")
        if not is_dotted_quad(self.ip):
            raise ValueError(f"ip must be a dotted quad, got {quote_line(self.ip)}")
        if not math.isfinite(self.value):
            raise ValueError(f"value must be finite, got {self.value!r}")

    @property
    def key(self) -> MetricKey:
        return MetricKey(self.ip, self.service, self.metric)


@dataclass(eq=False)
class MetricSeries:
    """One metric key's samples as two equal-length 1-D columns.

    ts (int64 ms) is strictly increasing; ingestion dedups duplicates
    before a series is built. values is float64.
    """

    key: MetricKey
    ts: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.ts = np.asarray(self.ts, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.ts.ndim != 1 or self.ts.shape != self.values.shape:
            raise ValueError(f"ts and values must be equal-length 1-D: {self.ts.shape}, {self.values.shape}")

    def __len__(self) -> int:
        return self.ts.size


@dataclass
class MetricMatrix:
    """Bucketed, column-aligned view of a set of series.

    Row t covers [start_ms + t * interval_ms, start_ms + (t+1) * interval_ms).
    Missing cells are NaN ("absent"); downstream analyses drop incomplete
    rows (listwise deletion) rather than interpolate.
    """

    interval_ms: int
    start_ms: int
    columns: list
    values: np.ndarray  # shape (n_rows, n_columns), NaN = absent

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.columns):
            raise ValueError("values must be 2-D with one column per key")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def column_names(self) -> list[str]:
        return [column_name(col) for col in self.columns]


def column_name(label) -> str:
    """A column label's name: a MetricKey's metric, any other label as text."""
    metric = getattr(label, "metric", None)
    return metric if isinstance(metric, str) else str(label)


@dataclass
class ServiceDependencyGraph:
    """High-level call graph; edge (i, j) means node i depends on node j."""

    nodes: list[ServiceNode]
    edges: list[tuple[int, int]] = field(default_factory=list)

    def index_of(self, node: ServiceNode) -> int | None:
        try:
            return self.nodes.index(node)
        except ValueError:
            return None

    def callees(self, node: ServiceNode) -> list[ServiceNode]:
        idx = self.index_of(node)
        if idx is None:
            return []
        return [self.nodes[j] for (i, j) in self.edges if i == idx and 0 <= j < len(self.nodes)]

    def reachable_from(self, entry: ServiceNode) -> list[ServiceNode]:
        """Depth-first reachability along caller->callee edges; cycle-safe."""
        start = self.index_of(entry)
        if start is None:
            return []
        succ: dict[int, list[int]] = {}
        for i, j in self.edges:
            succ.setdefault(i, []).append(j)
        seen: set[int] = set()
        order: list[int] = []
        stack = [start]
        while stack:
            cur = stack.pop()
            if cur in seen or not (0 <= cur < len(self.nodes)):
                continue
            seen.add(cur)
            order.append(cur)
            for nxt in sorted(succ.get(cur, ()), reverse=True):
                if nxt not in seen:
                    stack.append(nxt)
        return [self.nodes[i] for i in order]

    def to_dict(self) -> dict:
        return {
            "nodes": [{"ip": n.ip, "service": n.service} for n in self.nodes],
            "edges": [[i, j] for i, j in self.edges],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ServiceDependencyGraph":
        nodes = [ServiceNode(str(n["ip"]), str(n["service"])) for n in doc.get("nodes", [])]
        edges = [(int(e[0]), int(e[1])) for e in doc.get("edges", [])]
        return cls(nodes=nodes, edges=edges)


def quote_line(line: str) -> str:
    """repr(line) for an error message; a line longer than QUOTED_CHARS
    is cut to that many characters and its length is given."""
    if len(line) <= QUOTED_CHARS:
        return repr(line)
    return f"{line[:QUOTED_CHARS]!r}... ({len(line)} characters)"


def data_lines(path) -> Iterator[tuple[int, str]]:
    r"""(line number, stripped text) of each line of a text file that is
    neither blank nor a '#' comment; "\n", "\r\n" and a lone "\r" each end
    a line. A line that is not UTF-8, or longer than MAX_LINE_BYTES, raises
    MalformedRecord naming path:line."""
    try:  # universal newlines; a byte that is not UTF-8 becomes a lone surrogate
        fh = open(path, encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    with fh:
        # room for the longest line and its newline; a longer line is cut short
        reads = iter(lambda: fh.readline(MAX_LINE_BYTES + 1), "")
        for i, text in enumerate(reads, start=1):
            raw = text.removesuffix("\n").encode("utf-8", "surrogateescape")  # the line's own bytes
            if len(raw) > MAX_LINE_BYTES:
                raise MalformedRecord(f"{path}:{i}: line longer than {MAX_LINE_BYTES} bytes")
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise MalformedRecord(f"{path}:{i}: line is not UTF-8") from exc
            if line and not line.startswith("#"):
                yield i, line


def read_json(path, build=lambda doc: doc):
    """build(the JSON document in a UTF-8 file). An unreadable file raises
    FileUnreadable. Bytes that are not UTF-8 or not JSON, and a document
    that build rejects with a LookupError, TypeError, ValueError,
    AttributeError or OverflowError (int of a number such as 1e999), raise
    MalformedRecord naming the path."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    try:  # a UnicodeDecodeError or JSONDecodeError is a ValueError
        return build(json.loads(raw.decode("utf-8")))
    except (LookupError, TypeError, ValueError, AttributeError, OverflowError, RecursionError) as exc:
        raise MalformedRecord(f"{path}: {type(exc).__name__}: {exc}") from exc


def load_topology(path) -> ServiceDependencyGraph:
    return read_json(path, ServiceDependencyGraph.from_dict)


def save_topology(graph: ServiceDependencyGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph.to_dict(), fh, indent=2)
        fh.write("\n")


@dataclass
class MetricDependencyGraph:
    """Partially directed graph over metric names (a CPDAG after completion).

    directed and undirected edge sets are disjoint; undirected edges are
    stored with i < j. conflicts flags undirected edges whose orientation
    was demanded both ways; dropped records degenerate metrics removed
    before structure learning.
    """

    metrics: list[str]
    directed: set[tuple[int, int]] = field(default_factory=set)
    undirected: set[tuple[int, int]] = field(default_factory=set)
    conflicts: set[tuple[int, int]] = field(default_factory=set)
    dropped: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.undirected = {(min(i, j), max(i, j)) for i, j in self.undirected}
        overlap = {(min(i, j), max(i, j)) for i, j in self.directed} & self.undirected
        if overlap:
            raise ValueError(f"edges both directed and undirected: {sorted(overlap)}")
        if any(i == j for i, j in self.directed) or any(i == j for i, j in self.undirected):
            raise ValueError("self loops are not allowed")

    def directed_is_acyclic(self) -> bool:
        return topological_order(len(self.metrics), self.directed) is not None

    def to_dict(self) -> dict:
        return {
            "metrics": list(self.metrics),
            "directed": sorted([list(e) for e in self.directed]),
            "undirected": sorted([list(e) for e in self.undirected]),
        }


def topological_order(n: int, edges: Iterable[tuple[int, int]]) -> list[int] | None:
    """Kahn's algorithm; None when the directed edge set has a cycle."""
    indeg = [0] * n
    succ: dict[int, list[int]] = {}
    for i, j in edges:
        succ.setdefault(i, []).append(j)
        indeg[j] += 1
    ready = sorted(i for i in range(n) if indeg[i] == 0)
    order: list[int] = []
    while ready:
        cur = ready.pop(0)
        order.append(cur)
        for nxt in sorted(succ.get(cur, ())):
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
        ready.sort()
    return order if len(order) == n else None


# --- operations ---

def align(series_set: Iterable[MetricSeries], interval_ms: int) -> MetricMatrix:
    """Bucket a set of series onto a common clock.

    Each sample lands in bucket floor((ts - start) / interval); co-bucketed
    samples are averaged; empty buckets stay NaN. start_ms is the earliest
    timestamp rounded down to an interval boundary.
    """
    series = list(series_set)
    if not series or all(len(s) == 0 for s in series):
        raise EmptyInput("align requires at least one non-empty series")
    if interval_ms <= 0:
        raise ValueError("interval_ms must be positive")

    t_min = min(int(s.ts[0]) for s in series if len(s))
    t_max = max(int(s.ts[-1]) for s in series if len(s))
    start_ms = (t_min // interval_ms) * interval_ms
    n_rows = int((t_max - start_ms) // interval_ms) + 1

    values = np.full((n_rows, len(series)), np.nan)
    for col, s in enumerate(series):
        if not len(s):
            continue
        buckets = (s.ts - start_ms) // interval_ms
        sums = np.bincount(buckets, weights=s.values, minlength=n_rows)
        counts = np.bincount(buckets, minlength=n_rows)
        filled = counts > 0
        values[filled, col] = sums[filled] / counts[filled]

    return MetricMatrix(
        interval_ms=interval_ms,
        start_ms=int(start_ms),
        columns=[s.key for s in series],
        values=values,
    )


@dataclass(frozen=True)
class TopologyViolation:
    kind: str  # duplicate_node | dangling_edge | self_loop
    detail: str


def validate_topology(graph: ServiceDependencyGraph) -> list[TopologyViolation]:
    """Report-style check; an empty list means the topology is usable."""
    violations: list[TopologyViolation] = []
    seen: set[ServiceNode] = set()
    for node in graph.nodes:
        if node in seen:
            violations.append(TopologyViolation("duplicate_node", f"{node.ip}:{node.service}"))
        seen.add(node)
    n = len(graph.nodes)
    for i, j in graph.edges:
        if not (0 <= i < n) or not (0 <= j < n):
            violations.append(TopologyViolation("dangling_edge", f"({i},{j})"))
        elif i == j:
            violations.append(TopologyViolation("self_loop", f"({i},{j})"))
    return violations
