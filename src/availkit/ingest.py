"""Metric ingestion: the line format, file loading and the TCP listener.

One record per line: a JSON object with the fixed key order
ts_ms, ip, service, metric, value. Files and the socket stream share the
format; '#'-prefixed lines are comments. The store keeps a bounded,
timestamp-ordered ring per key and tolerates bounded reordering.
"""

from __future__ import annotations

import bisect
import json
import logging
import math
import socket
import socketserver
import threading
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import BindFailure, FileUnreadable, MalformedRecord, MissingField, NonFiniteValue
from .model import MetricKey, MetricSample, MetricSeries, ServiceNode

log = logging.getLogger(__name__)

FIELD_ORDER = ("ts_ms", "ip", "service", "metric", "value")


@dataclass(frozen=True)
class IngestConfig:
    listen_endpoint: str = "127.0.0.1:9009"
    out_of_order_buffer_ms: int = 5000
    store_capacity_per_key: int = 20000

    def __post_init__(self) -> None:
        if self.out_of_order_buffer_ms < 0:
            raise ValueError("out_of_order_buffer_ms must be >= 0")
        if self.store_capacity_per_key < 2:
            raise ValueError("store_capacity_per_key must be >= 2")

    def host_port(self) -> tuple[str, int]:
        host, _, port = self.listen_endpoint.rpartition(":")
        return host or "127.0.0.1", int(port)


def parse_metric_line(line: str) -> MetricSample:
    """Decode one record; errors carry the offending line verbatim."""
    stripped = line.strip()
    try:
        doc = json.loads(stripped)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(f"bad record structure: {stripped!r}") from exc
    if not isinstance(doc, dict):
        raise MalformedRecord(f"record is not an object: {stripped!r}")
    for name in FIELD_ORDER:
        if name not in doc:
            raise MissingField(f"missing {name}: {stripped!r}")
    try:
        ts_ms = int(doc["ts_ms"])
        value = float(doc["value"])
        ip = str(doc["ip"])
        service = str(doc["service"])
        metric = str(doc["metric"])
    except (TypeError, ValueError) as exc:
        raise MalformedRecord(f"unreadable field: {stripped!r}") from exc
    if not math.isfinite(value):
        raise NonFiniteValue(f"non-finite value: {stripped!r}")
    try:
        return MetricSample(ts_ms=ts_ms, ip=ip, service=service, metric=metric, value=value)
    except ValueError as exc:
        raise MalformedRecord(f"{exc}: {stripped!r}") from exc


def serialize_metric_line(sample: MetricSample) -> str:
    """One newline-terminated record with the canonical key order."""
    doc = {
        "ts_ms": sample.ts_ms,
        "ip": sample.ip,
        "service": sample.service,
        "metric": sample.metric,
        "value": sample.value,
    }
    return json.dumps(doc, separators=(", ", ": ")) + "\n"


@dataclass
class IngestStats:
    accepted: int = 0
    rejected: int = 0
    deduped: int = 0
    late_dropped: int = 0
    errors: list[str] = field(default_factory=list)

    def record_error(self, message: str, keep: int = 20) -> None:
        self.rejected += 1
        if len(self.errors) < keep:
            self.errors.append(message)


def load_metrics_file(*paths) -> tuple[dict[MetricKey, MetricSeries], IngestStats]:
    """Group metrics files by key, sorted by ts, last write per ts wins
    (later lines and later files win).

    Per-line problems are counted and skipped; only an unreadable file is
    fatal.
    """
    stats = IngestStats()
    per_key: dict[MetricKey, dict[int, float]] = {}
    for path in paths:
        try:
            fh = open(path, "r", encoding="utf-8")
        except OSError as exc:
            raise FileUnreadable(f"cannot read {path}: {exc}") from exc
        with fh:
            for line in fh:
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                try:
                    sample = parse_metric_line(stripped)
                except (MalformedRecord, MissingField, NonFiniteValue) as exc:
                    stats.record_error(str(exc))
                    continue
                bucket = per_key.setdefault(sample.key, {})
                if sample.ts_ms in bucket:
                    stats.deduped += 1
                bucket[sample.ts_ms] = sample.value
                stats.accepted += 1
    series = {}
    for key, points in per_key.items():
        ts = np.fromiter(points.keys(), dtype=np.int64, count=len(points))
        values = np.fromiter(points.values(), dtype=np.float64, count=len(points))
        order = np.argsort(ts)
        series[key] = MetricSeries(key, ts[order], values[order])
    return series, stats


class MetricStore:
    """Bounded, ts-ordered sample store shared by writers and readers.

    Writers append per connection; readers take consistent per-key
    snapshots. Samples older than (newest - out_of_order_buffer_ms) for
    their key are dropped; the newest store_capacity_per_key points per
    key are retained.
    """

    def __init__(self, capacity_per_key: int = 20000, out_of_order_buffer_ms: int = 5000) -> None:
        if capacity_per_key < 2:
            raise ValueError("capacity_per_key must be >= 2")
        self._capacity = capacity_per_key
        self._buffer_ms = out_of_order_buffer_ms
        self._lock = threading.Lock()
        self._data: dict[MetricKey, tuple[array, array]] = {}
        self.stats = IngestStats()

    @classmethod
    def from_config(cls, config: IngestConfig) -> "MetricStore":
        return cls(
            capacity_per_key=config.store_capacity_per_key,
            out_of_order_buffer_ms=config.out_of_order_buffer_ms,
        )

    def append(self, sample: MetricSample) -> bool:
        """Insert one sample; False when it was late-dropped."""
        with self._lock:
            ts_list, val_list = self._data.setdefault(sample.key, (array("q"), array("d")))
            if ts_list:
                newest = ts_list[-1]
                if sample.ts_ms < newest - self._buffer_ms:
                    self.stats.late_dropped += 1
                    return False
                if sample.ts_ms >= newest:
                    if sample.ts_ms == newest:
                        val_list[-1] = sample.value  # dedup: last write wins
                        self.stats.deduped += 1
                        return True
                    ts_list.append(sample.ts_ms)
                    val_list.append(sample.value)
                else:
                    pos = bisect.bisect_left(ts_list, sample.ts_ms)
                    if pos < len(ts_list) and ts_list[pos] == sample.ts_ms:
                        val_list[pos] = sample.value
                        self.stats.deduped += 1
                        return True
                    ts_list.insert(pos, sample.ts_ms)
                    val_list.insert(pos, sample.value)
            else:
                ts_list.append(sample.ts_ms)
                val_list.append(sample.value)
            if len(ts_list) > self._capacity:
                drop = len(ts_list) - self._capacity
                del ts_list[:drop]
                del val_list[:drop]
            self.stats.accepted += 1
            return True

    def keys(self) -> list[MetricKey]:
        with self._lock:
            return sorted(self._data)

    def services(self) -> list[ServiceNode]:
        with self._lock:
            return sorted({ServiceNode(k.ip, k.service) for k in self._data})

    def _snapshot(self, wanted) -> dict[MetricKey, MetricSeries]:
        # np.array copies: a view would alias the columns, and the next
        # append that resizes them would raise BufferError.
        with self._lock:
            return {
                key: MetricSeries(key, np.array(ts), np.array(vals))
                for key, (ts, vals) in self._data.items()
                if wanted(key)
            }

    def series(self, key: MetricKey) -> MetricSeries:
        """Consistent snapshot of one key's series (may be empty)."""
        return self._snapshot(lambda k: k == key).get(key, MetricSeries(key, [], []))

    def series_for_service(self, node: ServiceNode) -> dict[MetricKey, MetricSeries]:
        return self._snapshot(lambda k: k.ip == node.ip and k.service == node.service)

    def all_series(self) -> dict[MetricKey, MetricSeries]:
        return self._snapshot(lambda k: True)

    def load_file(self, path) -> IngestStats:
        """Bulk-load a metrics file through the same dedup/ordering rules."""
        series, stats = load_metrics_file(path)
        for key, s in series.items():
            for ts, value in zip(s.ts.tolist(), s.values.tolist()):
                self.append(MetricSample(ts_ms=ts, ip=key.ip, service=key.service,
                                         metric=key.metric, value=value))
        return stats


class _LineHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        store: MetricStore = self.server.store  # type: ignore[attr-defined]
        for raw in self.rfile:
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                store.stats.record_error("undecodable bytes")
                continue
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                sample = parse_metric_line(stripped)
            except (MalformedRecord, MissingField, NonFiniteValue) as exc:
                store.stats.record_error(str(exc))
                continue
            store.append(sample)


class IngestListener:
    """Threaded TCP listener feeding a MetricStore."""

    def __init__(self, config: IngestConfig, store: MetricStore) -> None:
        host, port = config.host_port()
        try:
            self._server = socketserver.ThreadingTCPServer(
                (host, port), _LineHandler, bind_and_activate=False
            )
            self._server.allow_reuse_address = True
            self._server.server_bind()
            self._server.server_activate()
        except OSError as exc:
            raise BindFailure(f"cannot bind {config.listen_endpoint}: {exc}") from exc
        self._server.store = store  # type: ignore[attr-defined]
        self._server.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def endpoint(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="ingest-listener", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)


def send_metrics(endpoint: str, lines: list[str]) -> None:
    """Small client helper: stream canonical lines to a listener."""
    host, _, port = endpoint.rpartition(":")
    with socket.create_connection((host or "127.0.0.1", int(port))) as conn:
        payload = "".join(lines).encode("utf-8")
        conn.sendall(payload)
