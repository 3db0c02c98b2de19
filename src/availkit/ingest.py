"""Metric ingestion: the line format, file loading and the TCP listener.

One record per line: a JSON object with the fixed key order
ts_ms, ip, service, metric, value. Files and the socket stream share the
format; '#'-prefixed lines are comments, and LF, CRLF or a lone CR ends
a line. Both are framed by one line reader, which hands the text of each
read to `decode_records`, and append its records per key. A line spelled
exactly as `serialize_metric_line` and the simulator write it, or in
compact separators, is decoded by one regular expression per batch;
every other line goes through `parse_metric_line`, which defines the
format, on its own and in its place. The store keeps each key's newest
points in timestamp order, up to a capacity, and tolerates bounded
reordering.
"""

from __future__ import annotations

import bisect
import json
import logging
import math
import re
import socket
import socketserver
import threading
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import BindFailure, FileUnreadable, MalformedRecord, MissingField, NonFiniteValue
from .model import (
    MAX_LINE_BYTES,
    MetricKey,
    MetricSample,
    MetricSeries,
    ServiceNode,
    is_dotted_quad,
    quote_line,
)

log = logging.getLogger(__name__)

FIELD_ORDER = ("ts_ms", "ip", "service", "metric", "value")

_READ_BYTES = 64 * 1024  # at most MAX_LINE_BYTES, so only a read's first line can be too long
SHUTDOWN_POLL_S = 0.05  # how often a served thread checks for stop(); stop() waits up to this long
KEPT_ERRORS = 20  # error messages an IngestStats keeps; later rejections are only counted


def _record_pattern(colon: str, comma: str) -> re.Pattern:
    """One non-empty line of a batch's text: a record in the canonical key order
    with these separators, grouping ts, the key text from ip to metric,
    and value, up to the line's end; or any other line, with all three
    groups empty.

    Each name holds no '"', '\\' or control character, so its JSON value is
    its raw text. ts has at most 18 digits, so it fits int64 and int()
    never meets its digit limit. A value of -0 is left to json, which
    reads it as the integer 0.
    """
    name = r'[^"\\\x00-\x1f]*'
    record = comma.join([
        r'\{"ts_ms"' + colon + r'(0|[1-9][0-9]{0,17})',
        '"ip"' + colon + '"(' + name + '"',
        '"service"' + colon + '"' + name + '"',
        '"metric"' + colon + '"' + name + ')"',
        '"value"' + colon + r'(?!-0\})(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)\}',
    ])
    return re.compile(r"^(?:" + record + r"|.+)$", re.M)


_CANONICAL = _record_pattern(": ", ", ")  # serialize_metric_line's and the simulator's spelling
_COMPACT = _record_pattern(":", ",")  # json.dumps(separators=(",", ":")), JSON.stringify

# key -> (ts, values) in arrival order; a key present here has been validated
Columns = dict[MetricKey, tuple[array, array]]


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
        parse_endpoint(self.listen_endpoint)


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    """Split host:port; the port is ASCII digits in 0-65535 and an empty
    host means 127.0.0.1."""
    host, _, port = str(endpoint).rpartition(":")
    if not (port.isascii() and port.isdigit() and int(port) <= 65535):
        raise ValueError(f"expected host:port with an integer port in 0-65535, got {endpoint!r}")
    return host or "127.0.0.1", int(port)


def parse_metric_line(line: str) -> MetricSample:
    """Decode one record; errors quote the offending line with quote_line."""
    stripped = line.strip()
    try:
        doc = json.loads(stripped)
    except (ValueError, RecursionError) as exc:  # also a >4300-digit number or deep nesting
        raise MalformedRecord(f"bad record structure: {quote_line(stripped)}") from exc
    if not isinstance(doc, dict):
        raise MalformedRecord(f"record is not an object: {quote_line(stripped)}")
    for name in FIELD_ORDER:
        if name not in doc:
            raise MissingField(f"missing {name}: {quote_line(stripped)}")
    try:
        ts_ms = int(doc["ts_ms"])
        value = float(doc["value"])
        ip = str(doc["ip"])
        service = str(doc["service"])
        metric = str(doc["metric"])
    except (TypeError, ValueError, OverflowError) as exc:  # int(Infinity), float(10**400)
        raise MalformedRecord(f"unreadable field: {quote_line(stripped)}") from exc
    if not math.isfinite(value):
        raise NonFiniteValue(f"non-finite value: {quote_line(stripped)}")
    try:
        return MetricSample(ts_ms=ts_ms, ip=ip, service=service, metric=metric, value=value)
    except ValueError as exc:
        raise MalformedRecord(f"{exc}: {quote_line(stripped)}") from exc


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

    def record_error(self, message: str) -> None:
        self.rejected += 1
        if len(self.errors) < KEPT_ERRORS:
            self.errors.append(message)

    def take_rejections(self, other: "IngestStats") -> None:
        """Move other's rejections and error messages into these counters."""
        self.rejected += other.rejected
        self.errors.extend(other.errors[: max(0, KEPT_ERRORS - len(self.errors))])
        other.rejected = 0
        other.errors.clear()


def _parse_line(line: str, stats: IngestStats) -> MetricSample | None:
    """The record of one line, or None: a line that is blank or a '#'
    comment once stripped is skipped, and any other line that does not
    decode counts its rejection in `stats`."""
    stripped = line.strip()
    if not stripped or stripped[0] == "#":
        return None
    if not stripped.isascii() and _undecodable(stripped):
        stats.record_error("undecodable bytes")
        return None
    try:
        return parse_metric_line(stripped)
    except (MalformedRecord, MissingField, NonFiniteValue) as exc:
        stats.record_error(str(exc))
        return None


def _undecodable(text: str) -> bool:
    """True when `text`, decoded with errors="surrogateescape", held bytes
    that are not UTF-8 (they became lone surrogates)."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def decode_records(text: str, stats: IngestStats, columns: Columns) -> None:
    """Append the records of `text`'s lines to their keys' columns in line
    order and count each rejected line in `stats`, exactly as calling
    parse_metric_line on every stripped line that is neither blank nor a
    '#' comment would.

    `text` is one read's complete lines, separated by "\n" and decoded
    with errors="surrogateescape" (see `_read_lines`); a line that held
    bytes that are not UTF-8 counts one "undecodable bytes" rejection in
    its place. One findall matches the whole text against the canonical
    spelling (_CANONICAL), or against the compact one when no line is
    canonical, and yields one row per non-empty line. The numbers of the matched rows are converted
    in bulk and each distinct key text is checked once; undecodable bytes
    of a matched line can only sit in its key text. Every other row,
    comments and blanks included, goes through parse_metric_line in line
    order, and its record, if any, takes the row's place. Each key's
    columns are then extended once, and a new key gets its columns in the
    order of its first record.
    """
    rows = _CANONICAL.findall(text)
    if not any(row[0] for row in rows):  # no line is canonical
        rows = _COMPACT.findall(text)
    if not rows:
        return
    n = len(rows)
    ts_text, key_text, value_text = zip(*rows)
    if "" in ts_text:  # a line that did not match: a NaN value sends it to parse_metric_line
        ts_text = [t or "0" for t in ts_text]
        value_text = [v or "nan" for v in value_text]
    ts = np.frombuffer(array("q", map(int, ts_text)), dtype=np.int64)
    values = np.frombuffer(array("d", map(float, value_text)), dtype=np.float64)
    codes = dict.fromkeys(key_text)  # key text -> code, in first-seen order
    keys = []  # code -> MetricKey, or None where parse_metric_line rejects the key
    for code, raw in enumerate(codes):
        codes[raw] = code
        ip, service, metric = raw.split('"')[::4] if raw else ("", "", "")
        key = MetricKey(ip, service, metric)
        ok = (raw.isascii() or not _undecodable(raw)) and (
            key in columns or (service and metric and is_dotted_quad(ip)))
        keys.append(key if ok else None)
    row_codes = np.fromiter(map(codes.__getitem__, key_text), dtype=np.intp, count=n)
    valid = np.isfinite(values)
    if None in keys:
        valid &= np.array([key is not None for key in keys])[row_codes]
    if not valid.all():
        lines = [line for line in text.split("\n") if line]  # line r is row r
        known = {key: code for code, key in enumerate(keys) if key is not None}
        for r in np.flatnonzero(~valid).tolist():
            sample = _parse_line(lines[r], stats)
            if sample is not None:
                code = known.setdefault(sample.key, len(keys))
                if code == len(keys):
                    keys.append(sample.key)
                ts[r], values[r], row_codes[r], valid[r] = sample.ts_ms, sample.value, code, True
        ts, values, row_codes = ts[valid], values[valid], row_codes[valid]
        seen = list(dict.fromkeys(row_codes.tolist()))  # the kept rows' codes in first-seen order
        renumber = np.empty(len(keys), dtype=np.intp)
        renumber[seen] = np.arange(len(seen))
        keys, row_codes = [keys[c] for c in seen], renumber[row_codes]
    _extend(columns, keys, row_codes, ts, values)


def _extend(columns: Columns, keys: list[MetricKey], codes, ts, values) -> None:
    """Append row r, (ts[r], values[r]), to the columns of keys[codes[r]]
    in row order; `keys` are in the order of their first rows, and a key
    not in `columns` yet gets its columns in that order."""
    for key in keys:
        columns.setdefault(key, (array("q"), array("d")))
    # group the rows per key, keeping their order, and extend each key once
    order = np.argsort(codes, kind="stable")
    ts, values = ts[order], values[order]
    lo = 0
    for key, hi in zip(keys, np.cumsum(np.bincount(codes)).tolist()):
        ts_col, value_col = columns[key]
        ts_col.frombytes(ts[lo:hi].tobytes())
        value_col.frombytes(values[lo:hi].tobytes())
        lo = hi


def _read_lines(read, rejected: IngestStats):
    r"""Yield, per read(_READ_BYTES), its complete lines as one
    "\n"-separated text (maybe empty) decoded with errors="surrogateescape";
    the unterminated rest of the input comes last. Each "\r" becomes "\n"
    as it arrives, so "\r\n" and a lone "\r" end a line too. A line over
    MAX_LINE_BYTES counts one rejection in `rejected` and is skipped up to
    its newline."""
    too_long = f"line longer than {MAX_LINE_BYTES} bytes"
    pending = bytearray()
    skipping = False
    while data := read(_READ_BYTES):
        data = data.replace(b"\r", b"\n")
        if skipping:
            first = data.find(b"\n")
            data = data[first + 1 :] if first >= 0 else b""
            skipping = first < 0
        chunk = b""
        last = data.rfind(b"\n")
        if last < 0:
            pending += data
        else:
            chunk = bytes(pending + data[:last])
            pending = bytearray(data[last + 1 :])
            first = chunk.find(b"\n")
            if (first if first >= 0 else len(chunk)) > MAX_LINE_BYTES:
                rejected.record_error(too_long)
                chunk = chunk[first + 1 :] if first >= 0 else b""
        if len(pending) > MAX_LINE_BYTES:
            rejected.record_error(too_long)
            pending.clear()
            skipping = True
        yield chunk.decode("utf-8", "surrogateescape")
    if pending:
        yield pending.decode("utf-8", "surrogateescape")


def load_metrics_file(*paths) -> tuple[dict[MetricKey, MetricSeries], IngestStats]:
    """Group metrics files by key, sorted by ts, last write per ts wins
    (later lines and later files win).

    Each file is read in binary and framed by `_read_lines`, so a line
    longer than MAX_LINE_BYTES is one rejection, as on the socket. Per-line
    problems are counted and skipped; only an unreadable file is fatal.
    """
    stats = IngestStats()
    columns: Columns = {}
    for path in paths:
        try:
            fh = open(path, "rb")
        except OSError as exc:
            raise FileUnreadable(f"cannot read {path}: {exc}") from exc
        with fh:
            for text in _read_lines(fh.read, stats):
                decode_records(text, stats, columns)
    series = {}
    for key, (ts_col, val_col) in columns.items():
        stats.accepted += len(ts_col)
        ts = np.frombuffer(ts_col, dtype=np.int64)
        order = np.argsort(ts, kind="stable")
        ts = ts[order]
        values = np.frombuffer(val_col, dtype=np.float64)[order]
        last = np.append(ts[1:] != ts[:-1], True)  # the last of equal timestamps
        stats.deduped += int(last.size - np.count_nonzero(last))
        series[key] = MetricSeries(key, ts[last], values[last])
    return series, stats


class MetricStore:
    """Bounded, ts-ordered sample store shared by writers and readers.

    Writers append per connection; readers take consistent per-key
    snapshots. Samples older than (newest - out_of_order_buffer_ms) for
    their key are dropped; the newest store_capacity_per_key points per
    key are retained (both from the IngestConfig).
    """

    def __init__(self, config: IngestConfig = IngestConfig()) -> None:
        self._capacity = config.store_capacity_per_key
        self._buffer_ms = config.out_of_order_buffer_ms
        self._lock = threading.Lock()
        self._data: dict[MetricKey, tuple[array, array]] = {}
        self.stats = IngestStats()

    def append(self, sample: MetricSample) -> bool:
        """Insert one sample; False when it was late-dropped."""
        return self.append_many({sample.key: ((sample.ts_ms,), (sample.value,))}) == 1

    def append_many(self, columns, rejected: IngestStats | None = None) -> int:
        """Insert each key's (ts, values) sequences in order under one lock,
        and move the batch's rejections from `rejected` into the store's
        counters under the same lock.

        The result equals appending the samples one at a time: per sample,
        late-drop against the key's newest point, dedup last-write-wins,
        insert out-of-order samples in place, and keep the newest
        capacity points. Only the newest capacity points are searched, so a
        sample older than all of them is inserted just below them and
        evicted at once, as a single append would do; each key is trimmed
        to capacity once, after its samples. Returns the number of samples
        not late-dropped; keys with no samples are skipped.
        """
        buffer_ms, capacity = self._buffer_ms, self._capacity
        accepted = deduped = late = 0
        with self._lock:
            for key, (new_ts, new_values) in columns.items():
                if not len(new_ts):
                    continue
                ts, values = self._data.setdefault(key, (array("q"), array("d")))
                for t, v in zip(new_ts, new_values):
                    if not ts or t > ts[-1]:
                        ts.append(t)
                        values.append(v)
                    elif t < ts[-1] - buffer_ms:
                        late += 1
                        continue
                    else:
                        pos = bisect.bisect_left(ts, t, max(0, len(ts) - capacity))
                        if ts[pos] == t:
                            values[pos] = v  # dedup: last write wins
                            deduped += 1
                            continue
                        ts.insert(pos, t)
                        values.insert(pos, v)
                    accepted += 1
                if len(ts) > capacity:
                    del ts[:-capacity]
                    del values[:-capacity]
            self.stats.accepted += accepted
            self.stats.deduped += deduped
            self.stats.late_dropped += late
            if rejected is not None:
                self.stats.take_rejections(rejected)
        return accepted + deduped

    def keys(self) -> list[MetricKey]:
        with self._lock:
            return sorted(self._data)

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
        # typed arrays iterate as Python numbers without a list per key
        self.append_many({key: (array("q", s.ts.tobytes()), array("d", s.values.tobytes()))
                          for key, s in series.items()})
        return stats


class _LineHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        store: MetricStore = self.server.store  # type: ignore[attr-defined]
        rejected = IngestStats()  # this read's rejections; the store counts them with its records
        for text in _read_lines(self.rfile.read1, rejected):
            columns: Columns = {}
            decode_records(text, rejected, columns)
            store.append_many(columns, rejected)


class ServerThread:
    """A socketserver server, bound on construction and served on one daemon
    thread; a bind failure raises BindFailure and leaves no socket open."""

    def __init__(self, server_cls, address: tuple[str, int], handler, name: str) -> None:
        self._server = server_cls(address, handler, bind_and_activate=False)
        self._server.allow_reuse_address = True
        self._server.daemon_threads = True
        try:
            self._server.server_bind()
            self._server.server_activate()
        except OSError as exc:
            self._server.server_close()
            raise BindFailure(f"cannot bind {address[0]}:{address[1]}: {exc}") from exc
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(SHUTDOWN_POLL_S,), name=name, daemon=True
        )

    @property
    def endpoint(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        if self._thread.is_alive():  # shutdown() waits for a serve_forever that never started
            self._server.shutdown()
            self._thread.join(timeout=5)
        self._server.server_close()


class IngestListener(ServerThread):
    """Threaded TCP listener feeding a MetricStore."""

    def __init__(self, config: IngestConfig, store: MetricStore) -> None:
        super().__init__(socketserver.ThreadingTCPServer, parse_endpoint(config.listen_endpoint),
                         _LineHandler, "ingest-listener")
        self._server.store = store  # type: ignore[attr-defined]


def send_metrics(endpoint: str, lines: list[str]) -> None:
    """Small client helper: stream canonical lines to a listener."""
    with socket.create_connection(parse_endpoint(endpoint)) as conn:
        payload = "".join(lines).encode("utf-8")
        conn.sendall(payload)
