import bisect
import gc
import json
import random
import socket
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from availkit import ingest
from availkit.errors import (
    BindFailure,
    FileUnreadable,
    MalformedRecord,
    MissingField,
    NonFiniteValue,
)
from availkit.ingest import (
    MAX_LINE_BYTES,
    IngestConfig,
    IngestListener,
    IngestStats,
    MetricStore,
    load_metrics_file,
    parse_metric_line,
    send_metrics,
    serialize_metric_line,
)
from availkit.model import MetricKey, MetricSample


def sample(ts=1714000000123, ip="10.0.0.3", service="mysql", metric="cpu_util", value=0.83):
    return MetricSample(ts_ms=ts, ip=ip, service=service, metric=metric, value=value)


def new_store(capacity: int, buffer_ms: int) -> MetricStore:
    return MetricStore(IngestConfig(out_of_order_buffer_ms=buffer_ms, store_capacity_per_key=capacity))


class TestLineFormat:
    def test_parse_valid_line(self):
        line = '{"ts_ms":1714000000123,"ip":"10.0.0.3","service":"mysql","metric":"cpu_util","value":0.83}'
        got = parse_metric_line(line)
        assert got == sample()

    def test_nan_value_rejected(self):
        line = '{"ts_ms":1,"ip":"10.0.0.1","service":"s","metric":"m","value":"NaN"}'
        with pytest.raises(NonFiniteValue):
            parse_metric_line(line)

    def test_missing_field_names_the_field(self):
        line = '{"ip":"10.0.0.1","service":"s","metric":"m","value":1.0}'
        with pytest.raises(MissingField, match="ts_ms"):
            parse_metric_line(line)

    def test_malformed_structure_quotes_line(self):
        with pytest.raises(MalformedRecord, match="not json at all"):
            parse_metric_line("not json at all")

    @pytest.mark.parametrize(
        "line",
        [
            "x" * 60_000,
            '{"ts_ms":1,"ip":"' + "9" * 60_000 + '","service":"s","metric":"m","value":1}',
            '{"ts_ms":' + "9" * 4_000 + ',"ip":"10.0.0.1","service":"s","metric":"m","value":1}',
        ],
        ids=["garbage", "long_ip", "long_ts"],
    )
    def test_long_line_gives_a_short_error(self, line):
        # IngestStats keeps KEPT_ERRORS of these messages
        with pytest.raises(MalformedRecord) as caught:
            parse_metric_line(line)
        assert len(str(caught.value)) < 1024 and f"({len(line)} characters)" in str(caught.value)

    def test_round_trip_parse_serialize(self):
        for s in (
            sample(),
            sample(value=0.5),
            sample(value=-123.456789012345),
            sample(ts=0, value=1e-300),
            sample(metric="weird metric name"),
        ):
            assert parse_metric_line(serialize_metric_line(s)) == s

    def test_serialize_parse_on_canonical_line(self):
        line = serialize_metric_line(sample(value=0.5))
        assert '"value": 0.5' in line
        assert serialize_metric_line(parse_metric_line(line)) == line

    def test_key_order_fixed(self):
        line = serialize_metric_line(sample())
        positions = [line.index(k) for k in ('"ts_ms"', '"ip"', '"service"', '"metric"', '"value"')]
        assert positions == sorted(positions)

    def test_distinct_samples_distinct_lines(self):
        assert serialize_metric_line(sample(value=1.0)) != serialize_metric_line(sample(value=2.0))


class TestLoadFile(object):
    def test_groups_and_sorts(self, tmp_path):
        path = tmp_path / "m.ndjson"
        lines = [
            serialize_metric_line(sample(ts=3000, value=3.0)),
            serialize_metric_line(sample(ts=1000, value=1.0)),
            serialize_metric_line(sample(ts=2000, value=2.0)),
        ]
        path.write_text("".join(lines))
        series, stats = load_metrics_file(path)
        key = MetricKey("10.0.0.3", "mysql", "cpu_util")
        assert stats.accepted == 3 and stats.rejected == 0
        assert series[key].ts.tolist() == [1000, 2000, 3000]
        assert series[key].values.tolist() == [1.0, 2.0, 3.0]

    def test_malformed_line_counted_not_fatal(self, tmp_path):
        path = tmp_path / "m.ndjson"
        path.write_text(
            serialize_metric_line(sample(ts=1)) + "garbage\n" + serialize_metric_line(sample(ts=2))
        )
        series, stats = load_metrics_file(path)
        assert stats.accepted == 2 and stats.rejected == 1
        assert len(next(iter(series.values()))) == 2

    def test_duplicate_ts_last_wins(self, tmp_path):
        path = tmp_path / "m.ndjson"
        path.write_text(
            serialize_metric_line(sample(ts=5, value=1.0)) + serialize_metric_line(sample(ts=5, value=2.0))
        )
        series, _ = load_metrics_file(path)
        s = next(iter(series.values()))
        assert s.ts.tolist() == [5] and s.values.tolist() == [2.0]

    def test_later_file_wins(self, tmp_path):
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        a.write_text(serialize_metric_line(sample(ts=5, value=1.0)) + serialize_metric_line(sample(ts=6, value=1.0)))
        b.write_text(serialize_metric_line(sample(ts=5, value=2.0)) + serialize_metric_line(sample(ts=4, value=2.0)))
        series, stats = load_metrics_file(a, b)
        s = next(iter(series.values()))
        assert s.ts.tolist() == [4, 5, 6] and s.values.tolist() == [2.0, 2.0, 1.0]
        assert stats.accepted == 4 and stats.deduped == 1

    def test_ts_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "m.ndjson"
        too_big = serialize_metric_line(sample(ts=1)).replace('"ts_ms": 1,', f'"ts_ms": {2**63},')
        path.write_text(serialize_metric_line(sample(ts=1)) + too_big + serialize_metric_line(sample(ts=2)))
        series, stats = load_metrics_file(path)
        assert stats.accepted == 2 and stats.rejected == 1
        assert next(iter(series.values())).ts.tolist() == [1, 2]

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "m.ndjson"
        path.write_text("# comment line\n" + serialize_metric_line(sample()))
        series, stats = load_metrics_file(path)
        assert stats.accepted == 1 and stats.rejected == 0

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(FileUnreadable):
            load_metrics_file(tmp_path / "does-not-exist.ndjson")

    def test_undecodable_line_counted_not_fatal(self, tmp_path):
        # counted as the socket counts it, instead of a UnicodeDecodeError
        path = tmp_path / "m.ndjson"
        path.write_bytes(serialize_metric_line(sample(ts=1)).encode("utf-8") + b"\xff\n")
        series, stats = load_metrics_file(path)
        assert stats.accepted == 1 and stats.rejected == 1
        assert stats.errors == ["undecodable bytes"]
        assert next(iter(series.values())).ts.tolist() == [1]

    def test_undecodable_line_among_non_ascii_ones(self, tmp_path):
        path = tmp_path / "m.ndjson"
        celsius = serialize_metric_line(sample(ts=1, metric="temp_°C")).encode("utf-8")
        bad = serialize_metric_line(sample(ts=2)).encode("utf-8").replace(b"mysql", b"my\xe9sql")
        path.write_bytes(celsius + bad + b"garbage\n" + celsius.replace(b": 1,", b": 3,"))
        series, stats = load_metrics_file(path)
        assert stats.accepted == 2 and stats.rejected == 2
        assert stats.errors == ["undecodable bytes", "bad record structure: 'garbage'"]
        assert list(series) == [MetricKey("10.0.0.3", "mysql", "temp_°C")]

    def test_carriage_returns_end_lines(self, tmp_path):
        path = tmp_path / "m.ndjson"
        lines = [serialize_metric_line(sample(ts=ts)).rstrip("\n") for ts in (1, 2, 3)]
        path.write_bytes(f"{lines[0]}\r\n{lines[1]}\r{lines[2]}\n".encode("utf-8"))
        series, stats = load_metrics_file(path)
        assert stats.accepted == 3 and stats.rejected == 0
        assert next(iter(series.values())).ts.tolist() == [1, 2, 3]


class TestAddress:
    @pytest.mark.parametrize(
        "ip", ["10.0.0.3\n", "\u0661\u0660.\u0660.\u0660.\u0663"], ids=["trailing_newline", "arabic_indic_digits"]
    )
    def test_only_ascii_dotted_quad_accepted(self, tmp_path, ip):
        # either spelling would otherwise become a second key for 10.0.0.3
        line = json.dumps({"ts_ms": 1, "ip": ip, "service": "mysql", "metric": "cpu_util", "value": 0.5})
        with pytest.raises(MalformedRecord, match="dotted quad"):
            parse_metric_line(line)
        path = tmp_path / "m.ndjson"
        path.write_text(line + "\n" + serialize_metric_line(sample(ts=2)), encoding="utf-8")
        series, stats = load_metrics_file(path)
        assert stats.accepted == 1 and stats.rejected == 1
        assert list(series) == [sample().key]


class TestStore:
    def test_monotone_timestamps(self):
        store = new_store(100, 1000)
        for ts in (10, 5000, 4500, 200):  # 200 is older than 5000 - 1000
            store.append(sample(ts=ts))
        assert store.series(sample().key).ts.tolist() == [10, 4500, 5000]
        assert store.stats.late_dropped == 1

    def test_capacity_keeps_newest(self):
        store = new_store(5, 0)
        for ts in range(20):
            store.append(sample(ts=ts * 1000))
        ts = store.series(sample().key).ts
        assert len(ts) == 5
        assert ts[0] == 15000 and ts[-1] == 19000

    def test_duplicate_ts_overwrites(self):
        store = MetricStore()
        store.append(sample(ts=100, value=1.0))
        store.append(sample(ts=100, value=2.0))
        s = store.series(sample().key)
        assert s.ts.tolist() == [100] and s.values.tolist() == [2.0]

    def test_strictly_increasing_invariant(self):
        import numpy as np

        rng = np.random.default_rng(1)
        store = new_store(500, 10_000)
        for ts in rng.integers(0, 100_000, size=400):
            store.append(sample(ts=int(ts)))
        ts_values = store.series(sample().key).ts.tolist()
        assert ts_values == sorted(set(ts_values))

    def test_snapshot_is_a_copy(self):
        store = new_store(4, 10_000)
        for ts in (1000, 2000, 3000):
            store.append(sample(ts=ts, value=float(ts)))
        snap = store.series(sample().key)
        store.append(sample(ts=3000, value=-1.0))  # dedup overwrite
        store.append(sample(ts=2500, value=-1.0))  # insert
        for ts in range(4000, 9000, 1000):  # capacity evictions
            store.append(sample(ts=ts, value=-1.0))
        assert snap.ts.tolist() == [1000, 2000, 3000]
        assert snap.values.tolist() == [1000.0, 2000.0, 3000.0]
        assert store.series(sample().key).ts.tolist() == [5000, 6000, 7000, 8000]


class TestListener:
    def _free_port(self):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            return s.getsockname()[1]

    def _wait_for(self, predicate, timeout=5.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            if predicate():
                return True
            time.sleep(0.02)
        return False

    def test_streams_into_store(self):
        port = self._free_port()
        config = IngestConfig(listen_endpoint=f"127.0.0.1:{port}")
        store = MetricStore(config)
        listener = IngestListener(config, store)
        listener.start()
        try:
            lines = [serialize_metric_line(sample(ts=t * 1000)) for t in range(100)]
            send_metrics(f"127.0.0.1:{port}", lines)
            assert self._wait_for(lambda: len(store.series(sample().key)) == 100)
        finally:
            listener.stop()

    def test_two_concurrent_clients_different_keys(self):
        port = self._free_port()
        config = IngestConfig(listen_endpoint=f"127.0.0.1:{port}")
        store = MetricStore(config)
        listener = IngestListener(config, store)
        listener.start()
        try:
            import threading

            def send(metric):
                lines = [
                    serialize_metric_line(sample(ts=t, metric=metric, value=float(t)))
                    for t in range(200)
                ]
                send_metrics(f"127.0.0.1:{port}", lines)

            threads = [threading.Thread(target=send, args=(m,)) for m in ("a", "b")]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            key_a = MetricKey("10.0.0.3", "mysql", "a")
            key_b = MetricKey("10.0.0.3", "mysql", "b")
            assert self._wait_for(
                lambda: len(store.series(key_a)) == 200 and len(store.series(key_b)) == 200
            )
            assert store.series(key_a).ts.tolist() == list(range(200))
        finally:
            listener.stop()

    def test_malformed_lines_counted_connection_survives(self):
        port = self._free_port()
        config = IngestConfig(listen_endpoint=f"127.0.0.1:{port}")
        store = MetricStore(config)
        listener = IngestListener(config, store)
        listener.start()
        try:
            lines = [serialize_metric_line(sample(ts=1)), "junk\n", serialize_metric_line(sample(ts=2))]
            send_metrics(f"127.0.0.1:{port}", lines)
            assert self._wait_for(lambda: len(store.series(sample().key)) == 2)
            assert store.stats.rejected == 1
        finally:
            listener.stop()

    def test_ts_beyond_int64_rejected_connection_survives(self):
        port = self._free_port()
        config = IngestConfig(listen_endpoint=f"127.0.0.1:{port}")
        store = MetricStore(config)
        listener = IngestListener(config, store)
        listener.start()
        try:
            too_big = serialize_metric_line(sample(ts=1)).replace('"ts_ms": 1,', f'"ts_ms": {2**63},')
            lines = [serialize_metric_line(sample(ts=1)), too_big, serialize_metric_line(sample(ts=2))]
            send_metrics(f"127.0.0.1:{port}", lines)
            assert self._wait_for(lambda: len(store.series(sample().key)) == 2)
            assert store.stats.rejected == 1
            assert store.series(sample().key).ts.tolist() == [1, 2]
        finally:
            listener.stop()

    def test_bind_failure(self):
        port = self._free_port()
        config = IngestConfig(listen_endpoint=f"127.0.0.1:{port}")
        store = MetricStore(config)
        listener = IngestListener(config, store)
        listener.start()
        try:
            # second listener on an actively bound port must fail
            with pytest.raises(BindFailure):
                IngestListener(IngestConfig(listen_endpoint=f"127.0.0.1:{port}"), store)
        finally:
            listener.stop()

    def test_bind_failure_closes_its_socket(self):
        port = self._free_port()
        config = IngestConfig(listen_endpoint=f"127.0.0.1:{port}")
        store = MetricStore(config)
        listener = IngestListener(config, store)
        listener.start()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                with pytest.raises(BindFailure):
                    IngestListener(IngestConfig(listen_endpoint=f"127.0.0.1:{port}"), store)
                gc.collect()  # a socket left open warns when it is collected
        finally:
            listener.stop()
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []

    def test_stop_is_prompt(self):
        config = IngestConfig(listen_endpoint="127.0.0.1:0")
        listener = IngestListener(config, MetricStore(config))
        listener.start()
        started = time.monotonic()
        listener.stop()
        assert time.monotonic() - started < 0.2

    @pytest.mark.parametrize("endpoint", ["127.0.0.1:abc", "127.0.0.1:70000"])
    def test_send_metrics_rejects_a_bad_port(self, endpoint):
        with pytest.raises(ValueError, match="expected host:port"):
            send_metrics(endpoint, [])


# --- batch decode: the file loader against the per-line loop it replaced ---


def per_line_reference(text, stats, columns):
    """decode_records spelled out: each line of `text` stripped, blank and
    '#' lines skipped, a line that held bytes that are not UTF-8 rejected,
    and every other line through parse_metric_line."""
    for line in text.split("\n"):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            stripped.encode("utf-8")
        except UnicodeEncodeError:
            stats.record_error("undecodable bytes")
            continue
        try:
            s = parse_metric_line(stripped)
        except (MalformedRecord, MissingField, NonFiniteValue) as exc:
            stats.record_error(str(exc))
            continue
        ts, values = columns.setdefault(s.key, ([], []))
        ts.append(s.ts_ms)
        values.append(s.value)


def reference_series(columns):
    """Per key, its points sorted by ts with the last write winning, and
    the number of records that a later one overwrote."""
    series = {key: sorted(dict(zip(ts, values)).items()) for key, (ts, values) in columns.items()}
    overwritten = sum(len(ts) for ts, _ in columns.values()) - sum(map(len, series.values()))
    return series, overwritten


def reference_load(*paths):
    """per_line_reference on each file's text; the last write per
    (key, ts) wins."""
    stats, columns = IngestStats(), {}
    for path in paths:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            per_line_reference(fh.read(), stats, columns)
    series, stats.deduped = reference_series(columns)
    stats.accepted = sum(len(ts) for ts, _ in columns.values())
    return series, stats


def record(ts, value, **fields):
    doc = {"ts_ms": ts, "ip": "10.0.0.3", "service": "mysql", "metric": "cpu_util", "value": value}
    doc.update(fields)
    return json.dumps(doc)


KEY_FIELDS = '"ip": "10.0.0.3", "service": "mysql", "metric": "cpu_util"'

ODD_LINES = [
    "# a comment",
    "",
    "   \t",
    record(True, 1.0),  # int(True) == 1: accepted
    record(7, "1.5"),  # float("1.5"): accepted
    record(1.7, 2.0),  # int(1.7) == 1: accepted
    record(8, 3),  # int value: accepted
    record(9, float("nan")),
    record(9, float("inf")),
    record(float("inf"), 1.0),  # int(Infinity) overflows
    record(2**63, 1.0),
    record(-1, 1.0),
    record(10, 10**400),  # float() overflows
    record(11, 1.0, ip="10.0.0.256"),
    record(11, 1.0, ip="db-host"),
    record(11, 1.0, ip=[10, 0, 0, 3]),  # unhashable key field
    record(12, 1.0, service=""),
    record(12, 1.0, metric=""),
    record(13, 1.0, service=5),  # str(5): accepted under service "5"
    record(14, 1.0, tags=["a", {"b": 1}]),  # nested extra field: accepted
    record(15, 1.0, metric="cpu{util}"),  # braces inside a string: accepted
    "  " + record(16, 4.0) + "\t",  # surrounding whitespace: accepted
    record(17, 1.0) + ", " + record(18, 1.0),  # two records on one line
    record(-5, 1.0, ip="10.0.0.9", service="late", metric="key"),  # valid key, bad ts
    '{"ts_ms": 1' + "0" * 5000 + ", " + KEY_FIELDS + ', "value": 1.0}',  # over the int digit limit
    '{"a": ' + "[" * 5000 + "]" * 5000 + "}",  # deeper than the recursion limit
    "[1, 2]",
    "5",
    '"text"',
    "null",
    "{}",
    '{"ts_ms": 1}',
    "garbage",
    '{"ts_ms": 19,',
    "﻿" + record(20, 1.0),  # a byte order mark
]

# Each line alone is malformed; joined by ",\n" they parse as two records.
SPLICE = [record(21, 1.0)[:-1] + ', "z": [{"a": 1}', '{"b": 2}]}, ' + record(22, 1.0)]


def base_lines(rng, n, start=0):
    """Canonical records on three metrics; about 5% repeat or precede an
    earlier timestamp."""
    lines = []
    for i in range(start, start + n):
        metric = ("cpu_util", "mem_used", "latency")[i % 3]
        ts = (i // 3) * 1000
        if rng.random() < 0.05:
            ts = rng.randrange(0, ts + 1000, 1000)
        lines.append(record(ts, rng.uniform(-1.0, 1.0), metric=metric))
    return lines


def place(lines, base, at, block):
    """Pad `lines` with base records up to raw line index `at`, then add `block`."""
    need = at - len(lines)
    lines.extend(base[:need])
    del base[:need]
    lines.extend(block)


BLOCK = 512  # lines per block of a test corpus
SMALL_READ = 700  # bytes per read when a test shrinks ingest._READ_BYTES: about seven lines


def write_corpus(tmp_path, batch=BLOCK):
    rng = random.Random(5)
    base = base_lines(rng, 3 * batch)
    first = SPLICE + ODD_LINES
    half = len(ODD_LINES) // 2
    place(first, base, batch - 1 - half, ODD_LINES[:half])
    place(first, base, batch - 1, SPLICE)  # lines batch-1 and batch straddle the block boundary
    place(first, base, len(first), ODD_LINES[half:] + SPLICE)
    place(first, base, 2 * batch - 3, ODD_LINES)
    first.extend(base)
    first.append(record(99_000, 1.0, ip="10.0.0.9", service="late", metric="key"))
    second = base_lines(random.Random(6), 200) + ODD_LINES  # repeats timestamps of the first file
    a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    a.write_text("\n".join(first) + "\n", encoding="utf-8")
    # mixed line endings: universal newlines split on \r\n and a lone \r too
    with open(b, "w", encoding="utf-8", newline="") as fh:
        for i, line in enumerate(second):
            fh.write(line + ("\r\n", "\r", "\n")[i % 3])
        fh.write(record(5, 7.0))  # no final newline
    return [a, b]


def assert_same_load(paths):
    want, want_stats = reference_load(*paths)
    got, got_stats = load_metrics_file(*paths)
    assert list(got) == list(want)
    for key, points in want.items():
        assert got[key].ts.tolist() == [t for t, _ in points]
        assert got[key].values.tobytes() == np.array([v for _, v in points], dtype=np.float64).tobytes()
    assert (got_stats.accepted, got_stats.rejected, got_stats.deduped, got_stats.late_dropped) == (
        want_stats.accepted, want_stats.rejected, want_stats.deduped, want_stats.late_dropped)
    assert got_stats.errors == want_stats.errors
    return want_stats


class TestBatchDecode:
    def test_matches_per_line_loop(self, tmp_path):
        stats = assert_same_load(write_corpus(tmp_path))
        assert stats.accepted > 2 * BLOCK and stats.deduped > 50
        assert stats.rejected > 20 and len(stats.errors) == 20

    def test_matches_per_line_loop_on_small_batches(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "_READ_BYTES", SMALL_READ)
        assert_same_load(write_corpus(tmp_path, batch=7))

    def test_each_odd_line_alone(self, tmp_path):
        for i, line in enumerate(ODD_LINES + SPLICE):
            path = tmp_path / f"odd{i}.ndjson"
            path.write_text(record(0, 0.5) + "\n" + line + "\n" + record(1, 0.5) + "\n", encoding="utf-8")
            assert_same_load([path])

    def test_splice_lines_rejected_and_neighbours_kept(self, tmp_path):
        path = tmp_path / "m.ndjson"
        path.write_text("\n".join([record(1, 1.0)] + SPLICE + [record(2, 2.0)]) + "\n")
        series, stats = load_metrics_file(path)
        assert stats.accepted == 2 and stats.rejected == 2
        assert series[MetricKey("10.0.0.3", "mysql", "cpu_util")].ts.tolist() == [1, 2]

    def test_overflowing_fields_rejected_not_raised(self):
        for line in (record(float("inf"), 1.0), record(1, 10**400),
                     '{"ts_ms": 1' + "0" * 5000 + ", " + KEY_FIELDS + ', "value": 1.0}',
                     '{"a": ' + "[" * 5000 + "]" * 5000 + "}"):
            with pytest.raises(MalformedRecord):
                parse_metric_line(line)


# --- batched store appends against the one-at-a-time rules ---


def sequential_reference(events, capacity, buffer_ms):
    """The store's per-sample rules on plain lists, one event at a time."""
    data = {}
    counts = {"accepted": 0, "deduped": 0, "late_dropped": 0}
    for key, t, v in events:
        ts, vals = data.setdefault(key, ([], []))
        if ts:
            newest = ts[-1]
            if t < newest - buffer_ms:
                counts["late_dropped"] += 1
                continue
            pos = bisect.bisect_left(ts, t)
            if pos < len(ts) and ts[pos] == t:
                vals[pos] = v
                counts["deduped"] += 1
                continue
            ts.insert(pos, t)
            vals.insert(pos, v)
        else:
            ts.append(t)
            vals.append(v)
        if len(ts) > capacity:
            del ts[: len(ts) - capacity]
            del vals[: len(vals) - capacity]
        counts["accepted"] += 1
    return data, counts


def store_state(store):
    columns = {key: (s.ts.tolist(), s.values.tolist()) for key, s in store.all_series().items()}
    st = store.stats
    return columns, {"accepted": st.accepted, "deduped": st.deduped, "late_dropped": st.late_dropped,
                     "rejected": st.rejected}


def random_events(rng, n, buffer_ms):
    keys = [MetricKey("10.0.0.3", "mysql", m) for m in ("a", "b", "c")]
    newest = {k: 0 for k in keys}
    seen = {k: [0] for k in keys}
    step = max(1, buffer_ms // 5)
    events = []
    for _ in range(n):
        key = rng.choice(keys)
        roll = rng.random()
        if roll < 0.1:
            t = rng.choice(seen[key])  # a duplicate, possibly long evicted
        elif roll < 0.3:
            t = newest[key] - rng.randint(0, 2 * buffer_ms + 2)  # out of order or late
        else:
            t = newest[key] + step * rng.randint(1, 3)
        t = max(t, 0)
        newest[key] = max(newest[key], t)
        seen[key].append(t)
        events.append((key, t, rng.uniform(-1.0, 1.0)))
    return events


def batches(rng, events):
    """Split events into random runs, grouped per key in arrival order."""
    i = 0
    while i < len(events):
        size = rng.randint(1, 40)
        columns = {}
        for key, t, v in events[i : i + size]:
            ts, vals = columns.setdefault(key, ([], []))
            ts.append(t)
            vals.append(v)
        yield columns, size
        i += size


class TestAppendMany:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_sequential_appends(self, seed):
        rng = random.Random(seed)
        capacity = rng.choice([2, 3, 5, 20])
        buffer_ms = rng.choice([0, 3, 10, 1000])
        events = random_events(rng, 600, buffer_ms)
        one = new_store(capacity, buffer_ms)
        kept_one = sum(one.append(MetricSample(t, *key, v)) for key, t, v in events)
        many = new_store(capacity, buffer_ms)
        kept_many = sum(many.append_many(columns) for columns, _ in batches(rng, events))
        want, counts = sequential_reference(events, capacity, buffer_ms)
        assert store_state(one) == store_state(many)
        columns, stats = store_state(many)
        assert columns == want and stats == dict(counts, rejected=0)
        assert kept_one == kept_many == counts["accepted"] + counts["deduped"]
        assert counts["late_dropped"] and counts["deduped"]

    def test_duplicate_of_evicted_point_is_accepted(self):
        key = sample().key
        ts, values = [10, 20, 30, 40, 10], [1.0, 2.0, 3.0, 4.0, 5.0]
        many = new_store(3, 10_000)
        many.append_many({key: (ts, values)})
        one = new_store(3, 10_000)
        for t, v in zip(ts, values):
            one.append(sample(ts=t, value=v))
        assert store_state(many) == store_state(one)
        assert many.series(key).ts.tolist() == [20, 30, 40]
        assert many.stats.accepted == 5 and many.stats.deduped == 0

    def test_empty_key_not_created(self):
        store = MetricStore()
        assert store.append_many({sample().key: ([], [])}) == 0
        assert store.keys() == []

    def test_load_file_matches_sequential_appends(self, tmp_path):
        paths = write_corpus(tmp_path)
        stores = [new_store(500, 0) for _ in range(2)]
        for store in stores:  # a newer point makes the older part of the file late
            store.append(sample(ts=2_000_000, metric="mem_used"))
        file_stats = stores[0].load_file(paths[0])
        series, want_stats = load_metrics_file(paths[0])
        for key, s in series.items():
            for t, v in zip(s.ts.tolist(), s.values.tolist()):
                stores[1].append(MetricSample(t, *key, v))
        assert store_state(stores[0]) == store_state(stores[1])
        assert file_stats == want_stats
        assert stores[0].stats.late_dropped > 0


# --- TCP framing ---


@pytest.fixture
def tcp_store():
    config = IngestConfig(listen_endpoint="127.0.0.1:0")
    store = MetricStore(config)
    listener = IngestListener(config, store)
    listener.start()
    try:
        yield store, listener.endpoint
    finally:
        listener.stop()


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def line_bytes(ts, **kw):
    return serialize_metric_line(sample(ts=ts, **kw)).encode("utf-8")


class TestTcpFraming:
    def test_record_split_across_sends(self, tcp_store):
        store, endpoint = tcp_store
        payload = line_bytes(1) + line_bytes(2)
        cut = len(line_bytes(1)) + 17
        with socket.create_connection(endpoint) as conn:
            conn.sendall(payload[:cut])
            time.sleep(0.05)  # let the first part arrive on its own
            conn.sendall(payload[cut:])
        assert wait_for(lambda: store.stats.accepted == 2)
        assert store.series(sample().key).ts.tolist() == [1, 2]
        assert store.stats.rejected == 0

    def test_final_line_without_newline(self, tcp_store):
        store, endpoint = tcp_store
        with socket.create_connection(endpoint) as conn:
            conn.sendall(line_bytes(1) + line_bytes(2).rstrip(b"\n"))
        assert wait_for(lambda: store.stats.accepted == 2)
        assert store.stats.rejected == 0

    def test_undecodable_line_between_valid_ones(self, tcp_store):
        store, endpoint = tcp_store
        with socket.create_connection(endpoint) as conn:
            conn.sendall(line_bytes(1) + b"junk\n" + b'{"ts_ms": \xff\xfe}\n' + b"more junk\n" + line_bytes(2))
        assert wait_for(lambda: store.stats.accepted == 2)
        assert store.stats.rejected == 3
        assert store.stats.errors == [
            "bad record structure: 'junk'", "undecodable bytes", "bad record structure: 'more junk'"]

    @pytest.mark.parametrize("length", [MAX_LINE_BYTES + 1, 1 << 20], ids=["cap_plus_one", "one_mib"])
    def test_over_long_line_rejected_once(self, tcp_store, length):
        store, endpoint = tcp_store
        with socket.create_connection(endpoint) as conn:
            conn.sendall(b"x" * length)
            conn.sendall(b"\n" + line_bytes(1))
            conn.sendall(line_bytes(2))
        assert wait_for(lambda: store.stats.accepted == 2)
        assert store.stats.rejected == 1
        assert store.stats.errors == [f"line longer than {MAX_LINE_BYTES} bytes"]

    def test_line_at_the_cap_is_decoded(self, tcp_store):
        store, endpoint = tcp_store
        padded = line_bytes(1).rstrip(b"\n").ljust(MAX_LINE_BYTES) + b"\n"
        with socket.create_connection(endpoint) as conn:
            conn.sendall(padded + line_bytes(2))
        assert wait_for(lambda: store.stats.accepted == 2)
        assert store.stats.rejected == 0

    def test_over_long_final_line_counted_at_close(self, tcp_store):
        store, endpoint = tcp_store
        with socket.create_connection(endpoint) as conn:
            conn.sendall(line_bytes(1) + b"x" * (1 << 20))
        assert wait_for(lambda: store.stats.accepted == 1 and store.stats.rejected == 1)
        assert store.stats.errors == [f"line longer than {MAX_LINE_BYTES} bytes"]

    def test_concurrent_clients_lose_no_count(self, tcp_store):
        store, endpoint = tcp_store
        clients, records = 6, 3000  # more connections than cores
        shared = MetricKey("10.0.0.3", "mysql", "shared")

        def send(c):
            parts = []
            for t in range(records):
                parts.append(line_bytes(t, metric=f"m{c}"))
                parts.append(line_bytes(t * clients + c, metric="shared"))
                if t % 50 == 0:
                    parts.append(b"junk %d\n" % c)
            with socket.create_connection(endpoint) as conn:
                conn.sendall(b"".join(parts))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=send, args=(c,)) for c in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert wait_for(lambda: store.stats.accepted + store.stats.late_dropped == 2 * clients * records
                            and store.stats.rejected == clients * records // 50, timeout=30)
        finally:
            sys.setswitchinterval(switch)
        for c in range(clients):
            assert store.series(MetricKey("10.0.0.3", "mysql", f"m{c}")).ts.tolist() == list(range(records))
        assert len(store.series(shared)) == clients * records - store.stats.late_dropped
        assert store.stats.deduped == 0 and len(store.stats.errors) == 20


class TestLineReader:
    """Files and the socket share one line reader and its line cap."""

    def test_over_long_file_line_rejected_once(self, tmp_path):
        path = tmp_path / "m.ndjson"
        path.write_bytes(line_bytes(1) + b"x" * (MAX_LINE_BYTES + 1) + b"\n" + line_bytes(2) + line_bytes(3))
        series, stats = load_metrics_file(path)
        assert (stats.accepted, stats.rejected) == (3, 1)
        assert stats.errors == [f"line longer than {MAX_LINE_BYTES} bytes"]
        assert series[sample().key].ts.tolist() == [1, 2, 3]

    def test_file_line_at_the_cap_is_decoded(self, tmp_path):
        path = tmp_path / "m.ndjson"
        padded = line_bytes(1).rstrip(b"\n").ljust(MAX_LINE_BYTES) + b"\n"
        path.write_bytes(line_bytes(0) + padded + line_bytes(2))
        series, stats = load_metrics_file(path)
        assert (stats.accepted, stats.rejected) == (3, 0)
        assert series[sample().key].ts.tolist() == [0, 1, 2]

    def test_lone_carriage_returns_end_tcp_lines(self, tcp_store):
        store, endpoint = tcp_store
        with socket.create_connection(endpoint) as conn:
            conn.sendall(b"\r".join(line_bytes(t).rstrip(b"\n") for t in (1, 2, 3)) + b"\r")
        assert wait_for(lambda: store.stats.accepted == 3)
        assert store.stats.rejected == 0
        assert store.series(sample().key).ts.tolist() == [1, 2, 3]


# --- the canonical fast path against the per-line loop ---


def canonical(ts="1", ip="10.0.0.3", service="mysql", metric="cpu_util", value="0.5"):
    """serialize_metric_line's spelling around raw field text."""
    return (f'{{"ts_ms": {ts}, "ip": "{ip}", "service": "{service}", "metric": "{metric}", '
            f'"value": {value}}}')


def compact(line):
    return line.replace(", ", ",").replace(": ", ":")


EDGE_CASES = {
    "ts_leading_zero": canonical(ts="007"),
    "ts_max_int64": canonical(ts=str(2**63 - 1)),  # 19 digits: decoded by json
    "ts_over_int64": canonical(ts=str(2**63)),
    "ts_over_uint64": canonical(ts="18446744073709551616"),
    "ts_4301_digits": canonical(ts="1" * 4301),
    "value_inf": canonical(value="1e999"),
    "value_minus_inf": canonical(value="-1e999"),
    "value_capital_exponent": canonical(value="1E5"),
    "value_minus_zero": canonical(value="-0.0"),
    "value_int_minus_zero": canonical(value="-0"),  # json reads the integer 0, so +0.0
    "value_int": canonical(value="5"),
    "value_leading_zero": canonical(value="05.5"),
    "value_bare_fraction": canonical(value="1."),
    "name_raw_tab": canonical(metric="cpu\tutil"),
    "name_escaped_quote": canonical(metric='cpu\\"util'),
    "name_escaped_e_acute": canonical(service="caf\\u00e9"),
    "name_raw_e_acute": canonical(service="café"),
    "name_empty_metric": canonical(metric=""),
    "ip_octet_over_255": canonical(ip="10.0.0.256"),
    "compact_separators": compact(canonical()),
    "compact_int_minus_zero": compact(canonical(value="-0")),
    "other_key_order": '{"ip": "10.0.0.3", "ts_ms": 1, "service": "mysql", "metric": "cpu_util", "value": 0.5}',
    "crlf": canonical() + "\r",
    "garbage": "not a record",
    "indented_comment": "  # note",
    "file_separator_only": "\x1c",  # str.strip() removes it, and splitlines() breaks at it
    "ends_in_line_separator": canonical() + "\u2028",  # likewise for U+2028
}


def write_lines(path, lines):
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    return path


def mixed_corpus(path, line, batch, spell=lambda line: line):
    """Records in `spell`ing with `line` in the middle of the first batch
    and at the start of the second."""
    base = [spell(b) for b in base_lines(random.Random(7), 2 * batch)]
    half = batch // 2
    return write_lines(path, base[:half] + [line] + base[half:batch - 1] + [line] + base[batch - 1:])


def assert_same_stream(path):
    """Stream the file to a new IngestListener and compare its store with
    reference_load; nothing is late or evicted, so the store's accepted
    and deduped split the reference's accepted."""
    want, want_stats = reference_load(path)
    config = IngestConfig(listen_endpoint="127.0.0.1:0", out_of_order_buffer_ms=2**63,
                          store_capacity_per_key=10**6)
    store = MetricStore(config)
    listener = IngestListener(config, store)
    listener.start()
    try:
        with socket.create_connection(listener.endpoint) as conn:
            conn.sendall(path.read_bytes())
        st = store.stats
        assert wait_for(lambda: st.accepted + st.deduped + st.rejected
                        == want_stats.accepted + want_stats.rejected)
    finally:
        listener.stop()
    got = store.all_series()
    assert sorted(got) == sorted(want)
    for key, points in want.items():
        assert got[key].ts.tolist() == [t for t, _ in points]
        assert got[key].values.tobytes() == np.array([v for _, v in points], dtype=np.float64).tobytes()
    assert (st.accepted + st.deduped, st.rejected, st.deduped, st.late_dropped) == (
        want_stats.accepted, want_stats.rejected, want_stats.deduped, 0)
    assert st.errors == want_stats.errors
    return got


def count_json_lines(monkeypatch):
    """Wrap ingest.parse_metric_line; the list collects the lines it saw."""
    seen = []

    def counting(line):
        seen.append(line)
        return parse_metric_line(line)

    monkeypatch.setattr(ingest, "parse_metric_line", counting)
    return seen


class TestCanonicalPath:
    @pytest.mark.parametrize("line", EDGE_CASES.values(), ids=EDGE_CASES.keys())
    def test_edge_case_alone_and_mixed(self, tmp_path, monkeypatch, line):
        assert_same_load([write_lines(tmp_path / "alone.ndjson", [line])])
        assert_same_load([mixed_corpus(tmp_path / "mixed.ndjson", line, BLOCK)])
        assert_same_load([mixed_corpus(tmp_path / "compact.ndjson", line, BLOCK, compact)])
        monkeypatch.setattr(ingest, "_READ_BYTES", SMALL_READ)
        assert_same_load([mixed_corpus(tmp_path / "mixed7.ndjson", line, 7)])
        assert_same_load([mixed_corpus(tmp_path / "compact7.ndjson", line, 7, compact)])

    def test_edge_cases_streamed(self, tmp_path):
        # one listener for all cases: the TCP handler decodes whatever one
        # read holds
        base = base_lines(random.Random(5), 40 * len(EDGE_CASES))
        lines = []
        for i, line in enumerate(EDGE_CASES.values()):
            lines += base[40 * i:40 * i + 20] + [line] + base[40 * i + 20:40 * i + 40]
        assert_same_stream(write_lines(tmp_path / "m.ndjson", lines))

    @pytest.mark.parametrize("spell", [lambda line: line, compact], ids=["canonical", "compact"])
    def test_matched_lines_skip_json(self, tmp_path, monkeypatch, spell):
        rng = random.Random(3)
        values = [rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-30, 30) for _ in range(300)]
        values += [0.0, -0.0, 1e-05, 1e16, 5e-324, 1.7976931348623157e308, -2.5e-7]
        lines = [spell(serialize_metric_line(sample(ts=i * 7, metric=("a", "b", "c")[i % 3], value=v)))
                 for i, v in enumerate(values)]
        path = tmp_path / "m.ndjson"
        path.write_text("".join(lines), encoding="utf-8")
        want, want_stats = reference_load(path)
        seen = count_json_lines(monkeypatch)
        for read_bytes in (ingest._READ_BYTES, 1, SMALL_READ):
            monkeypatch.setattr(ingest, "_READ_BYTES", read_bytes)
            series, stats = load_metrics_file(path)
            assert list(series) == list(want) and stats == want_stats
            for key, points in want.items():
                assert series[key].values.tobytes() == np.array([v for _, v in points]).tobytes()
        assert seen == []

    def test_crlf_lines_skip_json(self, tmp_path, monkeypatch):
        lines = [canonical(ts=str(i), metric=("a", "b")[i % 2]) for i in range(20)]
        path = tmp_path / "m.ndjson"
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))
        seen = count_json_lines(monkeypatch)
        series, stats = load_metrics_file(path)
        assert stats == IngestStats(accepted=20)
        assert [s.ts.tolist() for s in series.values()] == [list(range(0, 20, 2)), list(range(1, 20, 2))]
        got = assert_same_stream(path)
        assert [s.ts.tolist() for s in got.values()] == [list(range(0, 20, 2)), list(range(1, 20, 2))]
        assert seen == []

    @pytest.mark.parametrize("odd", [EDGE_CASES["garbage"], EDGE_CASES["ip_octet_over_255"],
                                     EDGE_CASES["value_inf"], EDGE_CASES["compact_separators"]],
                             ids=["garbage", "bad_ip", "inf", "compact"])
    def test_one_odd_line_leaves_the_batch_in_bulk(self, tmp_path, monkeypatch, odd):
        base = base_lines(random.Random(7), 3 * BLOCK)
        path = write_lines(tmp_path / "m.ndjson", base[:100] + [odd] + base[100:700] + [odd] + base[700:])
        seen = count_json_lines(monkeypatch)
        load_metrics_file(path)
        assert seen == [odd, odd]
        assert_same_load([path])

    def test_mostly_garbage_batch_skips_the_match(self, monkeypatch):
        # every second line is garbage, so half the rows are unmatched: each
        # garbage line goes through parse_metric_line after the canonical
        # findall, with no compact retry
        records = base_lines(random.Random(11), 30_000)
        lines = [line for record in records for line in (record, EDGE_CASES["garbage"])]
        want_stats, want = IngestStats(), {}
        for line in lines:
            try:
                s = parse_metric_line(line)
            except (MalformedRecord, MissingField, NonFiniteValue) as exc:
                want_stats.record_error(str(exc))
                continue
            ts, values = want.setdefault(s.key, ([], []))
            ts.append(s.ts_ms)
            values.append(s.value)
        matched = []

        class Recording:
            def __init__(self, pattern):
                self.pattern = pattern

            def findall(self, text):
                matched.append(self.pattern.pattern)
                return self.pattern.findall(text)

        monkeypatch.setattr(ingest, "_CANONICAL", Recording(ingest._CANONICAL))
        monkeypatch.setattr(ingest, "_COMPACT", Recording(ingest._COMPACT))
        stats, columns = IngestStats(), {}
        ingest.decode_records("\n".join(lines), stats, columns)
        assert matched == [ingest._CANONICAL.pattern.pattern]
        assert stats == want_stats and stats.rejected == 30_000
        assert list(columns) == list(want)
        for key, (ts, values) in want.items():
            assert columns[key][0].tolist() == ts
            assert columns[key][1].tobytes() == np.array(values, dtype=np.float64).tobytes()

    def test_rejected_lines_create_no_key(self, tmp_path, monkeypatch):
        lines = [
            canonical(ts="1", metric="a"),
            canonical(ts="2", metric="a"),
            canonical(ts="3", metric="a"),
            canonical(ts="4", metric="fresh", value="1e999"),  # a new key's first line is rejected
            canonical(ts="5", metric="b"),
            canonical(ts="6", metric="fresh"),
            canonical(ts="7", metric="b"),
            canonical(ts="8", metric="never", value="-1e999"),  # the key's only line is rejected
            canonical(ts="9", metric="c", ip="10.0.0.256"),  # a new, invalid key
            canonical(ts="10", metric="a"),
            canonical(ts="11", metric="fresh"),
            canonical(ts="12", metric="b"),
        ]
        keys = [MetricKey("10.0.0.3", "mysql", m) for m in ("a", "b", "fresh")]
        seen = count_json_lines(monkeypatch)
        stats, columns = IngestStats(), {}
        ingest.decode_records("\n".join(lines), stats, columns)
        assert seen == [lines[3], lines[7], lines[8]]  # the runs between them were decoded in bulk
        assert list(columns) == keys
        assert [ts.tolist() for ts, _ in columns.values()] == [[1, 2, 3, 10], [5, 7, 12], [6, 11]]
        assert stats.rejected == 3
        series = load_metrics_file(write_lines(tmp_path / "m.ndjson", lines))[0]
        assert list(series) == keys and all(len(s) for s in series.values())
        assert_same_load([tmp_path / "m.ndjson"])

    def test_half_garbage_batch_parses_only_its_garbage(self, monkeypatch):
        records = [canonical(ts=str(i), metric=("a", "b")[i % 2]) for i in range(40)]
        lines = [line for record in records for line in (record, EDGE_CASES["garbage"])]
        seen = count_json_lines(monkeypatch)
        stats, columns = IngestStats(), {}
        ingest.decode_records("\n".join(lines), stats, columns)
        assert seen == [EDGE_CASES["garbage"]] * 40
        assert stats.rejected == 40 and [ts.tolist() for ts, _ in columns.values()] == [
            list(range(0, 40, 2)), list(range(1, 40, 2))]

    def test_undecodable_line_leaves_the_batch_in_bulk(self, monkeypatch):
        records = [canonical(ts=str(i)).encode() for i in range(30)]
        undecodable = canonical(ts="99", service="my\udcffsql").encode("utf-8", "surrogateescape")
        data = b"\n".join(records[:10] + [undecodable] + records[10:20] + [b"garbage"] + records[20:])
        seen = count_json_lines(monkeypatch)
        stats, columns = IngestStats(), {}
        ingest.decode_records(data.decode("utf-8", "surrogateescape"), stats, columns)
        assert seen == ["garbage"]
        assert stats.errors == ["undecodable bytes", "bad record structure: 'garbage'"]
        assert [ts.tolist() for ts, _ in columns.values()] == [list(range(30))]


# --- decode_records, files and TCP against a per-line reference on mixed batches ---


def mixed_line(rng, spell):
    """One line as bytes: mostly records in `spell`ing, the rest every
    other kind of line decode_records meets."""
    ts = str(rng.randrange(50))
    value = rng.choice(["0.5", "1", "-2.5e-3", "7E2", "-0", "1e999"])
    metric = rng.choice(["cpu_util", "mem_used", "latency"])
    kinds = [
        spell(canonical(ts=ts, metric=metric, value=value)),
        spell(canonical(ts=ts, ip=rng.choice(["10.0.0.256", "db-host"]), value=value)),
        spell(canonical(ts=ts, service="")),
        compact(canonical(ts=ts, metric=metric)) if spell is not compact else canonical(ts=ts),
        spell(canonical(ts=ts, metric=metric)) + "\r",
        spell(canonical(ts=str(2**63 - 1 - int(ts)), metric=metric)),  # 19 digits
        spell(canonical(ts=ts, metric="cpu\\u005futil")),  # the key of cpu_util, escaped
        spell(canonical(ts=ts, metric='quo\\"te')),
        spell(canonical(ts=ts, service="café")),
        spell(canonical(ts=ts, service="my\\udcffsql")),  # a lone surrogate, escaped: accepted
        spell(canonical(ts=ts, service="my\udcffsql")),  # the same key from a raw 0xff byte: rejected
        '{"ts_ms": \udcff}',
        # other key order; its key appears on no other kind of line
        json.dumps({"ip": "10.0.0.7", "ts_ms": int(ts), "service": "fresh", "metric": "reordered",
                    "value": 1.5}),
        "not a record",
        "",
        "  \t",
        "# comment",
    ]
    line = kinds[0] if rng.random() < 0.5 else rng.choice(kinds)
    return line.encode("utf-8", "surrogateescape")


def mixed_batches(seed, count=150):
    rng = random.Random(seed)
    return [b"\n".join(mixed_line(rng, rng.choice([lambda line: line, compact]))
                       for _ in range(rng.randrange(1, 60))) + b"\n"
            for _ in range(count)]


class TestMixedBatches:
    @pytest.mark.parametrize("seed", range(3))
    def test_decode_records_matches_per_line(self, seed):
        want_stats, want = IngestStats(), {}
        got_stats, got = IngestStats(), {}
        for data in mixed_batches(seed):
            text = data.decode("utf-8", "surrogateescape")
            per_line_reference(text, want_stats, want)
            ingest.decode_records(text, got_stats, got)
            assert list(got) == list(want)
            for key, (ts, values) in want.items():
                assert got[key][0].tolist() == ts
                assert got[key][1].tobytes() == np.array(values, dtype=np.float64).tobytes()
            assert got_stats == want_stats
        assert want_stats.rejected > 20 and len(want) > 5
        assert MetricKey("10.0.0.7", "fresh", "reordered") in want

    @pytest.mark.parametrize("seed", range(3))
    def test_file_and_stream_match_per_line(self, tmp_path, seed):
        path = tmp_path / "m.ndjson"
        path.write_bytes(b"".join(mixed_batches(seed)))
        want = assert_same_load([path])
        got = assert_same_stream(path)
        assert list(got) == list(reference_load(path)[0])  # keys in the order of their first records
        assert want.rejected > 20 and want.deduped > 0
