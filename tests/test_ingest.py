import socket
import time

import pytest

from availkit.errors import (
    BindFailure,
    FileUnreadable,
    MalformedRecord,
    MissingField,
    NonFiniteValue,
)
from availkit.ingest import (
    IngestConfig,
    IngestListener,
    MetricStore,
    load_metrics_file,
    parse_metric_line,
    send_metrics,
    serialize_metric_line,
)
from availkit.model import MetricKey, MetricSample


def sample(ts=1714000000123, ip="10.0.0.3", service="mysql", metric="cpu_util", value=0.83):
    return MetricSample(ts_ms=ts, ip=ip, service=service, metric=metric, value=value)


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


class TestStore:
    def test_monotone_timestamps(self):
        store = MetricStore(capacity_per_key=100, out_of_order_buffer_ms=1000)
        for ts in (10, 5000, 4500, 200):  # 200 is older than 5000 - 1000
            store.append(sample(ts=ts))
        assert store.series(sample().key).ts.tolist() == [10, 4500, 5000]
        assert store.stats.late_dropped == 1

    def test_capacity_keeps_newest(self):
        store = MetricStore(capacity_per_key=5, out_of_order_buffer_ms=0)
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
        store = MetricStore(capacity_per_key=500, out_of_order_buffer_ms=10_000)
        for ts in rng.integers(0, 100_000, size=400):
            store.append(sample(ts=int(ts)))
        ts_values = store.series(sample().key).ts.tolist()
        assert ts_values == sorted(set(ts_values))

    def test_snapshot_is_a_copy(self):
        store = MetricStore(capacity_per_key=4, out_of_order_buffer_ms=10_000)
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
        store = MetricStore.from_config(config)
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
        store = MetricStore.from_config(config)
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
        store = MetricStore.from_config(config)
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
        store = MetricStore.from_config(config)
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
        store = MetricStore.from_config(config)
        listener = IngestListener(config, store)
        listener.start()
        try:
            # second listener on an actively bound port must fail
            with pytest.raises(BindFailure):
                IngestListener(IngestConfig(listen_endpoint=f"127.0.0.1:{port}"), store)
        finally:
            listener.stop()
