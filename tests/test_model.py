import numpy as np
import pytest

from availkit.errors import EmptyInput, MalformedRecord
from availkit.model import (
    MAX_LINE_BYTES,
    MetricKey,
    MetricSample,
    MetricSeries,
    ServiceDependencyGraph,
    ServiceNode,
    align,
    data_lines,
    topological_order,
    validate_topology,
)


def series(points, key=("10.0.0.1", "web", "cpu_util")):
    points = list(points)
    return MetricSeries(MetricKey(*key), [p[0] for p in points], [p[1] for p in points])


class TestMetricSample:
    def test_valid_sample(self):
        s = MetricSample(ts_ms=1714000000123, ip="10.0.0.3", service="mysql", metric="cpu_util", value=0.83)
        assert s.key == MetricKey("10.0.0.3", "mysql", "cpu_util")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            MetricSample(ts_ms=1, ip="10.0.0.1", service="s", metric="m", value=float("nan"))

    def test_rejects_negative_ts(self):
        with pytest.raises(ValueError):
            MetricSample(ts_ms=-1, ip="10.0.0.1", service="s", metric="m", value=1.0)

    def test_rejects_bad_ip(self):
        with pytest.raises(ValueError):
            MetricSample(ts_ms=1, ip="not-an-ip", service="s", metric="m", value=1.0)


class TestDataLines:
    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r", b""], ids=["lf", "crlf", "cr", "eof"])
    def test_longest_line_is_read_whole(self, tmp_path, end):
        path = tmp_path / "input.txt"
        path.write_bytes(b"x" * MAX_LINE_BYTES + end)
        assert list(data_lines(path)) == [(1, "x" * MAX_LINE_BYTES)]

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r", b""], ids=["lf", "crlf", "cr", "eof"])
    def test_one_byte_longer_raises(self, tmp_path, end):
        path = tmp_path / "input.txt"
        path.write_bytes(b"# header\n" + b"x" * (MAX_LINE_BYTES + 1) + end)
        with pytest.raises(MalformedRecord, match=f"input.txt:2: line longer than {MAX_LINE_BYTES} bytes"):
            list(data_lines(path))

    def test_lf_crlf_and_lone_cr_each_end_one_line(self, tmp_path):
        path = tmp_path / "input.txt"
        path.write_bytes(b"a\r\nb\rc\n\r\nd\r\re\xfe\r")
        lines = data_lines(path)
        assert [next(lines) for _ in range(4)] == [(1, "a"), (2, "b"), (3, "c"), (5, "d")]
        with pytest.raises(MalformedRecord, match="input.txt:7: line is not UTF-8"):
            next(lines)


class TestMetricSeries:
    def test_columns_coerced(self):
        s = series([(0, 1), (1000, 2)])
        assert s.ts.dtype == np.int64 and s.values.dtype == np.float64
        assert len(s) == 2

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError):
            MetricSeries(MetricKey("10.0.0.1", "web", "cpu_util"), [0, 1000], [1.0])

    def test_rejects_2d_columns(self):
        with pytest.raises(ValueError):
            MetricSeries(MetricKey("10.0.0.1", "web", "cpu_util"), [[0, 1000]], [[1.0, 2.0]])


class TestAlign:
    def test_one_sample_per_bucket(self):
        m = align([series([(0, 1.0), (1000, 3.0)])], interval_ms=1000)
        assert m.n_rows == 2
        assert m.values[0, 0] == 1.0
        assert m.values[1, 0] == 3.0

    def test_mean_of_cobucketed(self):
        m = align([series([(0, 1.0), (500, 3.0)])], interval_ms=1000)
        assert m.n_rows == 1
        assert m.values[0, 0] == 2.0

    def test_disjoint_timestamps_get_absent_cells(self):
        a = series([(0, 1.0)], key=("10.0.0.1", "web", "a"))
        b = series([(1000, 2.0)], key=("10.0.0.1", "web", "b"))
        m = align([a, b], interval_ms=1000)
        assert m.n_rows == 2
        assert np.isnan(m.values[0, 1]) and np.isnan(m.values[1, 0])
        assert m.values[0, 0] == 1.0 and m.values[1, 1] == 2.0

    def test_start_rounds_down_to_interval(self):
        m = align([series([(1500, 5.0)])], interval_ms=1000)
        assert m.start_ms == 1000

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            align([], interval_ms=1000)

    def test_bucket_aggregation_matches_brute_force(self):
        rng = np.random.default_rng(7)
        ts = np.sort(rng.choice(np.arange(0, 5000), size=60, replace=False))
        vals = rng.normal(size=60)
        s = series(list(zip(ts.tolist(), vals.tolist())))
        m = align([s], interval_ms=700)
        for t in range(m.n_rows):
            lo = m.start_ms + t * 700
            in_bucket = vals[(ts >= lo) & (ts < lo + 700)]
            if in_bucket.size == 0:
                assert np.isnan(m.values[t, 0])
            else:
                assert m.values[t, 0] == pytest.approx(in_bucket.mean(), abs=1e-12)


class TestTopology:
    def test_valid_chain(self):
        g = ServiceDependencyGraph(
            nodes=[ServiceNode("10.0.0.1", "web"), ServiceNode("10.0.0.2", "app"), ServiceNode("10.0.0.3", "db")],
            edges=[(0, 1), (1, 2)],
        )
        assert validate_topology(g) == []

    def test_dangling_edge(self):
        g = ServiceDependencyGraph(
            nodes=[ServiceNode("10.0.0.1", "a"), ServiceNode("10.0.0.2", "b"), ServiceNode("10.0.0.3", "c")],
            edges=[(0, 5)],
        )
        report = validate_topology(g)
        assert len(report) == 1 and report[0].kind == "dangling_edge"

    def test_duplicate_node(self):
        g = ServiceDependencyGraph(
            nodes=[ServiceNode("10.0.0.1", "a"), ServiceNode("10.0.0.1", "a")], edges=[]
        )
        report = validate_topology(g)
        assert len(report) == 1 and report[0].kind == "duplicate_node"

    def test_cycle_safe_reachability(self):
        g = ServiceDependencyGraph(
            nodes=[ServiceNode("10.0.0.1", "a"), ServiceNode("10.0.0.2", "b")],
            edges=[(0, 1), (1, 0)],
        )
        assert set(g.reachable_from(ServiceNode("10.0.0.1", "a"))) == set(g.nodes)

    def test_round_trip_dict(self):
        g = ServiceDependencyGraph(
            nodes=[ServiceNode("10.0.0.1", "apache"), ServiceNode("10.0.0.2", "mysql")],
            edges=[(0, 1)],
        )
        assert ServiceDependencyGraph.from_dict(g.to_dict()) == g


def test_topological_order_detects_cycles():
    assert topological_order(3, [(0, 1), (1, 2)]) == [0, 1, 2]
    assert topological_order(3, [(0, 1), (1, 2), (2, 0)]) is None
