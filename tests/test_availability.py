import pytest

from availkit.availability import (
    Forecast,
    UpDownEvent,
    availability,
    forecast_failure_time,
    load_event_log,
    mttf,
    mttr,
    parse_event_line,
    serialize_event_line,
)
from availkit.errors import (
    MalformedRecord,
    NoCompletedInterval,
    NonAlternatingLog,
    TooFewPoints,
)
from availkit.model import ServiceNode

DB = ServiceNode("10.0.0.3", "db")


def log(*pairs):
    return [UpDownEvent(ts_ms=ts, target=DB, state=state) for ts, state in pairs]


class TestMttf:
    def test_mean_of_up_intervals(self):
        events = log((0, "up"), (100, "down"), (150, "up"), (350, "down"), (400, "up"), (700, "down"))
        assert mttf(events) == pytest.approx(200.0)  # intervals 100, 200, 300

    def test_trailing_open_interval_excluded(self):
        events = log((0, "up"), (100, "down"), (150, "up"))
        assert mttf(events) == pytest.approx(100.0)

    def test_no_completed_interval(self):
        with pytest.raises(NoCompletedInterval):
            mttf(log((0, "up")))

    def test_non_alternating(self):
        with pytest.raises(NonAlternatingLog):
            mttf(log((0, "up"), (10, "down"), (20, "down")))

    def test_translation_invariant(self):
        events = log((0, "up"), (100, "down"), (150, "up"), (350, "down"))
        shifted = log((7000, "up"), (7100, "down"), (7150, "up"), (7350, "down"))
        assert mttf(events) == mttf(shifted)
        assert mttr(events) == mttr(shifted)


class TestMttr:
    def test_mean_of_down_intervals(self):
        events = log((0, "up"), (100, "down"), (110, "up"), (200, "down"), (230, "up"))
        assert mttr(events) == pytest.approx(20.0)  # intervals 10, 30

    def test_single_interval(self):
        events = log((0, "up"), (10, "down"), (15, "up"))
        assert mttr(events) == pytest.approx(5.0)

    def test_no_completed_down(self):
        with pytest.raises(NoCompletedInterval):
            mttr(log((0, "up"), (10, "down")))


class TestAvailability:
    def test_sla_figure(self):
        # one up interval of 1999, one down interval of 1
        events = log((0, "up"), (1999, "down"), (2000, "up"), (3999, "down"), (4000, "up"))
        report = availability(events)
        assert report.mttf_ms == pytest.approx(1999.0)
        assert report.mttr_ms == pytest.approx(1.0)
        assert report.availability == pytest.approx(0.9995)

    def test_symmetric_means_give_half(self):
        events = log((0, "up"), (10, "down"), (20, "up"), (30, "down"), (40, "up"))
        report = availability(events)
        assert report.availability == pytest.approx(0.5)

    def test_identity_exact(self):
        events = log((0, "up"), (999, "down"), (1000, "up"), (1999, "down"), (2000, "up"))
        report = availability(events)
        assert report.availability == report.mttf_ms / (report.mttf_ms + report.mttr_ms)
        assert report.availability == pytest.approx(0.999)
        assert report.n_failures == 2


class TestForecast:
    def test_exact_linear_crossing(self):
        history = [(0, 0.1), (1, 0.2), (2, 0.3)]
        forecast = forecast_failure_time(history, theta=0.6, fit_window=3)
        assert forecast.kind == "crossing"
        assert forecast.crossing_ts_ms == pytest.approx(5.0, rel=1e-9)

    def test_constant_history_no_trend(self):
        forecast = forecast_failure_time([(0, 0.2), (1, 0.2), (2, 0.2)], theta=0.6, fit_window=3)
        assert forecast.kind == "no_trend"

    def test_already_exceeded(self):
        forecast = forecast_failure_time([(0, 0.5), (1, 0.7)], theta=0.6, fit_window=2)
        assert forecast.kind == "already_exceeded"

    def test_already_exceeded_beats_no_trend(self):
        forecast = forecast_failure_time([(0, 0.7), (1, 0.7)], theta=0.6, fit_window=2)
        assert forecast.kind == "already_exceeded"

    def test_declining_history_no_trend(self):
        forecast = forecast_failure_time([(0, 0.5), (1, 0.4), (2, 0.3)], theta=0.6, fit_window=3)
        assert forecast.kind == "no_trend"

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            forecast_failure_time([(0, 0.1)], theta=0.6, fit_window=5)

    def test_fit_window_trailing_only(self):
        # early junk outside the window must not matter
        history = [(0, 5.0), (1, -7.0), (100, 0.1), (101, 0.2), (102, 0.3)]
        forecast = forecast_failure_time(history, theta=0.6, fit_window=3)
        assert forecast.kind == "crossing"
        assert forecast.crossing_ts_ms == pytest.approx(105.0, rel=1e-9)

    def test_exactness_on_random_noiseless_lines(self):
        import numpy as np

        rng = np.random.default_rng(4)
        for _ in range(50):
            slope = float(rng.uniform(1e-6, 1e-2))
            intercept = float(rng.uniform(-1.0, 0.5))
            ts = np.arange(0, 40_000, 1000)
            history = [(int(t), intercept + slope * t) for t in ts]
            theta = history[-1][1] + float(rng.uniform(0.01, 2.0))
            forecast = forecast_failure_time(history, theta=theta, fit_window=20)
            expected = (theta - intercept) / slope
            assert forecast.kind == "crossing"
            assert forecast.crossing_ts_ms == pytest.approx(expected, rel=1e-9)


class TestEventLog:
    def test_round_trip(self, tmp_path):
        events = log((0, "up"), (10, "down"), (20, "up"))
        path = tmp_path / "events.ndjson"
        path.write_text("".join(serialize_event_line(e) for e in events))
        loaded = load_event_log(path)
        assert loaded[DB] == events

    def test_lone_cr_ends_a_line(self, tmp_path):
        events = log((0, "up"), (10, "down"), (20, "up"))
        path = tmp_path / "events.ndjson"
        path.write_bytes("".join(serialize_event_line(e) for e in events).replace("\n", "\r").encode())
        assert load_event_log(path)[DB] == events
        path.write_bytes(path.read_bytes() + b"nope\r")
        with pytest.raises(MalformedRecord, match="events.ndjson:4:"):
            load_event_log(path)

    def test_parse_rejects_garbage(self):
        with pytest.raises(MalformedRecord):
            parse_event_line("nope")
        with pytest.raises(MalformedRecord):
            parse_event_line('{"ts_ms": 1, "ip": "10.0.0.1", "service": "s"}')
