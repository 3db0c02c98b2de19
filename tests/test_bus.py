import numpy as np
import pytest

from availkit.availability import UpDownEvent, availability
from availkit.bus import InputKind, MethodBus, MethodDescriptor, ParamSpec
from availkit.entropy import EntropyConfig, mse_curve
from availkit.errors import DuplicateName, InputKindMismatch, ParamOutOfBounds, UnknownMethod
from availkit.model import MetricKey, MetricMatrix, MetricSeries, ServiceNode


BUILTIN_METHODS = ("availability", "correlation", "cusum", "forecast", "mse", "pc", "zscore")


def series(values, ts_step=1000):
    key = MetricKey("10.0.0.3", "mysql", "cpu_util")
    return MetricSeries(key, np.arange(len(values)) * ts_step, values)


class TestRegistry:
    def test_builtins_present(self):
        bus = MethodBus()
        names = [d.name for d in bus.list_methods()]
        assert names == sorted(names)
        assert tuple(names) == BUILTIN_METHODS
        assert len(names) == 7

    def test_duplicate_rejected(self):
        bus = MethodBus()
        desc = MethodDescriptor("mse", InputKind.single_series, {}, "dup")
        with pytest.raises(DuplicateName):
            bus.register(desc, lambda x: {})

    def test_custom_registration_listed(self):
        bus = MethodBus()
        desc = MethodDescriptor("custom1", InputKind.single_series, {}, "custom")
        bus.register(desc, lambda x: {"ok": True})
        names = [d.name for d in bus.list_methods()]
        assert "custom1" in names and len(names) == 8

    def test_descriptor_exposes_param_schema(self):
        bus = MethodBus()
        mse = bus.describe("mse")
        assert set(mse.params) == {"m", "r_fraction", "max_scale"}
        doc = mse.to_dict()
        assert doc["params"]["m"]["default"] == 2


class TestRun:
    def test_unknown_method(self):
        with pytest.raises(UnknownMethod):
            MethodBus().run("nope", series([1.0] * 60))

    def test_param_out_of_bounds(self):
        bus = MethodBus()
        matrix = MetricMatrix(1000, 0, ["a", "b"], np.random.default_rng(0).normal(size=(200, 2)))
        with pytest.raises(ParamOutOfBounds):
            bus.run("pc", matrix, {"alpha": 1.5})

    def test_unknown_param_rejected(self):
        bus = MethodBus()
        with pytest.raises(ParamOutOfBounds):
            bus.run("mse", series([1.0] * 60), {"bogus": 1})

    def test_input_kind_mismatch(self):
        bus = MethodBus()
        with pytest.raises(InputKindMismatch):
            bus.run("pc", series([1.0] * 60))

    def test_mse_constant_series_all_zero(self):
        bus = MethodBus()
        payload = bus.run("mse", series([5.0] * 600))
        values = [e["value"] for e in payload["curve"]]
        assert values == [0.0] * 10

    def test_mse_matches_direct_call(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=600)
        bus = MethodBus()
        payload = bus.run("mse", series(values))
        cfg = EntropyConfig(window_len=600)
        direct = mse_curve(values, cfg)
        assert [e["value"] for e in payload["curve"]] == [e.value for e in direct]

    def test_zscore_matches_direct_call(self):
        rng = np.random.default_rng(3)
        values = np.concatenate([rng.normal(size=200), rng.normal(size=50) + 6.0])
        bus = MethodBus()
        payload = bus.run("zscore", series(values), {"baseline_len": 200})
        from availkit.rootcause import zscore_anomaly

        assert payload["score"] == zscore_anomaly(values[:200], values[200:])

    def test_availability_matches_direct_call(self):
        node = ServiceNode("10.0.0.3", "mysql")
        events = [
            UpDownEvent(0, node, "up"),
            UpDownEvent(1999, node, "down"),
            UpDownEvent(2000, node, "up"),
        ]
        bus = MethodBus()
        payload = bus.run("availability", events)
        assert payload == availability(events).to_dict()

    def test_forecast_over_series(self):
        bus = MethodBus()
        hist = series([0.1, 0.2, 0.3], ts_step=1)
        payload = bus.run("forecast", hist, {"theta": 0.6, "fit_window": 3})
        assert payload["kind"] == "crossing"
        assert payload["crossing_ts_ms"] == pytest.approx(5.0)

    @pytest.mark.parametrize(
        "history",
        [[0.1, 0.2, 0.3], np.array([0.1, 0.2, 0.3]), [(0, 0.1), (1, 0.2), (2, 0.3)]],
        ids=["flat_list", "flat_array", "pairs"],
    )
    def test_forecast_reads_scores_or_pairs(self, history):
        # a flat sequence holds scores at index timestamps, as the CLI reads bare values
        payload = MethodBus().run("forecast", history, {"theta": 0.6, "fit_window": 3})
        assert payload["kind"] == "crossing"
        assert payload["crossing_ts_ms"] == pytest.approx(5.0)

    @pytest.mark.parametrize(
        "history", [[0.1, (1, 0.2)], [(0, 0.1, 9)], [("x", 0.1), (1, 0.2)]],
        ids=["mixed", "triple", "text_ts"],
    )
    def test_forecast_rejects_other_input(self, history):
        with pytest.raises(InputKindMismatch):
            MethodBus().run("forecast", history)

    def test_cusum_finds_step(self):
        rng = np.random.default_rng(5)
        values = np.concatenate([rng.normal(size=150), rng.normal(size=100) + 8.0])
        bus = MethodBus()
        payload = bus.run("cusum", series(values), {"baseline_len": 150})
        assert payload["change_points"], "step must be detected"
        assert payload["change_points"][0] >= 150

    def test_string_params_coerced(self):
        bus = MethodBus()
        payload = bus.run("mse", series([1.0] * 600), {"m": "2", "r_fraction": "0.15"})
        assert payload["score"] == 0.0

    def test_correlation_payload(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=500)
        data = np.column_stack([x, -x])
        bus = MethodBus()
        payload = bus.run("correlation", MetricMatrix(1000, 0, ["a", "b"], data))
        assert payload["matrix"][0][1] == pytest.approx(-1.0)
        assert payload["n_rows"] == 500


    def test_correlation_rejects_a_repeated_name(self):
        # the check pc has always made
        data = np.random.default_rng(6).normal(size=(200, 3))
        with pytest.raises(DuplicateName):
            MethodBus().run("correlation", MetricMatrix(1000, 0, ["a", "a", "b"], data))

    def test_resolve_params_fills_defaults_and_validates(self):
        bus = MethodBus()
        assert bus.resolve_params("mse", {"m": "3"}) == {"m": 3, "r_fraction": 0.15, "max_scale": 10}
        assert bus.resolve_params("correlation") == {}
        for params in ({"m": 0}, {"bogus": 1}):
            with pytest.raises(ParamOutOfBounds):
                bus.resolve_params("mse", params)
        with pytest.raises(UnknownMethod):
            bus.resolve_params("nope")


class TestParamSpec:
    def test_open_bounds(self):
        spec = ParamSpec("float", 0.5, lo=0.0, hi=1.0, lo_open=True, hi_open=True)
        assert spec.validate("p", 0.3) == 0.3
        with pytest.raises(ParamOutOfBounds):
            spec.validate("p", 0.0)
        with pytest.raises(ParamOutOfBounds):
            spec.validate("p", 1.0)

    def test_int_rejects_fractional(self):
        spec = ParamSpec("int", 1, lo=1)
        with pytest.raises(ParamOutOfBounds):
            spec.validate("p", 2.5)
        assert spec.validate("p", 2.0) == 2

    def test_nan_rejected_despite_bounds(self):
        spec = ParamSpec("float", 0.15, lo=0.0, lo_open=True)
        with pytest.raises(ParamOutOfBounds):
            spec.validate("p", "nan")

    def test_bool_strings(self):
        spec = ParamSpec("bool", False)
        assert spec.validate("p", "true") is True
        assert spec.validate("p", "0") is False
        with pytest.raises(ParamOutOfBounds):
            spec.validate("p", "maybe")
