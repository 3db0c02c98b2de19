import gc
import http.client
import json
import time
import urllib.error
import urllib.request
import warnings

import pytest

from availkit.api import ControlApiServer
from availkit.availability import UpDownEvent, serialize_event_line
from availkit.config import EngineConfig
from availkit.errors import BindFailure
from availkit.faultsim import FaultKind, simulate
from availkit.model import ServiceNode
from availkit.runtime import MAX_SUBSCRIPTIONS, EngineRuntime
from availkit.scenarios import DB, WEB, three_tier_with_fault

DB_CPU = {"ip": "10.0.0.3", "service": "db", "metric": "cpu_util"}
SPEC = three_tier_with_fault(FaultKind.cpu_hog, seed=0)
NEWEST_MS = (SPEC.duration_ticks - 1) * SPEC.tick_ms  # the data time every stamp carries


def request(server, method, path, body=None):
    host, port = server.endpoint
    url = f"http://{host}:{port}{path}"
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    sim = simulate(SPEC, out)

    node = ServiceNode("10.0.0.9", "edge")
    events_path = out / "edge-events.ndjson"
    events = [
        UpDownEvent(0, node, "up"),
        UpDownEvent(1999, node, "down"),
        UpDownEvent(2000, node, "up"),
    ]
    events_path.write_text("".join(serialize_event_line(e) for e in events))

    config = EngineConfig(topology_path=str(sim.topology_path), events_path=str(events_path))
    runtime = EngineRuntime(config)
    runtime.store.load_file(sim.metrics_path)
    api = ControlApiServer(runtime, host="127.0.0.1", port=0)
    api.start()
    yield api
    api.stop()
    runtime.stop()


class TestServer:
    def test_stop_is_prompt(self):
        api = ControlApiServer(EngineRuntime(), host="127.0.0.1", port=0)
        api.start()
        started = time.monotonic()
        api.stop()
        assert time.monotonic() - started < 0.2

    def test_bind_failure_closes_its_socket(self, server):
        host, port = server.endpoint
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(BindFailure):
                ControlApiServer(EngineRuntime(), host=host, port=port)
            gc.collect()  # a socket left open warns when it is collected
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


class TestMethods:
    def test_lists_builtins(self, server):
        status, doc = request(server, "GET", "/methods")
        assert status == 200
        names = [m["name"] for m in doc["methods"]]
        assert len(names) == 7 and names == sorted(names)


class TestSubscriptions:
    def test_create_list_delete(self, server):
        status, doc = request(
            server,
            "POST",
            "/subscriptions",
            {
                "method": "mse",
                "target": {"ip": "10.0.0.3", "service": "db", "metric": "cpu_util"},
                "period_s": 60,
            },
        )
        assert status == 201
        sub_id = doc["id"]
        assert sub_id.startswith("sub-")

        status, doc = request(server, "GET", "/subscriptions")
        assert status == 200
        assert any(s["id"] == sub_id for s in doc["subscriptions"])

        status, _ = request(server, "DELETE", f"/subscriptions/{sub_id}")
        assert status == 200
        status, doc = request(server, "GET", "/subscriptions")
        assert all(s["id"] != sub_id for s in doc["subscriptions"])

    def test_unknown_method_rejected(self, server):
        status, doc = request(
            server, "POST", "/subscriptions",
            {"method": "nope", "target": {"ip": "1.1.1.1", "service": "x"}, "period_s": 5},
        )
        assert status == 400 and doc["error"] == "unknown_method"

    def test_bad_period_rejected(self, server):
        status, doc = request(
            server, "POST", "/subscriptions",
            {"method": "mse", "target": {}, "period_s": 0},
        )
        assert status == 400

    def test_period_beyond_float_range_rejected(self, server):
        _, before = request(server, "GET", "/subscriptions")
        status, doc = request(
            server, "POST", "/subscriptions",
            {"method": "zscore", "target": DB_CPU, "period_s": 10**400},
        )
        assert status == 400 and doc["error"] == "param_out_of_bounds"
        _, after = request(server, "GET", "/subscriptions")
        assert after == before

    @pytest.mark.parametrize("params", [{"m": 0}, {"bogus": 1}], ids=["below_bound", "unknown"])
    def test_bad_params_rejected(self, server, params):
        _, before = request(server, "GET", "/subscriptions")
        status, doc = request(
            server, "POST", "/subscriptions",
            {"method": "mse", "target": DB_CPU, "params": params, "period_s": 5},
        )
        assert status == 400 and doc["error"] == "param_out_of_bounds"
        _, after = request(server, "GET", "/subscriptions")
        assert after == before

    def test_non_object_target_rejected(self, server):
        for target in (5, "ab", [1, 2]):
            status, doc = request(
                server, "POST", "/subscriptions",
                {"method": "mse", "target": target, "period_s": 5},
            )
            assert status == 400 and doc["error"] == "bad_request", target

    @pytest.mark.parametrize("method, target", [
        ("mse", {"ip": "10.0.0.3", "service": "db"}),
        ("pc", {"ip": "10.0.0.3"}),
        ("zscore", {"ip": 5, "service": [], "metric": {}}),
    ], ids=["no_metric", "no_service", "not_strings"])
    def test_bad_target_rejected(self, server, method, target):
        _, before = request(server, "GET", "/subscriptions")
        status, doc = request(
            server, "POST", "/subscriptions",
            {"method": method, "target": target, "period_s": 5},
        )
        assert status == 400 and doc["error"] == "missing_field"
        _, after = request(server, "GET", "/subscriptions")
        assert after == before

    def test_non_object_params_rejected(self, server):
        for params in (5, "ab", [["m", 2]]):
            status, doc = request(
                server, "POST", "/subscriptions",
                {"method": "mse", "target": DB_CPU, "params": params, "period_s": 5},
            )
            assert status == 400 and doc["error"] == "bad_request", params

    def test_bool_period_rejected(self, server):
        status, doc = request(
            server, "POST", "/subscriptions",
            {"method": "mse", "target": DB_CPU, "period_s": True},
        )
        assert status == 400 and doc["error"] == "bad_request"

    def test_subscription_cap(self, server):
        _, doc = request(server, "GET", "/subscriptions")
        created = []
        try:
            for _ in range(MAX_SUBSCRIPTIONS - len(doc["subscriptions"])):
                status, doc = request(
                    server, "POST", "/subscriptions",
                    {"method": "zscore", "target": DB_CPU, "period_s": 3600},
                )
                assert status == 201
                created.append(doc["id"])
            status, doc = request(
                server, "POST", "/subscriptions",
                {"method": "zscore", "target": DB_CPU, "period_s": 3600},
            )
            assert status == 400 and doc["error"] == "too_many_subscriptions"
        finally:
            for sub_id in created:
                request(server, "DELETE", f"/subscriptions/{sub_id}")
        status, doc = request(
            server, "POST", "/subscriptions",
            {"method": "zscore", "target": DB_CPU, "period_s": 3600},
        )
        assert status == 201  # a freed slot can be taken again
        request(server, "DELETE", f"/subscriptions/{doc['id']}")

    def test_delete_unknown_subscription(self, server):
        status, doc = request(server, "DELETE", "/subscriptions/sub-999")
        assert status == 404 and doc["error"] == "unknown_subscription"


class TestHealth:
    def test_no_data_404(self, server):
        status, doc = request(server, "GET", "/health/9.9.9.9/ghost")
        assert status == 404 and doc["error"] == "no_report"

    def test_health_with_data(self, server):
        status, doc = request(server, "GET", "/health/10.0.0.3/db")
        assert status == 200
        assert doc["target"] == {"ip": "10.0.0.3", "service": "db"}
        assert "score" in doc and "alarm" in doc
        assert doc["computed_at_ms"] == NEWEST_MS


class TestDiagnosis:
    def test_run_then_latest(self, server):
        status, doc = request(
            server, "POST", "/diagnosis/run", {"entry": {"ip": WEB.ip, "service": WEB.service}}
        )
        assert status == 200
        assert doc["ranked_causes"], "fault must be localized"
        top = doc["ranked_causes"][0]
        assert (top["ip"], top["service"]) == (DB.ip, DB.service)
        assert doc["produced_at_ms"] == NEWEST_MS

        status, latest = request(server, "GET", "/diagnosis/latest")
        assert status == 200 and latest == doc

    def test_missing_entry_is_400(self, server):
        status, doc = request(server, "POST", "/diagnosis/run", {})
        assert status == 400 and doc["error"] == "bad_request"

    @pytest.mark.parametrize("entry", ["ip service", ["ip", "service"]], ids=["string", "list"])
    def test_entry_that_is_not_an_object_is_400(self, server, entry):
        status, doc = request(server, "POST", "/diagnosis/run", {"entry": entry})
        assert status == 400 and doc["error"] == "bad_request"

    def test_unknown_entry_maps_to_engine_error(self, server):
        status, doc = request(
            server, "POST", "/diagnosis/run", {"entry": {"ip": "8.8.8.8", "service": "nope"}}
        )
        assert status == 400 and doc["error"] == "entry_not_in_topology"


class TestAvailability:
    def test_report_from_events_file(self, server):
        status, doc = request(server, "GET", "/availability/10.0.0.9/edge")
        assert status == 200
        assert doc["availability"] == pytest.approx(0.9995)

    def test_no_events_404(self, server):
        status, doc = request(server, "GET", "/availability/9.9.9.9/ghost")
        assert status == 404 and doc["error"] == "no_events"

    def test_malformed_events_file_400(self, tmp_path):
        events_path = tmp_path / "events.ndjson"
        events_path.write_text('{"ts_ms": 1e999, "ip": "10.0.0.9", "service": "edge", "state": "up"}\n')
        api = ControlApiServer(EngineRuntime(EngineConfig(events_path=str(events_path))),
                               host="127.0.0.1", port=0)
        api.start()
        try:
            status, doc = request(api, "GET", "/availability/10.0.0.9/edge")
        finally:
            api.stop()
        assert status == 400 and doc["error"] == "malformed_record"

    def test_long_bad_events_line_gives_a_short_400(self, tmp_path):
        events_path = tmp_path / "events.ndjson"
        events_path.write_text('{"ts_ms": 0, "ip": "10.0.0.9", "service": "edge", "state": "'
                               + "x" * 200_000 + '"}\n')
        api = ControlApiServer(EngineRuntime(EngineConfig(events_path=str(events_path))),
                               host="127.0.0.1", port=0)
        api.start()
        try:
            status, doc = request(api, "GET", "/availability/10.0.0.9/edge")
        finally:
            api.stop()
        assert status == 400 and doc["error"] == "malformed_record"
        assert len(json.dumps(doc)) < 1024  # the line is quoted by a prefix and its length


class TestParams:
    def test_get_put_roundtrip(self, server):
        status, doc = request(server, "GET", "/params")
        assert status == 200
        before = doc["params"]
        assert set(before) == {"maintenance_cycle_s", "alarm_threshold", "alpha"}

        status, doc = request(
            server, "PUT", "/params",
            {"maintenance_cycle_s": 120, "alarm_threshold": 2.5, "alpha": 0.05},
        )
        assert status == 200
        assert doc["params"]["maintenance_cycle_s"] == 120
        assert doc["params"]["alarm_threshold"] == 2.5
        assert doc["params"]["alpha"] == 0.05

        status, doc = request(server, "GET", "/params")
        assert doc["params"]["maintenance_cycle_s"] == 120

    def test_unknown_param_rejected(self, server):
        status, doc = request(server, "PUT", "/params", {"bogus": 1})
        assert status == 400

    def test_out_of_range_alpha_rejected(self, server):
        _, before = request(server, "GET", "/params")
        status, doc = request(server, "PUT", "/params", {"alpha": 3.0})
        assert status == 400
        # a valid field in the same request must not be applied either
        status, doc = request(server, "PUT", "/params", {"alarm_threshold": 7.5, "alpha": 3.0})
        assert status == 400
        _, after = request(server, "GET", "/params")
        assert after == before

    @pytest.mark.parametrize(
        "body",
        [
            {"alarm_threshold": float("nan")},
            {"alarm_threshold": float("inf")},
            {"alpha": float("nan")},
            {"alpha": None},
            {"maintenance_cycle_s": 2.7},
            {"maintenance_cycle_s": True},
            {"alarm_threshold": 10**400},  # float() raises OverflowError
            {"alpha": 10**400},
            {"maintenance_cycle_s": 10**400},  # beyond the loop's float due times
        ],
        ids=["nan_threshold", "inf_threshold", "nan_alpha", "null_alpha", "fractional_cycle",
             "bool_cycle", "huge_int_threshold", "huge_int_alpha", "huge_int_cycle"],
    )
    def test_non_finite_or_fractional_rejected(self, server, body):
        _, before = request(server, "GET", "/params")
        status, doc = request(server, "PUT", "/params", body)
        assert status == 400 and doc["error"] == "bad_request"
        _, after = request(server, "GET", "/params")
        assert after == before


class TestRouting:
    def test_unknown_route_404(self, server):
        status, doc = request(server, "GET", "/nope")
        assert status == 404 and doc["error"] == "not_found"

    def test_malformed_body_400(self, server):
        host, port = server.endpoint
        req = urllib.request.Request(
            f"http://{host}:{port}/diagnosis/run", data=b"{not json", method="POST"
        )
        try:
            with urllib.request.urlopen(req, timeout=10) as resp:
                status = resp.status
        except urllib.error.HTTPError as exc:
            status = exc.code
        assert status == 400

    def test_oversized_body_413(self, server):
        host, port = server.endpoint
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.putrequest("POST", "/diagnosis/run")
            conn.putheader("Content-Length", str(1 << 40))
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 413
            assert json.loads(resp.read().decode()) == {"error": "payload_too_large"}
        finally:
            conn.close()

    def test_negative_content_length_400(self, server):
        host, port = server.endpoint
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.putrequest("PUT", "/params")
            conn.putheader("Content-Length", "-1")
            conn.endheaders()
            assert conn.getresponse().status == 400
        finally:
            conn.close()
