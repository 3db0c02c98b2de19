"""HTTP control and query API over an EngineRuntime.

Plain stdlib threading HTTP server; JSON request and response bodies.
Mutations take the runtime lock, so each request is atomic; validation
failures return 400 with a machine-readable error code, request bodies
over MAX_BODY_BYTES 413, unknown routes 404.
"""

from __future__ import annotations

import json
import logging
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .errors import EngineError, NoCompletedInterval, NonAlternatingLog
from .model import ServiceNode
from .runtime import EngineRuntime

log = logging.getLogger(__name__)

_HEALTH = re.compile(r"^/health/([^/]+)/([^/]+)$")
_AVAILABILITY = re.compile(r"^/availability/([^/]+)/([^/]+)$")
_SUBSCRIPTION = re.compile(r"^/subscriptions/([^/]+)$")

MAX_BODY_BYTES = 1 << 20  # 1 MiB; the largest legitimate body is a few hundred bytes


class _PayloadTooLarge(Exception):
    pass


class _Handler(BaseHTTPRequestHandler):
    server_version = "availkit"

    @property
    def runtime(self) -> EngineRuntime:
        return self.server.runtime  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # route access logs through logging
        log.debug("%s - %s", self.address_string(), fmt % args)

    def _send(self, status: int, doc: dict) -> None:
        body = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, code: str, detail: str | None = None) -> None:
        doc = {"error": code}
        if detail:
            doc["detail"] = detail
        self._send(status, doc)

    def _body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0:
            raise ValueError(f"negative Content-Length {length}")
        if length > MAX_BODY_BYTES:
            raise _PayloadTooLarge()
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        doc = json.loads(raw.decode("utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        return doc

    # --- verbs ---

    def do_GET(self) -> None:
        try:
            if self.path == "/methods":
                self._send(200, {"methods": [d.to_dict() for d in self.runtime.bus.list_methods()]})
                return
            if self.path == "/subscriptions":
                self._send(200, {"subscriptions": [s.to_dict() for s in self.runtime.subscriptions()]})
                return
            if self.path == "/params":
                self._send(200, {"params": self.runtime.get_params()})
                return
            if self.path == "/diagnosis/latest":
                diag = self.runtime.latest_diagnosis()
                if diag is None:
                    self._error(404, "no_diagnosis")
                    return
                self._send(200, diag.to_dict())
                return
            match = _HEALTH.match(self.path)
            if match:
                node = ServiceNode(match.group(1), match.group(2))
                report = self.runtime.health(node)
                if report is None:
                    self._error(404, "no_report")
                    return
                self._send(200, report.to_dict())
                return
            match = _AVAILABILITY.match(self.path)
            if match:
                node = ServiceNode(match.group(1), match.group(2))
                try:
                    report = self.runtime.availability_report(node)
                except (NoCompletedInterval, NonAlternatingLog) as exc:
                    self._error(400, exc.code, str(exc))
                    return
                if report is None:
                    self._error(404, "no_events")
                    return
                self._send(200, report.to_dict())
                return
            self._error(404, "not_found")
        except EngineError as exc:
            self._error(400, exc.code, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            log.exception("GET %s failed", self.path)
            self._error(500, "internal_error", str(exc))

    def do_POST(self) -> None:
        try:
            try:
                body = self._body()
            except _PayloadTooLarge:
                self._error(413, "payload_too_large")
                return
            except (json.JSONDecodeError, ValueError) as exc:
                self._error(400, "bad_request", str(exc))
                return
            if self.path == "/subscriptions":
                method = body.get("method")
                target = body.get("target") or {}
                params = body.get("params") or {}
                period_s = body.get("period_s")
                if not (
                    isinstance(method, str) and type(period_s) is int and period_s >= 1  # not bool
                    and isinstance(target, dict) and isinstance(params, dict)
                ):
                    self._error(400, "bad_request", "method and period_s (int >= 1) are required; "
                                "target and params are objects")
                    return
                sub = self.runtime.subscribe(method, target, params, period_s)
                self._send(201, {"id": sub.id})
                return
            if self.path == "/diagnosis/run":
                entry_doc = body.get("entry") or {}
                if "ip" not in entry_doc or "service" not in entry_doc:
                    self._error(400, "bad_request", "entry {ip, service} is required")
                    return
                entry = ServiceNode(str(entry_doc["ip"]), str(entry_doc["service"]))
                diag = self.runtime.run_diagnosis(entry)
                self._send(200, diag.to_dict())
                return
            self._error(404, "not_found")
        except EngineError as exc:
            self._error(400, exc.code, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            log.exception("POST %s failed", self.path)
            self._error(500, "internal_error", str(exc))

    def do_PUT(self) -> None:
        try:
            if self.path == "/params":
                try:
                    body = self._body()
                    params = self.runtime.set_params(body)
                except _PayloadTooLarge:
                    self._error(413, "payload_too_large")
                    return
                except (ValueError, TypeError) as exc:  # TypeError: float(None)
                    self._error(400, "bad_request", str(exc))
                    return
                self._send(200, {"params": params})
                return
            self._error(404, "not_found")
        except EngineError as exc:
            self._error(400, exc.code, str(exc))

    def do_DELETE(self) -> None:
        match = _SUBSCRIPTION.match(self.path)
        if match:
            if self.runtime.unsubscribe(match.group(1)):
                self._send(200, {"ok": True})
            else:
                self._error(404, "unknown_subscription")
            return
        self._error(404, "not_found")


class ControlApiServer:
    """Threaded HTTP server bound to a runtime."""

    def __init__(self, runtime: EngineRuntime, host: str = "127.0.0.1", port: int = 8080) -> None:
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.runtime = runtime  # type: ignore[attr-defined]
        self._server.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def endpoint(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="control-api", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
