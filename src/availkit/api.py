"""HTTP control and query API over an EngineRuntime.

Plain stdlib threading HTTP server; JSON request and response bodies.
Mutations take the runtime lock, so each request is atomic; validation
failures return 400 with a machine-readable error code, request bodies
over MAX_BODY_BYTES 413, unknown routes 404, any other failure 500.
"""

from __future__ import annotations

import json
import logging
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .errors import EngineError
from .ingest import ServerThread
from .model import ServiceNode
from .runtime import EngineRuntime

log = logging.getLogger(__name__)

_HEALTH = re.compile(r"^/health/([^/]+)/([^/]+)$")
_AVAILABILITY = re.compile(r"^/availability/([^/]+)/([^/]+)$")
_SUBSCRIPTION = re.compile(r"^/subscriptions/([^/]+)$")

MAX_BODY_BYTES = 1 << 20  # 1 MiB; the largest legitimate body is a few hundred bytes


class _PayloadTooLarge(Exception):
    pass


class _BadRequest(EngineError):
    code = "bad_request"


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
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError as exc:
            raise _BadRequest(f"bad Content-Length: {exc}") from exc
        if length < 0:
            raise _BadRequest(f"negative Content-Length {length}")
        if length > MAX_BODY_BYTES:
            raise _PayloadTooLarge()
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            doc = json.loads(raw.decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise _BadRequest(str(exc)) from exc
        if not isinstance(doc, dict):
            raise _BadRequest("request body must be a JSON object")
        return doc

    def _handle(self, route) -> None:
        """Run one verb's routes; the one place errors become status codes."""
        try:
            route()
        except _PayloadTooLarge:
            self._error(413, "payload_too_large")
        except EngineError as exc:
            self._error(400, exc.code, str(exc))
        except Exception as exc:
            log.exception("%s %s failed", self.command, self.path)
            self._error(500, "internal_error", str(exc))

    # --- verbs ---

    def do_GET(self) -> None:
        self._handle(self._get)

    def do_POST(self) -> None:
        self._handle(self._post)

    def do_PUT(self) -> None:
        self._handle(self._put)

    def do_DELETE(self) -> None:
        self._handle(self._delete)

    def _get(self) -> None:
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
            report = self.runtime.availability_report(node)
            if report is None:
                self._error(404, "no_events")
                return
            self._send(200, report.to_dict())
            return
        self._error(404, "not_found")

    def _post(self) -> None:
        body = self._body()
        if self.path == "/subscriptions":
            method = body.get("method")
            target = body.get("target") or {}
            params = body.get("params") or {}
            period_s = body.get("period_s")
            if not (
                isinstance(method, str) and type(period_s) is int and period_s >= 1  # not bool
                and isinstance(target, dict) and isinstance(params, dict)
            ):
                raise _BadRequest("method and period_s (int >= 1) are required; "
                                  "target and params are objects")
            sub = self.runtime.subscribe(method, target, params, period_s)
            self._send(201, {"id": sub.id})
            return
        if self.path == "/diagnosis/run":
            entry_doc = body.get("entry")
            if not (isinstance(entry_doc, dict) and "ip" in entry_doc and "service" in entry_doc):
                raise _BadRequest("entry {ip, service} is required")
            entry = ServiceNode(str(entry_doc["ip"]), str(entry_doc["service"]))
            diag = self.runtime.run_diagnosis(entry)
            self._send(200, diag.to_dict())
            return
        self._error(404, "not_found")

    def _put(self) -> None:
        if self.path == "/params":
            body = self._body()
            try:
                params = self.runtime.set_params(body)
            except (ValueError, TypeError, OverflowError) as exc:  # float(None), float(10**400)
                raise _BadRequest(str(exc)) from exc
            self._send(200, {"params": params})
            return
        self._error(404, "not_found")

    def _delete(self) -> None:
        match = _SUBSCRIPTION.match(self.path)
        if match:
            if self.runtime.unsubscribe(match.group(1)):
                self._send(200, {"ok": True})
            else:
                self._error(404, "unknown_subscription")
            return
        self._error(404, "not_found")


class ControlApiServer(ServerThread):
    """Threaded HTTP server bound to a runtime."""

    def __init__(self, runtime: EngineRuntime, host: str = "127.0.0.1", port: int = 8080) -> None:
        super().__init__(ThreadingHTTPServer, (host, port), _Handler, "control-api")
        self._server.runtime = runtime  # type: ignore[attr-defined]
