#!/usr/bin/env python3
"""The whole engine running as a service, exercised over its interfaces.

Simulates a faulted deployment to files, then: streams the metrics over
the TCP ingestion socket, queries the HTTP control API (methods, health,
subscriptions, params), triggers a diagnosis, and lets the maintenance
evaluation produce its XML action. Everything runs in-process on loopback.
"""

import json
import tempfile
import time
import urllib.request
from pathlib import Path

from availkit.api import ControlApiServer
from availkit.config import EngineConfig
from availkit.faultsim import FaultKind, simulate
from availkit.ingest import IngestConfig, IngestListener, send_metrics
from availkit.pipeline import DiagnosisSettings
from availkit.runtime import EngineRuntime
from availkit.scenarios import three_tier_with_fault

tmp = tempfile.TemporaryDirectory(prefix="availkit-demo-")
workdir = Path(tmp.name)
spec = three_tier_with_fault(FaultKind.io_saturation, seed=5)
sim = simulate(spec, workdir)
print(f"simulated {sim.n_samples} samples into {workdir}")

config = EngineConfig(
    ingest=IngestConfig(listen_endpoint="127.0.0.1:0", store_capacity_per_key=8000),
    topology_path=str(sim.topology_path),
    events_path=str(sim.events_path),
    diagnosis=DiagnosisSettings(baseline_n=1200, window_n=600, pc_row_stride=5, theta=10.0),
)
runtime = EngineRuntime(config)
listener = IngestListener(config.ingest, runtime.store)
listener.start()
api = ControlApiServer(runtime, host="127.0.0.1", port=0)
api.start()
host, port = api.endpoint
print(f"control api on {host}:{port}, metrics socket on {listener.endpoint[1]}")


def call(method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(f"http://{host}:{port}{path}", data=data, method=method)
    if data:
        req.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.loads(resp.read().decode())


# stream the whole metrics file through the ingestion socket
lines = sim.metrics_path.read_text().splitlines(keepends=True)
send_metrics(f"127.0.0.1:{listener.endpoint[1]}", lines)
deadline = time.time() + 30
while time.time() < deadline and runtime.store.stats.accepted < sim.n_samples:
    time.sleep(0.1)
print(f"ingested {runtime.store.stats.accepted} samples over TCP")

methods = call("GET", "/methods")["methods"]
print(f"\nmethods on the bus: {', '.join(m['name'] for m in methods)}")

sub = call("POST", "/subscriptions", {
    "method": "mse",
    "target": {"ip": "10.0.0.3", "service": "db", "metric": "io_wait"},
    "period_s": 60,
})
print(f"subscribed: {sub['id']}")

health = call("GET", "/health/10.0.0.3/db")
print(f"db health score: {health['score']:.2f} (alarm={health['alarm']})")

params = call("PUT", "/params", {"maintenance_cycle_s": 120})["params"]
print(f"params after update: {params}")

diag = call("POST", "/diagnosis/run", {"entry": {"ip": "10.0.0.1", "service": "web"}})
print("\nranked causes from POST /diagnosis/run:")
for rank, cause in enumerate(diag["ranked_causes"][:3], start=1):
    print(f"  {rank}. {cause['ip']}:{cause['service']} {cause['metric']} z={cause['score']}")

availability = call("GET", "/availability/10.0.0.3/db")
print(f"\ndb availability from the event log: {availability['availability']:.6f} "
      f"({availability['n_failures']} failures)")

action = runtime.maintenance_evaluate()
if action is not None:
    from availkit.maintenance import serialize_action_xml

    print("\nmaintenance evaluation produced:")
    print(serialize_action_xml(action), end="")
else:
    print("\nmaintenance evaluation produced no action (no entropy alarm at the default threshold)")

api.stop()
listener.stop()
runtime.stop()
tmp.cleanup()
print("\nshut down cleanly")
