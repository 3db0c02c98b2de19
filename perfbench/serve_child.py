"""The process that hosts availkit for the serve_stream workload.

It builds EngineRuntime, IngestListener and ControlApiServer on ephemeral
ports the way ``availkit serve`` does, with criterion 8's diagnosis
settings and no maintenance loop. run.py starts it and talks to it with one
JSON object per line on stdin/stdout, because no HTTP route exposes the
store's IngestStats yet:

    {"cmd": "wait", "target": n, "timeout": s}
        -> {"ok": bool, "t": time.monotonic() when the store had accounted
            for n records, "accounted": n}
    {"cmd": "stats"} -> IngestStats counters and this process's ru_maxrss
    {"cmd": "trace"} -> the span recorder's export (traced run only)
    {"cmd": "exit"}  -> stops the servers and exits
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import common


def accounted(stats) -> int:
    return stats.accepted + stats.rejected + stats.deduped + stats.late_dropped


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--topology", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpus", required=True, help="comma-separated CPUs to run on")
    args = parser.parse_args()
    # before any thread starts, so that every thread of the server inherits it
    os.sched_setaffinity(0, {int(c) for c in args.cpus.split(",")})

    common.use_checkout_sources()
    from availkit.api import ControlApiServer
    from availkit.config import EngineConfig
    from availkit.ingest import IngestConfig, IngestListener
    from availkit.runtime import EngineRuntime
    from availkit.scenarios import WEB
    from tracer import Tracer

    settings = common.criterion8_settings()
    config = EngineConfig(
        ingest=IngestConfig(listen_endpoint="127.0.0.1:0"),
        entropy=settings["econf"],
        anomaly=settings["aconf"],
        diagnosis=settings["settings"],
        topology_path=args.topology,
        entry=WEB,
    )
    tracer = None
    if args.trace:
        tracer = Tracer()
        common.install_wrappers(tracer, mse_memory_peak=False)
        common.install_record_wrappers(tracer, config.ingest.store_capacity_per_key)

    runtime = EngineRuntime(config)
    listener = IngestListener(config.ingest, runtime.store)
    listener.start()
    api = ControlApiServer(runtime, host="127.0.0.1", port=0)
    api.start()

    def reply(doc: dict) -> None:
        sys.stdout.write(json.dumps(doc) + "\n")
        sys.stdout.flush()

    reply({"ingest_port": listener.endpoint[1], "api_port": api.endpoint[1]})
    stats = runtime.store.stats
    try:
        for line in sys.stdin:
            cmd = json.loads(line)
            if cmd["cmd"] == "wait":
                deadline = time.monotonic() + float(cmd["timeout"])
                while accounted(stats) < cmd["target"] and time.monotonic() < deadline:
                    time.sleep(0.001)
                now = time.monotonic()
                reply({"ok": accounted(stats) >= cmd["target"], "t": now, "accounted": accounted(stats)})
            elif cmd["cmd"] == "stats":
                reply({
                    "accepted": stats.accepted,
                    "rejected": stats.rejected,
                    "deduped": stats.deduped,
                    "late_dropped": stats.late_dropped,
                    "errors": list(stats.errors),
                    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                })
            elif cmd["cmd"] == "trace":
                reply(tracer.export() if tracer else {})
            elif cmd["cmd"] == "exit":
                break
    finally:
        api.stop()
        listener.stop()
        runtime.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
