"""availkit benchmark: file diagnosis, serving at store capacity and
long-window health evaluation.

    python3 perfbench/run.py --workload {batch_file,serve_stream,health_long} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; availkit is imported from its src/. The
seed makes the simulated inputs; the simulator runs only in set-up, so the
program under test receives nothing but the generated records. --seconds
sizes a fixed amount of work (passes, rounds, evaluations) that takes about
that long on a 2-CPU host, so every count repeats exactly at a fixed seed.
--trace 0 prints the end-to-end metrics; --trace 1 installs span wrappers
and prints the per-layer metrics instead. The last stdout line is the
result object; the line before it holds counts, sample sizes and host
context. The exit code is 1 when any output check fails. See README.md.
"""

from __future__ import annotations

import argparse
import http.client
import importlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import common
from tracer import Tracer, op_summaries, span_factory

SETUP_REPEATS = 3
DEADLINE_S = 170  # the whole run, set-up included, ends before 180 s
WAIT_TIMEOUT_S = 60.0

# Nominal costs on a 2-CPU host; they turn --seconds into a fixed work size.
BATCH_PASS_S = 1.25
HEALTH_EVAL_S = 4.0
SERVE_FILL_S = 4.0
SERVE_ROUND_S = 0.8
# A closed loop stops issuing operations once its measured phase has run
# this many times --seconds, so a large regression cannot overrun the run.
PHASE_CAP = 2.0

FILL_TICKS = 20_000      # = store_capacity_per_key: the fill ends exactly at capacity
CHUNK_TICKS = 1_000      # continuation ticks per full-phase round
FAULT_TICKS = 2_500      # cpu_hog at the end of the serve stream

OUT_DIR = common.HERE / "_out"
WORK_DIR = common.HERE / "_work"


@dataclass
class Outcome:
    setup_s: list[float]
    op_s: list[float]                 # one entry per pass, request or evaluation
    throughput_sps: float             # from a median time, so one slow stretch does not set it
    peak_rss_mb: float
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    child_trace: dict | None = None   # serve_stream: spans recorded in the server process


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, int]:
    """Highest percentile with at least ten samples beyond it, and its label.

    With n samples sorted ascending, that is the (n-10)-th value, labelled
    floor(100 (n-10) / n). With ten samples or fewer it is the maximum
    (labelled 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    return ordered[n - 11], math.floor(100 * (n - 10) / n)


def host_probe() -> float:
    """Fixed CPU-bound work: interpreter loop plus a numpy sort."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) % 1_000_003
    np.sort(np.random.default_rng(0).standard_normal(400_000))
    return time.perf_counter() - t0


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- output checks (pure functions so selfcheck.py can feed them bad outputs) ---

def check_batch_pass(diag, stats, xml: str | None, expected_records: int) -> list[str]:
    from availkit.errors import EngineError
    from availkit.maintenance import parse_action_xml
    from availkit.scenarios import DB

    errors = []
    if stats.rejected or stats.accepted != expected_records:
        errors.append(f"ingest accepted {stats.accepted}, rejected {stats.rejected} of {expected_records}")
    top = tuple(diag.ranked_causes[0][:2]) if diag.ranked_causes else None
    if top != (DB, "cpu_util"):
        errors.append(f"top cause {top}, expected db/cpu_util")
    if xml is None:
        errors.append("no maintenance action")
    else:
        try:
            target = parse_action_xml(xml).target
        except EngineError as exc:
            errors.append(f"action XML does not parse: {exc}")
        else:
            if target != DB:
                errors.append(f"action XML targets {target}, expected db")
    return errors


def check_serve(stats: dict, records_sent: int, statuses: list[int], final_top) -> list[str]:
    from availkit.scenarios import DB

    errors = []
    if stats["rejected"] or stats["accepted"] + stats["rejected"] != records_sent:
        errors.append(f"store accepted {stats['accepted']}, rejected {stats['rejected']} of {records_sent} sent")
    if stats["deduped"] or stats["late_dropped"]:
        errors.append(f"store deduped {stats['deduped']}, late-dropped {stats['late_dropped']}")
    bad = [s for s in statuses if s != 200]
    if bad:
        errors.append(f"{len(bad)} HTTP responses were not 200: {sorted(set(bad))}")
    if final_top != (DB, "cpu_util"):
        errors.append(f"final diagnosis top cause {final_top}, expected db/cpu_util")
    return errors


def check_evaluation(action) -> list[str]:
    from availkit.scenarios import DB

    if action is None:
        return ["evaluation returned no action"]
    if action.target != DB:
        return [f"action targets {action.target}, expected db"]
    return []


# --- workloads ---

def run_batch_file(seed: int, seconds: int, tracer: Tracer | None, work: Path) -> Outcome:
    """The `availkit diagnose` path on criterion 8's 100,100-line scenario."""
    import availkit.faultsim as faultsim
    import availkit.ingest as ingest
    import availkit.maintenance as maintenance
    import availkit.pipeline as pipeline
    from availkit.errors import NoCompletedInterval
    from availkit.faultsim import FaultKind
    from availkit.model import load_topology
    from availkit.scenarios import WEB, three_tier_with_fault

    # the package re-exports the availability() function under the module's name
    availability = importlib.import_module("availkit.availability")
    span = span_factory(tracer)
    settings = common.criterion8_settings()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with span("bench.setup"):
            spec = three_tier_with_fault(
                FaultKind.cpu_hog, seed, start_tick=5200, end_tick=7700, duration_ticks=7700
            )
            out = faultsim.simulate(spec, work / "batch")
            topology = load_topology(out.topology_path)
        setup_s.append(time.perf_counter() - t0)

    planned = max(3, round(seconds / BATCH_PASS_S))
    op_s, errors = [], []
    failed = 0
    stats = None
    cap = time.perf_counter() + PHASE_CAP * seconds
    for i in range(planned):
        if i >= 3 and time.perf_counter() > cap:
            break
        with span("bench.pass"):
            t0 = time.perf_counter()
            series, stats = ingest.load_metrics_file(out.metrics_path)
            diag = pipeline.diagnose(series, topology, WEB, produced_at_ms=0, **settings)
            action = maintenance.decide_action(
                diag, maintenance.default_policy(), f"act-{i + 1}", 0, cycle_s=60
            )
            xml = maintenance.serialize_action_xml(action) if action is not None else None
            reports = {}
            for node, events in availability.load_event_log(out.events_path).items():
                try:
                    reports[node] = availability.availability(events)
                except NoCompletedInterval:
                    reports[node] = None
            t1 = time.perf_counter()
        op_s.append(t1 - t0)
        pass_errors = check_batch_pass(diag, stats, xml, out.n_samples)
        if pass_errors:
            failed += 1
            errors.extend(f"pass {i}: {e}" for e in pass_errors)
    return Outcome(
        setup_s=setup_s,
        op_s=op_s,
        throughput_sps=out.n_samples / median(op_s),
        peak_rss_mb=maxrss_mb(),
        attempted=len(op_s),
        failed=failed,
        errors=errors,
        counts={
            "passes": len(op_s),
            "records_per_pass": out.n_samples,
            "records_accepted_per_pass": stats.accepted,
            "bytes_per_pass": out.metrics_path.stat().st_size,
            "services_without_completed_interval": sum(1 for r in reports.values() if r is None),
        },
        info={
            "op": "one pass: load_metrics_file -> diagnose -> decide_action -> "
                  "serialize_action_xml, plus load_event_log + availability",
            "throughput_sps": "records per pass / median pass time",
            "planned_ops": planned,
            "ingest": {"accepted": stats.accepted, "rejected": stats.rejected,
                       "deduped": stats.deduped, "late_dropped": stats.late_dropped},
        },
    )


def run_health_long(seed: int, seconds: int, tracer: Tracer | None, work: Path) -> Outcome:
    """Back-to-back maintenance evaluations with 3,000-point MSE windows."""
    import availkit.faultsim as faultsim
    from availkit import AnomalyConfig, DiagnosisSettings, EntropyConfig
    from availkit.config import EngineConfig
    from availkit.runtime import EngineRuntime
    from availkit.scenarios import degradation_spec

    span = span_factory(tracer)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with span("bench.setup"):
            spec = degradation_spec(seed, start_tick=2400, end_tick=4800, duration_ticks=4800)
            out = faultsim.simulate(spec, work / "health")
            config = EngineConfig(
                entropy=EntropyConfig(window_len=3000),
                anomaly=AnomalyConfig(z_threshold=5.0),
                diagnosis=DiagnosisSettings(baseline_n=1800, window_n=600, pc_row_stride=5),
                topology_path=str(out.topology_path),
            )
            runtime = EngineRuntime(config)
            runtime.store.load_file(out.metrics_path)
        setup_s.append(time.perf_counter() - t0)

    planned = max(3, round(seconds / HEALTH_EVAL_S))
    op_s, errors = [], []
    failed = 0
    actions = []
    cap = time.perf_counter() + PHASE_CAP * seconds
    for i in range(planned):
        if i >= 3 and time.perf_counter() > cap:
            break
        with span("bench.evaluate"):
            t0 = time.perf_counter()
            action = runtime.maintenance_evaluate()
            op_s.append(time.perf_counter() - t0)
        eval_errors = check_evaluation(action)
        if action is not None:
            actions.append(f"{action.kind.value} {action.target.service}/{action.reason_metric}")
        if eval_errors:
            failed += 1
            errors.extend(f"evaluation {i}: {e}" for e in eval_errors)
    stats = runtime.store.stats
    return Outcome(
        setup_s=setup_s,
        op_s=op_s,
        throughput_sps=len(runtime.store.keys()) * config.entropy.window_len / median(op_s),
        peak_rss_mb=maxrss_mb(),
        attempted=len(op_s),
        failed=failed,
        errors=errors,
        counts={
            "evaluations": len(op_s),
            "records_preloaded": out.n_samples,
            "records_accepted": stats.accepted,
            "bytes_preloaded": out.metrics_path.stat().st_size,
        },
        info={
            "op": "runtime.maintenance_evaluate()",
            "throughput_sps": "health-window samples (keys x window_len) per evaluation / median evaluation time",
            "planned_ops": planned,
            "actions": sorted(set(actions)),
            "ingest": {"accepted": stats.accepted, "rejected": stats.rejected,
                       "deduped": stats.deduped, "late_dropped": stats.late_dropped},
        },
    )


def encode_records(frames, tick_ms: int, start: int, stop: int) -> bytes:
    """Ticks [start, stop) in the ingestion line format, one line per metric.

    Same bytes as ingest.serialize_metric_line (set-up checks one record
    against it), built from one template per tick because the codec's
    per-sample object is too slow for half a million records in set-up.
    """
    tick_template = "".join(
        '{"ts_ms": %d, "ip": "' + k.ip + '", "service": "' + k.service
        + '", "metric": "' + k.metric + '", "value": %r}\n'
        for k in frames.columns
    )
    n_cols = len(frames.columns)
    args = [0, 0.0] * n_cols
    parts = []
    for t, row in enumerate(frames.values[start:stop].tolist(), start):
        args[0::2] = [t * tick_ms] * n_cols
        args[1::2] = row
        parts.append(tick_template % tuple(args))
    return "".join(parts).encode("utf-8")


class ServeChild:
    """The serve_child.py process and its line-JSON control pipe."""

    def __init__(self, topology_path: Path, trace: bool, cpus: set[int]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(common.HERE / "serve_child.py"),
             "--topology", str(topology_path), "--trace", str(int(trace)),
             "--cpus", ",".join(map(str, sorted(cpus)))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        hello = self._read()
        self.ingest_port = hello["ingest_port"]
        self.api_port = hello["api_port"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"serve child exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, **cmd) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def request_exit(self) -> None:
        """Ask the process to stop its servers and exit; close() reaps it."""
        if self.proc.poll() is None:
            self.proc.stdin.write(json.dumps({"cmd": "exit"}) + "\n")
            self.proc.stdin.flush()

    def close(self) -> None:
        try:
            self.request_exit()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            for pipe in (self.proc.stdin, self.proc.stdout):
                try:
                    pipe.close()
                except OSError:
                    pass


def post_diagnosis(port: int) -> tuple[int, bytes, float]:
    """One POST /diagnosis/run for the web entry: status, body, round trip."""
    body = json.dumps({"entry": {"ip": "10.0.0.1", "service": "web"}})
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=WAIT_TIMEOUT_S)
    try:
        t0 = time.perf_counter()
        conn.request("POST", "/diagnosis/run", body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        data = resp.read()
        return resp.status, data, time.perf_counter() - t0
    finally:
        conn.close()


def _request_into(port: int, result: dict) -> None:
    try:
        result["status"], _, result["rtt"] = post_diagnosis(port)
        result["end"] = time.monotonic()
    except (OSError, http.client.HTTPException) as exc:
        result["error"] = repr(exc)


def run_serve_stream(seed: int, seconds: int, tracer: Tracer | None, work: Path) -> Outcome:
    """TCP fill to store capacity, then evicting appends with a diagnosis
    client running, against a server in its own process."""
    import availkit.faultsim as faultsim
    from availkit.faultsim import FaultKind
    from availkit.ingest import serialize_metric_line
    from availkit.model import MetricSample, ServiceNode, save_topology
    from availkit.scenarios import DB, three_tier_with_fault

    span = span_factory(tracer)
    load_cpus, server_cpus = common.split_cpus()
    os.sched_setaffinity(0, load_cpus)  # this thread; the client threads inherit it
    rounds = max(4, round((seconds - SERVE_FILL_S) / SERVE_ROUND_S))
    total_ticks = FILL_TICKS + rounds * CHUNK_TICKS
    setup_s = []
    child = None
    retired = []  # earlier set-ups' servers, shutting down while the run goes on
    try:
        for _ in range(SETUP_REPEATS):
            if child is not None:
                child.request_exit()
                retired.append(child)
                child = None
            t0 = time.perf_counter()
            with span("bench.setup"):
                spec = three_tier_with_fault(
                    FaultKind.cpu_hog, seed, start_tick=total_ticks - FAULT_TICKS,
                    end_tick=total_ticks, duration_ticks=total_ticks,
                )
                frames = faultsim.simulate_frames(spec)
                topology_path = work / "topology.json"
                save_topology(spec.topology, topology_path)
                fill = encode_records(frames, spec.tick_ms, 0, FILL_TICKS)
                chunks = [
                    encode_records(frames, spec.tick_ms, FILL_TICKS + r * CHUNK_TICKS,
                                   FILL_TICKS + (r + 1) * CHUNK_TICKS)
                    for r in range(rounds)
                ]
                child = ServeChild(topology_path, tracer is not None, server_cpus)
            setup_s.append(time.perf_counter() - t0)
        n_cols = len(frames.columns)
        first_tick = "".join(
            serialize_metric_line(MetricSample(
                ts_ms=0, ip=key.ip, service=key.service, metric=key.metric,
                value=float(frames.values[0, g]),
            ))
            for g, key in enumerate(frames.columns)
        )
        if not fill.startswith(first_tick.encode("utf-8")):
            raise RuntimeError("benchmark encoder disagrees with serialize_metric_line")

        fill_records = FILL_TICKS * n_cols
        chunk_records = CHUNK_TICKS * n_cols
        statuses, rtt_s, round_s = [], [], []
        records_sent = bytes_sent = 0
        writer_active_s = 0.0
        errors = []
        with socket.create_connection(("127.0.0.1", child.ingest_port)) as sock:
            # fill: an empty store up to exactly store_capacity_per_key per key
            t0 = time.monotonic()
            sock.sendall(fill)
            records_sent += fill_records
            bytes_sent += len(fill)
            res = child.call(cmd="wait", target=records_sent, timeout=WAIT_TIMEOUT_S)
            fill_s = res["t"] - t0
            if not res["ok"]:
                errors.append(f"fill: store accounted {res['accounted']} of {records_sent}")

            # full: every append evicts; one diagnosis request starts with each
            # chunk, and the round ends when both the chunk and the response are done
            for chunk in chunks:
                result = {}
                client = threading.Thread(target=_request_into, args=(child.api_port, result))
                t0 = time.monotonic()
                client.start()
                sock.sendall(chunk)
                records_sent += chunk_records
                bytes_sent += len(chunk)
                res = child.call(cmd="wait", target=records_sent, timeout=WAIT_TIMEOUT_S)
                writer_active_s += res["t"] - t0
                client.join()
                round_s.append(max(res["t"], result.get("end", res["t"])) - t0)
                if not res["ok"]:
                    errors.append(f"full: store accounted {res['accounted']} of {records_sent}")
                if "error" in result:
                    errors.append(f"request failed: {result['error']}")
                statuses.append(result.get("status", 0))
                if "rtt" in result:
                    rtt_s.append(result["rtt"])
        # final diagnosis, after the writer stopped
        status, body, _ = post_diagnosis(child.api_port)
        statuses.append(status)
        final_top = None
        if status == 200:
            causes = json.loads(body)["ranked_causes"]
            if causes:
                final_top = (ServiceNode(causes[0]["ip"], causes[0]["service"]), causes[0]["metric"])
        stats = child.call(cmd="stats")
        child_trace = child.call(cmd="trace") if tracer else None
    finally:
        for proc in retired + [child]:
            if proc is not None:
                proc.close()

    errors += check_serve(stats, records_sent, statuses, final_top)
    # a failure is a non-200 response, a wrong final answer, or a record
    # that the store rejected or never accounted for
    failed = sum(1 for s in statuses if s != 200) + max(0, records_sent - stats["accepted"])
    if statuses[-1] == 200 and final_top != (DB, "cpu_util"):
        failed += 1
    continuation = records_sent - fill_records
    return Outcome(
        setup_s=setup_s,
        op_s=rtt_s,
        throughput_sps=chunk_records / median(round_s),
        peak_rss_mb=stats["maxrss_kb"] / 1024.0,
        attempted=records_sent + len(statuses),
        failed=failed,
        errors=errors,
        counts={
            "records_sent": records_sent,
            "records_accepted": stats["accepted"],
            "bytes_sent": bytes_sent,
            "fill_records": fill_records,
            "continuation_records": continuation,
            "rounds": rounds,
            "http_requests": len(statuses),
        },
        info={
            "op": "POST /diagnosis/run round trip during the full phase",
            "throughput_sps": "records per full-phase round / median round time",
            "round_s": round_s,
            "fill_sps": fill_records / fill_s,
            "fill_s": fill_s,
            "full_writer_sps": continuation / writer_active_s,
            "full_writer_active_s": writer_active_s,
            "ingest": {k: stats[k] for k in ("accepted", "rejected", "deduped", "late_dropped")},
        },
        child_trace=child_trace,
    )


RUNNERS = {
    "batch_file": run_batch_file,
    "serve_stream": run_serve_stream,
    "health_long": run_health_long,
}


# --- metrics ---

def as_result_metrics(values: dict, kind: str) -> dict:
    """Values in the order and units BENCHMARK.json declares for `kind`
    ("end_to_end" or "per_layer"); a mismatch is a bug in this file."""
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)[kind]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"{kind} metrics {sorted(values)} differ from BENCHMARK.json")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def end_to_end_metrics(o: Outcome) -> dict:
    return as_result_metrics({
        "setup_s": median(o.setup_s),
        "op_p50_ms": median(o.op_s) * 1000.0,
        "throughput_sps": o.throughput_sps,
        "peak_rss_mb": o.peak_rss_mb,
    }, "end_to_end")


OP_ROOTS = {"bench.pass", "bench.evaluate", "runtime.run_diagnosis"}


def _per_op(ops: list[dict], fn) -> float:
    return median([fn(op) for op in ops])


def _total(op: dict, *names: str, key: str = "total") -> float:
    return sum(op["names"][n][key] for n in names if n in op["names"])


def _layer_self(op: dict, layer: str) -> float:
    return sum(e["self"] for n, e in op["names"].items() if n.startswith(layer + "."))


def _calls(op: dict, name: str) -> int:
    entry = op["names"].get(name)
    return entry["calls"] if entry else 0


def per_layer_metrics(o: Outcome, parent_trace: dict, probe_s: float) -> dict:
    parent_ops = op_summaries(parent_trace["spans"])
    setup_ops = [op for op in parent_ops.values() if op["root"]["name"] == "bench.setup"]
    trace = o.child_trace or parent_trace
    ops_by_id = op_summaries(trace["spans"])
    ops = [ops_by_id[k] for k in sorted(ops_by_id) if ops_by_id[k]["root"]["name"] in OP_ROOTS]
    api_overhead = []
    if o.child_trace is not None:
        # requests are sequential: the k-th server-side run_diagnosis is the k-th request
        ops = ops[: len(o.op_s)]
        api_overhead = [rtt - op["root"]["dur"] for rtt, op in zip(o.op_s, ops)]
    aggregates = trace["aggregates"]

    def per_record_us(name: str) -> float:
        calls, secs = aggregates.get(name, [0, 0.0])
        return secs / calls * 1e6 if calls else 0.0

    ingest = o.info["ingest"]
    values = {
        "faultsim.simulate_s": _per_op(setup_ops, lambda op: _layer_self(op, "faultsim")),
        "ingest.load_s": _per_op(ops, lambda op: _total(op, "ingest.load_metrics_file")),
        "ingest.parse_us": per_record_us("ingest.parse_metric_line"),
        "ingest.append_fill_us": per_record_us("ingest.append_fill"),
        "ingest.append_full_us": per_record_us("ingest.append_full"),
        "ingest.snapshot_s": _per_op(ops, lambda op: _total(op, "ingest.all_series", "ingest.series_for_service")),
        "ingest.fill_sps": o.info.get("fill_sps", 0.0),
        "ingest.full_writer_sps": o.info.get("full_writer_sps", 0.0),
        "ingest.accepted": ingest["accepted"],
        "ingest.rejected": ingest["rejected"],
        "ingest.deduped": ingest["deduped"],
        "ingest.late_dropped": ingest["late_dropped"],
        "model.align_s": _per_op(ops, lambda op: _total(op, "model.align")),
        "entropy.mse_s": _per_op(ops, lambda op: _layer_self(op, "entropy")),
        "entropy.mse_calls": _per_op(ops, lambda op: _calls(op, "entropy.mse_curve")),
        "entropy.sampen_calls": _per_op(ops, lambda op: _calls(op, "entropy.sample_entropy")),
        "entropy.peak_traced_mb": trace["peak_traced_bytes"] / 2**20,
        "causal.learn_s": _per_op(ops, lambda op: _layer_self(op, "causal")),
        "causal.ci_tests": _per_op(ops, lambda op: _calls(op, "causal.fisher_z_test")),
        "rootcause.zscore_s": _per_op(ops, lambda op: _total(op, "rootcause.zscore_anomaly")),
        "rootcause.localize_s": _per_op(ops, lambda op: _total(op, "rootcause.localize")),
        "pipeline.diagnose_self_s": _per_op(ops, lambda op: _total(op, "pipeline.diagnose", key="self")),
        "runtime.refresh_health_s": _per_op(ops, lambda op: _total(op, "runtime.refresh_health")),
        "runtime.run_diagnosis_s": _per_op(ops, lambda op: _total(op, "runtime.run_diagnosis")),
        "api.overhead_ms": median(api_overhead) * 1000.0,
        "maintenance.decide_s": _per_op(ops, lambda op: _total(op, "maintenance.decide_action")),
        "maintenance.xml_s": _per_op(ops, lambda op: _total(op, "maintenance.serialize_action_xml")),
        "availability.report_s": _per_op(
            ops, lambda op: _total(op, "availability.load_event_log", "availability.availability")),
        "trace.op_p50_ms": median(o.op_s) * 1000.0,
        "trace.unattributed_share": _per_op(ops, lambda op: op["root"]["self"] / op["root"]["dur"]),
        "failed_ratio": o.failed / o.attempted,
        "host.probe_s": probe_s,
    }
    return as_result_metrics(values, "per_layer")


def layer_self_shares(o: Outcome, parent_trace: dict) -> dict:
    """Median per-op self time of each module, for the info line."""
    trace = o.child_trace or parent_trace
    ops_by_id = op_summaries(trace["spans"])
    ops = [op for op in ops_by_id.values() if op["root"]["name"] in OP_ROOTS]
    layers = sorted({n.split(".")[0] for op in ops for n in op["names"]})
    return {layer: _per_op(ops, lambda op: _layer_self(op, layer)) for layer in layers}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    common.use_checkout_sources()

    def on_deadline(signum, frame):
        raise TimeoutError(f"benchmark exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)

    import numpy

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    tracer = Tracer() if args.trace else None
    probe_before = host_probe()
    try:
        if tracer is not None:
            common.install_wrappers(tracer)
        outcome = RUNNERS[args.workload](args.seed, args.seconds, tracer, work)
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(work, ignore_errors=True)
    probe_after = host_probe()
    signal.alarm(0)

    probe = statistics.mean([probe_before, probe_after])
    op_tail, tail_pct = tail(outcome.op_s)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "counts": outcome.counts,
        "samples": {"setup": len(outcome.setup_s), "op": len(outcome.op_s)},
        "op_tail_ms": {"percentile": tail_pct, "value": op_tail * 1000.0,
                       "samples": len(outcome.op_s)},
        "op_s": outcome.op_s,
        "setup_s": outcome.setup_s,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "probe_s_before": probe_before,
            "probe_s_after": probe_after,
        },
        "errors": outcome.errors[:20],
        **outcome.info,
    }
    if tracer is not None:
        parent_trace = tracer.export()
        metrics = per_layer_metrics(outcome, parent_trace, probe)
        trace = outcome.child_trace or parent_trace
        ops = op_summaries(trace["spans"])
        if outcome.child_trace is None:
            info["counts"]["causal.ci_tests_total"] = sum(
                _calls(op, "causal.fisher_z_test") for op in ops.values())
            info["counts"]["entropy.sampen_calls_total"] = sum(
                _calls(op, "entropy.sample_entropy") for op in ops.values())
        else:
            # full-phase requests see however far the store had advanced, so
            # only the final diagnosis (fixed store content) has exact counts
            final = max(k for k, op in ops.items() if op["root"]["name"] == "runtime.run_diagnosis")
            info["counts"]["final_diagnosis.ci_tests"] = _calls(ops[final], "causal.fisher_z_test")
            info["counts"]["final_diagnosis.sampen_calls"] = _calls(ops[final], "entropy.sample_entropy")
        info["layer_self_s"] = layer_self_shares(outcome, parent_trace)
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"spans_{args.workload}_seed{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"parent": parent_trace, "child": outcome.child_trace}, fh)
    else:
        metrics = end_to_end_metrics(outcome)

    result = {
        "correct": outcome.failed == 0 and not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
