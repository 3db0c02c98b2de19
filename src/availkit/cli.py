"""Command line interface.

Subcommands map one-to-one onto engine operations; --format switches
between human-readable text and JSON. Exit codes: 0 success, 1 domain
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import signal
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np

from .availability import availability as availability_stats
from .availability import forecast_failure_time, load_event_log
from .api import ControlApiServer
from .bus import InputKind, MethodBus
from .causal import PCConfig
from .config import EngineConfig, load_config
from .entropy import EntropyConfig
from .errors import EngineError, MalformedRecord, UnknownMethod
from .faultsim import generate_random_spec, load_spec, simulate
from .ingest import IngestListener, load_metrics_file, parse_endpoint
from .model import MetricKey, MetricMatrix, MetricSeries, ServiceNode, load_topology
from .pipeline import DiagnosisSettings, diagnose
from .rootcause import AnomalyConfig
from .runtime import EngineRuntime


def _parse_node(text: str) -> ServiceNode:
    ip, _, service = text.partition(":")
    if not ip or not service:
        raise EngineError(f"expected ip:service, got {text!r}")
    return ServiceNode(ip, service)


def _parse_key(text: str) -> MetricKey:
    parts = text.split(":")
    if len(parts) != 3:
        raise EngineError(f"expected ip:service:metric, got {text!r}")
    return MetricKey(*parts)


def _finite(cell) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError("value is NaN or infinite")
    return value


def _load_series(path: str, key: str | None = None) -> MetricSeries:
    """One series from a CSV (value, or ts,value per line) or a metrics
    ndjson file (single key, or the one named by --key)."""
    text_path = Path(path)
    with open(text_path, "r", encoding="utf-8") as fh:
        first = ""
        for line in fh:
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                first = stripped
                break
    if first.startswith("{"):
        series_map, _ = load_metrics_file(text_path)
        if key is not None:
            wanted = _parse_key(key)
            if wanted not in series_map:
                raise EngineError(f"{key!r} not in {path} (has {len(series_map)} keys)")
            return series_map[wanted]
        if len(series_map) != 1:
            names = ", ".join(":".join(k) for k in sorted(series_map)[:5])
            raise EngineError(
                f"{path} holds {len(series_map)} series; pick one with --key (e.g. {names})"
            )
        return next(iter(series_map.values()))
    ts: list[int] = []
    values: list[float] = []
    with open(text_path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            cells = stripped.split(",")
            try:
                if len(cells) == 1:
                    values.append(_finite(cells[0]))
                    ts.append(len(ts))
                else:
                    values.append(_finite(cells[1]))
                    ts.append(int(float(cells[0])))
                    if not -(2**63) <= ts[-1] < 2**63:
                        raise ValueError("timestamp outside int64")
            except (ValueError, OverflowError) as exc:
                raise MalformedRecord(f"{path}:{i + 1}: {stripped!r}") from exc
    if not ts:
        raise EngineError(f"{path} holds no data points")
    return MetricSeries(MetricKey("0.0.0.0", "cli", "series"), ts, values)


def _load_matrix(path: str) -> MetricMatrix:
    """Header row of metric names, one row of comma-separated cells per
    tick; empty cells are absent, every other cell a finite number."""
    header: list[str] | None = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            if not line.strip() or line.startswith("#"):
                continue
            cells = [c.strip() for c in line.rstrip("\n").split(",")]
            if header is None:
                header = cells
                continue
            if len(cells) != len(header):
                raise MalformedRecord(
                    f"{path}:{i + 1}: row has {len(cells)} cells, header has {len(header)}"
                )
            try:
                rows.append([_finite(c) if c else math.nan for c in cells])
            except ValueError as exc:
                raise MalformedRecord(f"{path}:{i + 1}: {line.strip()!r}") from exc
    if header is None:
        raise EngineError(f"{path} is empty")
    return MetricMatrix(
        interval_ms=1000, start_ms=0, columns=header, values=np.array(rows, dtype=float)
    )


def _load_history(path: str) -> list[tuple[int, float]]:
    """Entropy history: ndjson {"ts_ms","score"} or CSV ts,score."""
    out: list[tuple[int, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                if stripped.startswith("{"):
                    doc = json.loads(stripped)
                    out.append((int(doc["ts_ms"]), _finite(doc["score"])))
                else:
                    ts, score = stripped.split(",")
                    out.append((int(float(ts)), _finite(score)))
            except (ValueError, TypeError, OverflowError, KeyError) as exc:
                raise MalformedRecord(f"{path}:{i + 1}: {stripped!r}") from exc
    return out


def _emit(args, doc: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(text)


def _add_format(parser) -> None:
    parser.add_argument("--format", choices=("json", "text"), default="text")


# --- subcommands ---

def cmd_entropy(args) -> int:
    series = _load_series(args.input, key=args.key)
    params = {"m": args.m, "r_fraction": args.r_fraction, "max_scale": args.max_scale}
    doc = MethodBus().run("mse", series, params).payload
    lines = [
        f"scale {e['scale']:2d}: "
        + ("undefined" if e["value"] is None else f"{e['value']:.6f}" + (" (capped)" if e["capped"] else ""))
        for e in doc["curve"]
    ]
    lines.append("score: " + ("undefined" if doc["score"] is None else f"{doc['score']:.6f}"))
    _emit(args, doc, "\n".join(lines))
    return 0


def cmd_pc(args) -> int:
    matrix = _load_matrix(args.input)
    params = {"alpha": args.alpha, "max_cond": args.max_cond, "min_rows": args.min_rows}
    doc = MethodBus().run("pc", matrix, params).payload
    metrics = doc["metrics"]
    lines = [f"metrics: {', '.join(metrics)}"]
    lines += [f"{metrics[i]} -> {metrics[j]}" for i, j in doc["directed"]]
    lines += [f"{metrics[i]} -- {metrics[j]}" for i, j in doc["undirected"]]
    if doc["dropped"]:
        lines.append(f"dropped (degenerate): {', '.join(doc['dropped'])}")
    _emit(args, doc, "\n".join(lines))
    return 0


def _load_metric_dir(path: str):
    p = Path(path)
    if p.is_dir():
        candidate = p / "metrics.ndjson"
        files = [candidate] if candidate.exists() else [
            f for f in sorted(p.glob("*.ndjson")) if f.name not in ("events.ndjson", "labels.ndjson")
        ]
        if not files:
            raise EngineError(f"no metrics files under {path}")
    else:
        files = [p]
    return load_metrics_file(*files)[0]


def cmd_diagnose(args) -> int:
    topology = load_topology(args.topology)
    series = _load_metric_dir(args.metrics)
    entry = _parse_node(args.entry)
    diag = diagnose(
        series,
        topology,
        entry,
        econf=EntropyConfig(alarm_threshold=args.theta if args.theta is not None else 1.0),
        pconf=PCConfig(alpha=args.alpha),
        aconf=AnomalyConfig(z_threshold=args.z_threshold),
        settings=DiagnosisSettings(
            baseline_n=args.baseline,
            window_n=args.window,
            interval_ms=args.interval_ms,
            pc_row_stride=args.pc_stride,
            theta=args.theta,
        ),
    )
    doc = diag.to_dict()
    lines = [
        f"anomalous services: "
        + (", ".join(n.label() for n in sorted(diag.anomalous_services)) or "none")
    ]
    for rank, (node, metric, score) in enumerate(diag.ranked_causes, start=1):
        shown = "inf" if math.isinf(score) else f"{score:.2f}"
        lines.append(f"{rank}. {node.label()} {metric} z={shown}")
    if not diag.ranked_causes:
        lines.append("no root cause candidates")
    _emit(args, doc, "\n".join(lines))
    return 0


def cmd_availability(args) -> int:
    logs = load_event_log(args.events)
    targets = [_parse_node(args.target)] if args.target else sorted(logs)
    docs = []
    lines = []
    for node in targets:
        events = logs.get(node)
        if not events:
            raise EngineError(f"no events for {node.label()}")
        report = availability_stats(events)
        docs.append(report.to_dict())
        lines.append(
            f"{node.label()}: availability={report.availability:.6f} "
            f"mttf={report.mttf_ms:.0f}ms mttr={report.mttr_ms:.0f}ms failures={report.n_failures}"
        )
    _emit(args, {"reports": docs}, "\n".join(lines))
    return 0


def cmd_forecast(args) -> int:
    history = _load_history(args.input)
    forecast = forecast_failure_time(history, theta=args.theta, fit_window=args.fit_window)
    doc = forecast.to_dict()
    if forecast.kind == "crossing":
        text = f"crossing at ts={forecast.crossing_ts_ms:.0f} ms"
    else:
        text = forecast.kind
    _emit(args, doc, text)
    return 0


def cmd_simulate(args) -> int:
    if args.spec:
        spec = load_spec(args.spec)
        if args.seed is not None:
            spec.seed = args.seed
    elif args.random:
        spec = generate_random_spec(
            n_services=args.services,
            metrics_per_service=args.metrics,
            expected_degree=args.degree,
            seed=args.seed if args.seed is not None else 0,
            duration_ticks=args.ticks,
            tick_ms=args.tick_ms,
        )
    else:
        raise EngineError("either --spec or --random is required")
    out = simulate(spec, args.out)
    doc = {
        "metrics": str(out.metrics_path),
        "events": str(out.events_path),
        "labels": str(out.labels_path),
        "topology": str(out.topology_path),
        "n_samples": out.n_samples,
        "n_ticks": out.n_ticks,
    }
    _emit(args, doc, f"wrote {out.n_samples} samples over {out.n_ticks} ticks to {args.out}")
    return 0


def cmd_methods(args) -> int:
    bus = MethodBus()
    descriptors = bus.list_methods()
    doc = {"methods": [d.to_dict() for d in descriptors]}
    lines = [f"{d.name:14s} [{d.input_kind.value}] {d.description}" for d in descriptors]
    _emit(args, doc, "\n".join(lines))
    return 0


def cmd_analyze(args) -> int:
    bus = MethodBus()
    try:
        desc = bus.describe(args.method)
    except UnknownMethod:
        raise EngineError(f"unknown method {args.method!r}")
    params = {}
    for assignment in args.param or []:
        name, _, value = assignment.partition("=")
        if not name or not value:
            raise EngineError(f"bad --param {assignment!r}, expected name=value")
        params[name] = value
    if desc.input_kind is InputKind.single_series:
        input_value = _load_series(args.input, key=args.key)
    elif desc.input_kind is InputKind.metric_matrix:
        input_value = _load_matrix(args.input)
    elif desc.input_kind is InputKind.event_log:
        logs = load_event_log(args.input)
        if args.target:
            input_value = logs.get(_parse_node(args.target), [])
        elif len(logs) == 1:
            input_value = next(iter(logs.values()))
        else:
            raise EngineError(f"{args.input} holds {len(logs)} targets; pick one with --target")
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            input_value = json.load(fh)
    report = bus.run(args.method, input_value, params)
    _emit(args, {"method": report.method, "payload": report.payload},
          json.dumps(report.payload, indent=2))
    return 0


def cmd_serve(args) -> int:
    try:
        api_host, api_port = parse_endpoint(args.listen)
    except ValueError as exc:
        raise MalformedRecord(f"--listen: {exc}") from exc
    config = load_config(args.config) if args.config else EngineConfig()
    if args.metrics_listen:
        try:
            config.ingest = replace(config.ingest, listen_endpoint=args.metrics_listen)
        except ValueError as exc:
            raise MalformedRecord(f"--metrics-listen: {exc}") from exc
    runtime = EngineRuntime(config)
    listener = IngestListener(config.ingest, runtime.store)
    listener.start()
    api = ControlApiServer(runtime, host=api_host, port=api_port)
    api.start()
    runtime.start_maintenance_loop()
    print(
        f"control api on {api.endpoint[0]}:{api.endpoint[1]}, "
        f"metrics listener on {listener.endpoint[0]}:{listener.endpoint[1]}"
    )
    stop_event = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop_event.set())
    stop_event.wait()
    runtime.stop()
    api.stop()
    listener.stop()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="availkit",
        description="Availability analysis engine: entropy health, causal metric graphs, "
        "root-cause localization, availability stats and a fault simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run ingestion listener, control API and maintenance loop")
    p.add_argument("--config", help="engine config JSON")
    p.add_argument("--listen", default="127.0.0.1:8080", help="control API host:port")
    p.add_argument("--metrics-listen", default=None, help="metrics TCP listener host:port")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("entropy", help="multi-scale entropy curve of one series")
    p.add_argument("--input", required=True, help="CSV (value or ts,value per line) or metrics ndjson")
    p.add_argument("--key", help="ip:service:metric when the input holds several series")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--r-fraction", type=float, default=0.15, dest="r_fraction")
    p.add_argument("--max-scale", type=int, default=10, dest="max_scale")
    _add_format(p)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("pc", help="learn the metric dependency graph from a matrix CSV")
    p.add_argument("--input", required=True, help="CSV with a metric-name header row")
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--max-cond", type=int, default=3, dest="max_cond")
    p.add_argument("--min-rows", type=int, default=100, dest="min_rows")
    _add_format(p)
    p.set_defaults(func=cmd_pc)

    p = sub.add_parser("diagnose", help="two-level root cause diagnosis")
    p.add_argument("--topology", required=True)
    p.add_argument("--metrics", required=True, help="metrics ndjson file or simulator output dir")
    p.add_argument("--entry", required=True, help="ip:service entry point")
    p.add_argument("--baseline", type=int, default=None, help="baseline points per series")
    p.add_argument("--window", type=int, default=None, help="detection window length")
    p.add_argument("--interval-ms", type=int, default=None, dest="interval_ms")
    p.add_argument("--pc-stride", type=int, default=1, dest="pc_stride")
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--z-threshold", type=float, default=3.0, dest="z_threshold")
    p.add_argument("--theta", type=float, default=None, help="entropy alarm threshold")
    _add_format(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("availability", help="MTTF/MTTR/availability from an event log")
    p.add_argument("--events", required=True)
    p.add_argument("--target", help="ip:service (default: all targets in the log)")
    _add_format(p)
    p.set_defaults(func=cmd_availability)

    p = sub.add_parser("forecast", help="project an entropy history to the threshold")
    p.add_argument("--input", required=True, help='ndjson {"ts_ms","score"} or CSV ts,score')
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--fit-window", type=int, default=10, dest="fit_window")
    _add_format(p)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("simulate", help="run the fault-injection simulator")
    p.add_argument("--spec", help="simulation spec JSON")
    p.add_argument("--random", action="store_true", help="generate a random spec")
    p.add_argument("--services", type=int, default=3)
    p.add_argument("--metrics", type=int, default=8)
    p.add_argument("--degree", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ticks", type=int, default=5000)
    p.add_argument("--tick-ms", type=int, default=1000, dest="tick_ms")
    p.add_argument("--out", required=True, help="output directory")
    _add_format(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("methods", help="list analysis methods on the bus")
    _add_format(p)
    p.set_defaults(func=cmd_methods)

    p = sub.add_parser("analyze", help="run one bus method over an input file")
    p.add_argument("--method", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--key", help="ip:service:metric for series inputs")
    p.add_argument("--target", help="ip:service for event-log inputs")
    p.add_argument("--param", action="append", help="name=value (repeatable)")
    _add_format(p)
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
