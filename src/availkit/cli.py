"""Command line interface.

Analysis subcommands run methods of the bus, whose ParamSpecs give their
flags and defaults; --format switches between human-readable text and
JSON. Exit codes: 0 success, 1 domain error, 2 usage error.
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

from .availability import load_event_log
from .api import ControlApiServer
from .bus import InputKind, MethodBus
from .causal import PCConfig
from .config import EngineConfig, load_config
from .entropy import EntropyConfig
from .errors import EngineError, MalformedRecord, NoCompletedInterval
from .faultsim import generate_random_spec, load_spec, simulate
from .ingest import IngestListener, load_metrics_file, parse_endpoint
from .model import (MetricKey, MetricMatrix, MetricSeries, ServiceNode, data_lines, load_topology,
                    quote_line)
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
    try:
        value = float(cell)
    except ValueError:  # its message repeats the cell, which may be a whole long line
        raise ValueError("not a number") from None
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _is_history(line: str) -> bool:
    """An entropy history record {"ts_ms","score"}, not a metric record."""
    try:
        return "score" in json.loads(line)
    except (ValueError, RecursionError):  # deep nesting
        return False


def _point(line: str, index: int) -> tuple[int, float]:
    """(ts, value) of a history record, a CSV ts,value row or a bare
    value, whose ts is its index among the points."""
    if line.startswith("{"):
        doc = json.loads(line)
        ts, value = int(doc["ts_ms"]), _finite(doc["score"])
    else:
        cells = line.split(",")
        if len(cells) > 2:
            raise ValueError(f"{len(cells)} cells, expected value or ts,value")
        value = _finite(cells[-1])
        ts = int(_finite(cells[0])) if len(cells) == 2 else index
    if not -(2**63) <= ts < 2**63:
        raise ValueError("timestamp outside int64")
    return ts, value


def _load_series(args) -> MetricSeries:
    """One series from a CSV (value, or ts,value per line), an entropy
    history (ndjson {"ts_ms","score"}) or a metrics ndjson file (single
    key, or the one named by --key)."""
    path = args.input
    lines = data_lines(path)
    try:
        first = next(lines, (0, ""))[1]
    except MalformedRecord:  # too long or not UTF-8: only the metrics reader reads past such a line
        first = "{"
    lines.close()
    if first.startswith("{") and not _is_history(first):
        series_map, stats = load_metrics_file(path)
        if not series_map:  # the first line was rejected, so stats holds its error
            raise EngineError(f"{path} holds no metric records ({stats.rejected} rejected, "
                              f"the first as {quote_line(stats.errors[0])})")
        key = getattr(args, "key", None)
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
    points: list[tuple[int, float]] = []
    for lineno, line in data_lines(path):
        try:
            points.append(_point(line, len(points)))
        except (ValueError, TypeError, OverflowError, KeyError, RecursionError) as exc:
            raise MalformedRecord(f"{path}:{lineno}: {quote_line(line)}: {exc}") from exc
    if not points:
        raise EngineError(f"{path} holds no data points")
    ts, values = zip(*points)
    return MetricSeries(MetricKey("0.0.0.0", "cli", "series"), ts, values)


def _load_matrix(args) -> MetricMatrix:
    """Header row of metric names, one row of comma-separated cells per
    tick; empty cells are absent, every other cell a finite number."""
    path = args.input
    lines = data_lines(path)
    _, first = next(lines, (0, None))
    if first is None:
        raise EngineError(f"{path} is empty")
    header = [c.strip() for c in first.split(",")]
    rows = []
    for lineno, line in lines:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise MalformedRecord(
                f"{path}:{lineno}: row has {len(cells)} cells, header has {len(header)}"
            )
        try:
            rows.append([_finite(c) if c else math.nan for c in cells])
        except ValueError as exc:
            raise MalformedRecord(f"{path}:{lineno}: {quote_line(line)}") from exc
    if not rows:
        raise EngineError(f"{path} holds no data rows")
    return MetricMatrix(
        interval_ms=1000, start_ms=0, columns=header, values=np.array(rows, dtype=float)
    )


def _load_events(args) -> list:
    """The events of the --target, or of the log's only target."""
    logs = load_event_log(args.input)
    if args.target:
        return logs.get(_parse_node(args.target), [])
    if len(logs) == 1:
        return next(iter(logs.values()))
    raise EngineError(f"{args.input} holds {len(logs)} targets; pick one with --target")


# one loader per bus input kind; each reads the file named by --input
LOADERS = {
    InputKind.single_series: _load_series,
    InputKind.metric_matrix: _load_matrix,
    InputKind.event_log: _load_events,
}


def _checked(flag: str, make, *args, **kwargs):
    """make(*args, **kwargs); a ValueError becomes a MalformedRecord naming the flag."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise MalformedRecord(f"{flag}: {exc}") from exc


def _emit(args, doc: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(text)


def _add_format(parser) -> None:
    parser.add_argument("--format", choices=("json", "text"), default="text")


# --- subcommands ---

def _render_mse(doc: dict) -> str:
    lines = [
        f"scale {e['scale']:2d}: "
        + ("undefined" if e["value"] is None else f"{e['value']:.6f}" + (" (capped)" if e["capped"] else ""))
        for e in doc["curve"]
    ]
    lines.append("score: " + ("undefined" if doc["score"] is None else f"{doc['score']:.6f}"))
    return "\n".join(lines)


def _render_pc(doc: dict) -> str:
    metrics = doc["metrics"]
    lines = [f"metrics: {', '.join(metrics)}"]
    lines += [f"{metrics[i]} -> {metrics[j]}" for i, j in doc["directed"]]
    lines += [f"{metrics[i]} -- {metrics[j]}" for i, j in doc["undirected"]]
    if doc["dropped"]:
        lines.append(f"dropped (degenerate): {', '.join(doc['dropped'])}")
    return "\n".join(lines)


def _render_forecast(doc: dict) -> str:
    if doc["kind"] == "crossing":
        return f"crossing at ts={doc['crossing_ts_ms']:.0f} ms"
    return doc["kind"]


# subcommand -> (bus method, --input help, text renderer); the method's
# description is the help and its parameters are the flags
METHOD_COMMANDS = {
    "entropy": ("mse", "CSV (value or ts,value per line) or metrics ndjson", _render_mse),
    "pc": ("pc", "CSV with a metric-name header row", _render_pc),
    "forecast": ("forecast", 'ndjson {"ts_ms","score"} or CSV ts,score', _render_forecast),
}


def cmd_method(args) -> int:
    method, _, render = METHOD_COMMANDS[args.command]
    bus = MethodBus()
    desc = bus.describe(method)
    params = {n: v for n in desc.params if (v := getattr(args, n)) is not None}
    doc = bus.run(method, LOADERS[desc.input_kind](args), params)
    _emit(args, doc, render(doc))
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
        econf=_checked("--theta", EntropyConfig, alarm_threshold=args.theta),
        pconf=_checked("--alpha", PCConfig, alpha=args.alpha),
        aconf=_checked("--z-threshold", AnomalyConfig, z_threshold=args.z_threshold),
        settings=_checked(
            "diagnosis settings",
            DiagnosisSettings,
            baseline_n=args.baseline,
            window_n=args.window,
            pc_row_stride=args.pc_stride,
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
    """The report of the --target, or of every target in the log; in the
    latter, a target without a completed up and down interval is listed
    as such instead of failing the command."""
    bus = MethodBus()
    logs = load_event_log(args.events)
    targets = [_parse_node(args.target)] if args.target else sorted(logs)
    docs, incomplete, lines = [], [], []
    for node in targets:
        events = logs.get(node)
        if not events:
            raise EngineError(f"no events for {node.label()}")
        try:
            doc = bus.run("availability", events)
        except NoCompletedInterval as exc:
            if args.target:
                raise
            incomplete.append({"target": {"ip": node.ip, "service": node.service}, "detail": str(exc)})
            lines.append(f"{node.label()}: {exc}")
            continue
        docs.append(doc)
        lines.append(
            f"{node.label()}: availability={doc['availability']:.6f} "
            f"mttf={doc['mttf_ms']:.0f}ms mttr={doc['mttr_ms']:.0f}ms failures={doc['n_failures']}"
        )
    _emit(args, {"reports": docs, "no_completed_interval": incomplete}, "\n".join(lines))
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
    out = _checked("simulate", simulate, spec, args.out)
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
    params = {}
    for assignment in args.param or []:
        name, _, value = assignment.partition("=")
        if not name or not value:
            raise EngineError(f"bad --param {assignment!r}, expected name=value")
        params[name] = value
    bus = MethodBus()
    input_value = LOADERS[bus.describe(args.method).input_kind](args)
    payload = bus.run(args.method, input_value, params)
    _emit(args, {"method": args.method, "payload": payload}, json.dumps(payload, indent=2))
    return 0


def cmd_serve(args) -> int:
    api_host, api_port = _checked("--listen", parse_endpoint, args.listen)
    config = load_config(args.config) if args.config else EngineConfig()
    if args.metrics_listen:
        config.ingest = _checked(
            "--metrics-listen", replace, config.ingest, listen_endpoint=args.metrics_listen
        )
    runtime = EngineRuntime(config)
    listener = IngestListener(config.ingest, runtime.store)
    listener.start()
    api = ControlApiServer(runtime, host=api_host, port=api_port)
    api.start()
    runtime.start_maintenance_loop()
    print(
        f"control api on {api.endpoint[0]}:{api.endpoint[1]}, "
        f"metrics listener on {listener.endpoint[0]}:{listener.endpoint[1]}",
        flush=True,  # a pipe would hold the line until exit
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

    bus = MethodBus()
    for name, (method, input_help, _) in METHOD_COMMANDS.items():
        desc = bus.describe(method)
        p = sub.add_parser(name, help=desc.description)
        p.add_argument("--input", required=True, help=input_help)
        if name == "entropy":
            p.add_argument("--key", help="ip:service:metric when the input holds several series")
        # no argparse default: an omitted flag takes the method's ParamSpec default
        for pname, spec in desc.params.items():
            p.add_argument(
                "--" + pname.replace("_", "-"), dest=pname,
                type={"int": int, "float": float}.get(spec.kind, str),
                help=f"default {spec.default}",
            )
        _add_format(p)
        p.set_defaults(func=cmd_method)

    p = sub.add_parser("diagnose", help="two-level root cause diagnosis")
    p.add_argument("--topology", required=True)
    p.add_argument("--metrics", required=True, help="metrics ndjson file or simulator output dir")
    p.add_argument("--entry", required=True, help="ip:service entry point")
    p.add_argument("--baseline", type=int, default=None, help="baseline points per series")
    p.add_argument("--window", type=int, default=None, help="detection window length")
    p.add_argument("--pc-stride", type=int, default=DiagnosisSettings.pc_row_stride, dest="pc_stride")
    p.add_argument("--alpha", type=float, default=PCConfig.alpha)
    p.add_argument("--z-threshold", type=float, default=AnomalyConfig.z_threshold, dest="z_threshold")
    p.add_argument("--theta", type=float, default=EntropyConfig.alarm_threshold,
                   help="entropy alarm threshold")
    _add_format(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("availability", help="MTTF/MTTR/availability from an event log")
    p.add_argument("--events", required=True)
    p.add_argument("--target", help="ip:service (default: all targets in the log)")
    _add_format(p)
    p.set_defaults(func=cmd_availability)

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
