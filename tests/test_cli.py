import json
import os
import re
import selectors
import shlex
import signal
import socket
import subprocess
import sys
import urllib.request
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from availkit import cli
from availkit.bus import MethodBus
from availkit.causal import PCConfig
from availkit.cli import main
from availkit.entropy import EntropyConfig
from availkit.faultsim import FaultKind, generate_random_spec, simulate
from availkit.faultsim import save_spec
from availkit.ingest import load_metrics_file
from availkit.model import MAX_LINE_BYTES, MetricKey
from availkit.pipeline import DiagnosisSettings
from availkit.rootcause import AnomalyConfig
from availkit.scenarios import three_tier_with_fault


DEEP = b'{"a": ' + b"[" * 100_000 + b"]" * 100_000 + b"}\n"  # past the recursion limit
LONG = b"x" * 200_000  # a cell that an error line must not echo in full


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEntropyCommand:
    def test_constant_series_all_zero(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        path.write_text("".join("5.0\n" for _ in range(600)))
        code, out, _ = run_cli(
            capsys, "entropy", "--input", str(path), "--m", "2",
            "--r-fraction", "0.15", "--max-scale", "10", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert [e["value"] for e in doc["curve"]] == [0.0] * 10
        assert doc["score"] == 0.0

    def test_text_format(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        rng = np.random.default_rng(0)
        path.write_text("".join(f"{v}\n" for v in rng.normal(size=300)))
        code, out, _ = run_cli(capsys, "entropy", "--input", str(path))
        assert code == 0
        assert "scale  1:" in out and "score:" in out

    def test_ts_value_csv(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        path.write_text("".join(f"{i * 1000},{5.0}\n" for i in range(200)))
        code, out, _ = run_cli(capsys, "entropy", "--input", str(path), "--format", "json")
        assert code == 0

    def test_ts_outside_int64_is_domain_error(self, tmp_path, capsys):
        for cell in ("1e300", "inf"):
            path = tmp_path / "series.csv"
            path.write_text(f"{cell},1.0\n" + "".join(f"{i * 1000},{5.0}\n" for i in range(1, 200)))
            code, _, _ = run_cli(capsys, "entropy", "--input", str(path))
            assert code == 1

    def test_non_finite_value_is_domain_error(self, tmp_path, capsys):
        # a NaN cell used to print a fake "score: 0.000000" and exit 0
        values = np.random.default_rng(1).normal(size=200)
        with_ts = "".join(f"{i},{v}\n" for i, v in enumerate(values))
        value_only = "".join(f"{v}\n" for v in values)
        path = tmp_path / "series.csv"
        for text in (with_ts + "200,nan\n", with_ts + "200,inf\n", value_only + "nan\n"):
            path.write_text(text)
            code, out, err = run_cli(capsys, "entropy", "--input", str(path))
            assert code == 1 and "score" not in out
            assert f"{path}:201:" in err  # the offending line is named

    def test_lone_cr_ends_a_line(self, tmp_path, capsys):
        # 65 values on one "\r"-separated line used to fail as "not a number"
        lines = [f"{v}" for v in np.random.default_rng(4).normal(size=65)]
        outputs = []
        for end in ("\n", "\r", "\r\n"):
            path = tmp_path / "series.csv"
            path.write_bytes(end.join(lines + [""]).encode())
            code, out, _ = run_cli(capsys, "entropy", "--input", str(path), "--format", "json")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]
        path.write_bytes("\r".join(lines + ["x", ""]).encode())
        code, _, err = run_cli(capsys, "entropy", "--input", str(path))
        assert code == 1 and err.startswith(f"error: {path}:66:")

    def test_missing_file_is_domain_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "entropy", "--input", str(tmp_path / "nope.csv"))
        assert code == 1

    def test_out_of_bounds_m_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        path.write_text("".join(f"{i % 7}\n" for i in range(200)))
        code, _, err = run_cli(capsys, "entropy", "--input", str(path), "--m", "0")
        assert code == 1
        assert "'m'" in err and "below bound" in err

    def test_three_cell_row_is_domain_error(self, tmp_path, capsys):
        # used to be read silently as ts=1, value=2
        path = tmp_path / "series.csv"
        path.write_text("0,5\n1,2,3\n" + "".join(f"{i},{i % 5}\n" for i in range(2, 200)))
        code, out, err = run_cli(capsys, "entropy", "--input", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}:2:") and "3 cells" in err


    def test_key_picks_one_series_of_a_metrics_file(self, tmp_path, capsys):
        sim = simulate(generate_random_spec(2, 3, 1.0, seed=1, duration_ticks=200), tmp_path)
        path = sim.metrics_path
        code, out, _ = run_cli(capsys, "entropy", "--input", str(path), "--key", "10.0.0.2:svc1:m2",
                               "--format", "json")
        assert code == 0
        series = load_metrics_file(path)[0][MetricKey("10.0.0.2", "svc1", "m2")]
        assert json.loads(out) == MethodBus().run("mse", series)

        code, out, err = run_cli(capsys, "entropy", "--input", str(path), "--key", "10.0.0.2:svc1:nope")
        assert code == 1 and out == ""
        assert err == f"error: '10.0.0.2:svc1:nope' not in {path} (has 6 keys)\n"

        code, out, err = run_cli(capsys, "entropy", "--input", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path} holds 6 series; pick one with --key (e.g. 10.0.0.1:svc0:m0, ")
        assert err.count("\n") == 1


class TestPcCommand:
    def test_chain_graph(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        x = rng.normal(size=3000)
        y = 0.8 * x + rng.normal(size=3000)
        z = 0.8 * y + rng.normal(size=3000)
        path = tmp_path / "matrix.csv"
        rows = ["x,y,z"] + [f"{a},{b},{c}" for a, b, c in zip(x, y, z)]
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            capsys, "pc", "--input", str(path), "--alpha", "0.01", "--max-cond", "3",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["metrics"] == ["x", "y", "z"]
        assert sorted(doc["undirected"]) == [[0, 1], [1, 2]]
        assert doc["directed"] == []

    def test_cli_output_value_identical_to_library_call(self, tmp_path, capsys):
        from availkit.causal import PCConfig, learn_metric_graph
        from availkit.model import MetricMatrix

        rng = np.random.default_rng(9)
        x = rng.normal(size=2000)
        y = rng.normal(size=2000)
        z = 0.9 * x + 0.9 * y + rng.normal(size=2000)
        data = np.column_stack([x, y, z])
        path = tmp_path / "matrix.csv"
        path.write_text("a,b,c\n" + "\n".join(",".join(map(str, row)) for row in data) + "\n")
        code, out, _ = run_cli(capsys, "pc", "--input", str(path), "--format", "json")
        assert code == 0
        cli_doc = json.loads(out)

        direct = learn_metric_graph(
            MetricMatrix(1000, 0, ["a", "b", "c"], data), PCConfig()
        )
        want = direct.to_dict()
        want["dropped"] = list(direct.dropped)
        assert cli_doc == want

    def test_non_numeric_cell_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n# comment\n" + "".join(f"{i},{i % 3}\n" for i in range(50)) + "7,abc\n")
        code, out, err = run_cli(capsys, "pc", "--input", str(path))
        assert code == 1 and out == ""
        assert f"{path}:53:" in err and "Traceback" not in err

    def test_non_finite_cell_is_domain_error_and_empty_cell_is_absent(self, tmp_path, capsys):
        rows = "".join(f"{i},{(i * 7) % 11}\n" for i in range(50))
        path = tmp_path / "m.csv"
        path.write_text("a,b\n" + rows + "3,\n")  # an empty cell is an absent value
        code, _, _ = run_cli(capsys, "analyze", "--method", "correlation", "--input", str(path))
        assert code == 0
        for cell in ("inf", "-inf", "nan"):
            path.write_text("a,b\n" + rows + f"3,{cell}\n")
            code, out, err = run_cli(
                capsys, "analyze", "--method", "correlation", "--input", str(path)
            )
            assert code == 1 and out == ""
            assert f"{path}:52:" in err

    def test_lone_cr_ends_a_row(self, tmp_path, capsys):
        rows = ["a,b,c"] + [",".join(map(str, row)) for row in np.random.default_rng(5).normal(size=(300, 3))]
        outputs = []
        for end in ("\n", "\r"):
            path = tmp_path / "m.csv"
            path.write_bytes(end.join(rows + [""]).encode())
            code, out, _ = run_cli(capsys, "pc", "--input", str(path), "--format", "json")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        path.write_bytes("\r".join(rows + ["1,2", ""]).encode())
        code, _, err = run_cli(capsys, "pc", "--input", str(path))
        assert code == 1 and err.startswith(f"error: {path}:302: row has 2 cells")

    def test_header_only_matrix_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n# no rows\n")
        code, out, err = run_cli(capsys, "pc", "--input", str(path))
        assert code == 1 and out == ""
        assert err == f"error: {path} holds no data rows\n"

    @pytest.mark.parametrize(
        "argv", [["pc"], ["analyze", "--method", "pc"], ["analyze", "--method", "correlation"]],
        ids=["pc", "analyze", "correlation"],
    )
    def test_repeated_column_name_is_domain_error(self, tmp_path, capsys, argv):
        rng = np.random.default_rng(2)
        path = tmp_path / "m.csv"
        path.write_text("a,a,b\n" + "".join(f"{x},{y},{z}\n" for x, y, z in rng.normal(size=(200, 3))))
        code, out, err = run_cli(capsys, *argv, "--input", str(path))
        assert code == 1 and out == ""
        assert err == "error: column names must be unique, got ['a'] more than once\n"

    def test_out_of_bounds_alpha_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "matrix.csv"
        path.write_text("a,b\n" + "".join(f"{i},{i % 3}\n" for i in range(200)))
        code, _, err = run_cli(capsys, "pc", "--input", str(path), "--alpha", "5")
        assert code == 1
        assert "'alpha'" in err and "above bound" in err


class TestSimulateAndDiagnose:
    @pytest.mark.parametrize(
        "flag, value, named",
        [("--theta", "-1", "--theta"), ("--z-threshold", "0", "--z-threshold"),
         ("--alpha", "2", "--alpha"), ("--pc-stride", "0", "pc_row_stride"),
         ("--baseline", "0", "baseline_n")],
        ids=["theta", "z_threshold", "alpha", "pc_stride", "baseline"],
    )
    def test_bad_diagnose_flag_is_domain_error(self, tmp_path, capsys, flag, value, named):
        sim = simulate(generate_random_spec(2, 3, 1.0, seed=1, duration_ticks=60), tmp_path)
        code, out, err = run_cli(
            capsys, "diagnose", "--topology", str(sim.topology_path), "--metrics", str(tmp_path),
            "--entry", "10.0.0.1:svc0", flag, value,
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and named in err and "Traceback" not in err

    def test_interval_ms_flag_is_gone(self, capsys):
        # the grid is inferred from the data (pipeline.infer_interval)
        with pytest.raises(SystemExit) as exc:
            main(["diagnose", "--help"])
        assert exc.value.code == 0 and "--interval-ms" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["diagnose", "--topology", "t", "--metrics", "m", "--entry", "a:b", "--interval-ms", "1000"])
        assert exc.value.code == 2
        assert "--interval-ms" in capsys.readouterr().err

    def test_diagnose_defaults_are_the_config_defaults(self):
        args = cli.build_parser().parse_args(["diagnose", "--topology", "t", "--metrics", "m", "--entry", "a:b"])
        assert (args.alpha, args.z_threshold, args.theta, args.pc_stride) == (
            PCConfig().alpha, AnomalyConfig().z_threshold, EntropyConfig().alarm_threshold,
            DiagnosisSettings().pc_row_stride,
        )

    def test_random_simulation_writes_files(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "simulate", "--random", "--services", "3", "--metrics", "4",
            "--degree", "1.5", "--seed", "7", "--ticks", "60", "--out", str(out_dir),
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert Path(doc["metrics"]).exists()
        assert Path(doc["topology"]).exists()
        assert doc["n_samples"] == 60 * 3 * 4

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        args = ["simulate", "--random", "--services", "2", "--metrics", "3",
                "--degree", "1.0", "--seed", "5", "--ticks", "50"]
        code1, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a"))
        code2, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b"))
        assert code1 == code2 == 0
        for name in ("metrics.ndjson", "events.ndjson", "labels.ndjson", "topology.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_diagnose_finds_injected_fault(self, tmp_path, capsys):
        spec = three_tier_with_fault(FaultKind.cpu_hog, seed=0)
        sim = simulate(spec, tmp_path)
        runs = [run_cli(
            capsys, "diagnose",
            "--topology", str(sim.topology_path),
            "--metrics", str(tmp_path),
            "--entry", "10.0.0.1:web",
            "--baseline", "1200", "--window", "600",
            "--pc-stride", "5", "--z-threshold", "5", "--theta", "10",
            "--format", "json",
        ) for _ in range(2)]
        assert runs[0] == runs[1]  # the same bytes: stamped with data time, not the wall clock
        code, out, _ = runs[0]
        assert code == 0
        doc = json.loads(out)
        assert doc["produced_at_ms"] == (spec.duration_ticks - 1) * spec.tick_ms  # the file's newest ts
        top = doc["ranked_causes"][0]
        assert (top["ip"], top["service"]) == ("10.0.0.3", "db")
        pairs = [(c["service"], c["metric"]) for c in doc["ranked_causes"][:3]]
        assert ("db", "cpu_util") in pairs

    def test_diagnose_metrics_split_across_files(self, tmp_path, capsys):
        spec = three_tier_with_fault(FaultKind.cpu_hog, seed=0)
        sim = simulate(spec, tmp_path / "sim")
        lines = sim.metrics_path.read_text().splitlines(keepends=True)
        split = tmp_path / "split"
        split.mkdir()
        (split / "part-1.ndjson").write_text("".join(lines[: len(lines) // 2]))
        (split / "part-2.ndjson").write_text("".join(lines[len(lines) // 2 :]))
        docs = []
        for metrics in (sim.metrics_path, split):
            code, out, _ = run_cli(
                capsys, "diagnose",
                "--topology", str(sim.topology_path),
                "--metrics", str(metrics),
                "--entry", "10.0.0.1:web",
                "--baseline", "1200", "--window", "600",
                "--pc-stride", "5", "--z-threshold", "5", "--theta", "10",
                "--format", "json",
            )
            assert code == 0
            docs.append(json.loads(out))
        single, merged = docs
        assert merged["ranked_causes"][0] == single["ranked_causes"][0]
        assert (merged["ranked_causes"][0]["ip"], merged["ranked_causes"][0]["service"]) == ("10.0.0.3", "db")


class TestAvailabilityAndForecast:
    def test_availability_report(self, tmp_path, capsys):
        path = tmp_path / "events.ndjson"
        lines = [
            '{"ts_ms": 0, "ip": "10.0.0.3", "service": "db", "state": "up"}',
            '{"ts_ms": 1999, "ip": "10.0.0.3", "service": "db", "state": "down"}',
            '{"ts_ms": 2000, "ip": "10.0.0.3", "service": "db", "state": "up"}',
        ]
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(
            capsys, "availability", "--events", str(path), "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["reports"][0]["availability"] == pytest.approx(0.9995)

    def test_target_without_completed_interval_is_listed(self, tmp_path, capsys):
        path = tmp_path / "events.ndjson"
        lines = [
            '{"ts_ms": 0, "ip": "10.0.0.3", "service": "db", "state": "up"}',
            '{"ts_ms": 0, "ip": "10.0.0.1", "service": "web", "state": "up"}',
            '{"ts_ms": 1999, "ip": "10.0.0.3", "service": "db", "state": "down"}',
            '{"ts_ms": 2000, "ip": "10.0.0.3", "service": "db", "state": "up"}',
        ]
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "availability", "--events", str(path), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [r["target"] for r in doc["reports"]] == [{"ip": "10.0.0.3", "service": "db"}]
        assert doc["no_completed_interval"] == [
            {"target": {"ip": "10.0.0.1", "service": "web"}, "detail": "log holds no completed up interval"}
        ]
        code, out, _ = run_cli(capsys, "availability", "--events", str(path))
        assert code == 0
        assert out.splitlines()[0] == "10.0.0.1:web: log holds no completed up interval"
        assert out.splitlines()[1].startswith("10.0.0.3:db: availability=0.999500 ")
        # a named target still needs a completed interval
        code, out, err = run_cli(capsys, "availability", "--events", str(path), "--target", "10.0.0.1:web")
        assert code == 1 and out == ""
        assert err == "error: log holds no completed up interval\n"

    def test_forecast_crossing(self, tmp_path, capsys):
        path = tmp_path / "history.csv"
        path.write_text("0,0.1\n1,0.2\n2,0.3\n")
        code, out, _ = run_cli(
            capsys, "forecast", "--input", str(path), "--theta", "0.6",
            "--fit-window", "3", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "crossing"
        assert doc["crossing_ts_ms"] == pytest.approx(5.0)

    def test_forecast_theta_defaults_to_bus_default(self, tmp_path, capsys):
        path = tmp_path / "history.csv"
        path.write_text("0,0.1\n1,0.2\n2,0.3\n")
        code, out, _ = run_cli(capsys, "forecast", "--input", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["crossing_ts_ms"] == pytest.approx(9.0)  # theta 1.0

    @pytest.mark.parametrize(
        "flag, value", [("--fit-window", "1"), ("--theta", "0"), ("--theta", "-0.5")]
    )
    def test_forecast_out_of_bounds_param_is_domain_error(self, tmp_path, capsys, flag, value):
        path = tmp_path / "history.csv"
        path.write_text("0,0.1\n1,0.2\n2,0.3\n")
        code, out, err = run_cli(capsys, "forecast", "--input", str(path), flag, value)
        assert code == 1 and out == ""
        assert err.startswith("error: parameter ") and "Traceback" not in err

    def test_forecast_infinite_timestamp_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "history.csv"
        path.write_text("0,0.1\ninf,0.6\n")
        code, _, err = run_cli(capsys, "forecast", "--input", str(path), "--theta", "0.6")
        assert code == 1
        assert "history.csv:2" in err

    def test_forecast_non_finite_score_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "h.csv"
        for score in ("nan", "inf"):
            path.write_text(f"0,0.1\n1000,0.2\n2000,{score}\n")
            code, out, err = run_cli(capsys, "forecast", "--input", str(path), "--theta", "1")
            assert code == 1 and out == ""
            assert "h.csv:3" in err
        path = tmp_path / "h.ndjson"
        for score in ("NaN", "null"):
            path.write_text('{"ts_ms": 0, "score": 0.1}\n{"ts_ms": 1000, "score": %s}\n' % score)
            code, _, err = run_cli(capsys, "forecast", "--input", str(path), "--theta", "1")
            assert code == 1 and "h.ndjson:2" in err


def _method_input(command: str, path: Path) -> None:
    rng = np.random.default_rng(4)
    if command == "entropy":
        path.write_text("".join(f"{v}\n" for v in rng.normal(size=300)))
    elif command == "pc":
        x = rng.normal(size=(300, 3))
        x[:, 2] += x[:, 0]
        path.write_text("a,b,c\n" + "".join(",".join(map(str, row)) + "\n" for row in x))
    else:
        path.write_text("".join(
            json.dumps({"ts_ms": i * 1000, "score": 0.1 + 0.05 * i + 0.01 * v}) + "\n"
            for i, v in enumerate(rng.normal(size=12))
        ))


class TestMethodsAndAnalyze:
    @pytest.mark.parametrize("command, method", [
        ("entropy", "mse"), ("pc", "pc"), ("forecast", "forecast"),
    ], ids=["entropy", "pc", "forecast"])
    def test_json_equals_analyze_payload(self, tmp_path, capsys, command, method):
        path = tmp_path / "input.txt"
        _method_input(command, path)
        code, out, _ = run_cli(capsys, command, "--input", str(path), "--format", "json")
        assert code == 0
        _, analyzed, _ = run_cli(
            capsys, "analyze", "--method", method, "--input", str(path), "--format", "json"
        )
        assert json.loads(out) == json.loads(analyzed)["payload"]

    def test_method_defaults_are_the_config_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "methods", "--format", "json")
        assert code == 0
        defaults = {
            method["name"]: {name: spec["default"] for name, spec in method["params"].items()}
            for method in json.loads(out)["methods"]
        }
        econf, pconf = EntropyConfig(), PCConfig()
        assert defaults["mse"] == {"m": econf.m, "r_fraction": econf.r_fraction, "max_scale": econf.max_scale}
        assert defaults["pc"] == {"alpha": pconf.alpha, "max_cond": pconf.max_cond, "min_rows": pconf.min_rows}
        assert defaults["forecast"]["theta"] == econf.alarm_threshold

    def test_method_flags_default_to_none(self):
        # each default lives only in the method's ParamSpec
        parser = cli.build_parser()
        for command, (method, _, _) in cli.METHOD_COMMANDS.items():
            params = MethodBus().describe(method).params
            args = parser.parse_args([command, "--input", "x"])
            assert {name: getattr(args, name) for name in params} == dict.fromkeys(params)

    @pytest.mark.parametrize("argv, content", [
        (["entropy", "--input"], b"1.0\n2.0\n\xff\n"),
        (["pc", "--input"], b"a,b\n1,2\n\xfe,3\n"),
        (["forecast", "--input"], b"0,0.1\n1,0.2\n\xff\n"),
        (["availability", "--events"], b'{"ts_ms": 0, "ip": "10.0.0.1", "service": "s", "state": "up"}\n'
                                        b'{"ts_ms": 1, "ip": "10.0.0.1", "service": "s", "state": "down"}\n\xff\n'),
        (["analyze", "--method", "availability", "--input"], b"# events\n\n\xc3\n"),
    ], ids=["series", "matrix", "history", "event_log", "analyze_event_log"])
    def test_non_utf8_line_is_domain_error(self, tmp_path, capsys, argv, content):
        path = tmp_path / "input.txt"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 1 and out == ""
        assert err == f"error: {path}:3: line is not UTF-8\n"

    def test_line_over_64_kib_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "input.csv"
        path.write_bytes(b"1.0\n2.0\n" + b"1" * (MAX_LINE_BYTES + 1) + b"\n3.0\n")
        code, out, err = run_cli(capsys, "entropy", "--input", str(path))
        assert code == 1 and out == ""
        assert err == f"error: {path}:3: line longer than 65536 bytes\n"

    def test_methods_listing(self, capsys):
        code, out, _ = run_cli(capsys, "methods", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["methods"]) == 7

    def test_analyze_unknown_method(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        path.write_text("1.0\n2.0\n")
        code, _, err = run_cli(capsys, "analyze", "--method", "nope", "--input", str(path))
        assert code == 1
        assert "unknown method" in err

    def test_analyze_runs_bus_method(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        path.write_text("".join("3.0\n" for _ in range(600)))
        code, out, _ = run_cli(
            capsys, "analyze", "--method", "mse", "--input", str(path), "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["score"] == 0.0

    def test_analyze_param_override(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        path.write_text("".join("3.0\n" for _ in range(600)))
        code, out, _ = run_cli(
            capsys, "analyze", "--method", "mse", "--input", str(path),
            "--param", "max_scale=5", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["payload"]["curve"]) == 5


class TestUsageErrors:
    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["entropy", "--nope"])
        assert exc.value.code == 2

    def test_simulate_without_mode_is_domain_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "simulate", "--out", str(tmp_path))
        assert code == 1
        assert "either --spec or --random" in err

    @pytest.mark.parametrize("size", [["--ticks", "1000000000"], ["--tick-ms", str(2**62)]],
                             ids=["too_many_values", "last_ts_over_int64"])
    def test_oversized_simulation_is_domain_error(self, tmp_path, capsys, size):
        code, out, err = run_cli(capsys, "simulate", "--random", "--out", str(tmp_path), *size)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        assert list(tmp_path.iterdir()) == []


class TestJsonDocuments:
    @pytest.mark.parametrize(
        "argv, content",
        [
            (["diagnose", "--entry", "10.0.0.1:web", "--topology"], b'{"nodes": ['),
            (["diagnose", "--entry", "10.0.0.1:web", "--topology"], b'{"nodes": [{"ip": "10.0.0.1"}]}'),
            (["diagnose", "--entry", "10.0.0.1:web", "--topology"], b'{"nodes": [], "edges": [[0]]}'),
            (["diagnose", "--entry", "10.0.0.1:web", "--topology"], b'["nodes"]'),
            (["simulate", "--spec"], b'{"topology": {"nodes": ['),
            (["simulate", "--spec"], b"{}"),
            (["serve", "--listen", "127.0.0.1:0", "--config"], b'{"ingest": \xff}'),
            (["serve", "--listen", "127.0.0.1:0", "--config"], b'{"ingest": {'),
            (["diagnose", "--entry", "10.0.0.1:web", "--topology"], b'{"nodes": [], "edges": [[0, 1e999]]}'),
            (["simulate", "--spec"], b'{"topology": {"nodes": []}, "tick_ms": 1e999}'),
            (["simulate", "--spec"], b'{"topology": {"nodes": []}, "seed": 1e999}'),
            (["availability", "--events"], b'{"ts_ms": 1e999, "ip": "10.0.0.1", "service": "s", "state": "up"}'),
            (["availability", "--events"], b'{"ts_ms": 0, "ip": "10.0.0.1", "service": "s", "state": "up"}\n' + DEEP),
            (["forecast", "--input"], DEEP + b'{"ts_ms": 0, "score": 0.1}\n'),
            (["forecast", "--input"], b'{"ts_ms": 0, "score": 0.1}\n' + DEEP),
            (["forecast", "--input"], b"0,0.1\n1," + LONG + b"\n"),
            (["pc", "--input"], b"a,b\n1,2\n3," + LONG + b"\n"),
            (["availability", "--events"], b'{"ts_ms": 0, "ip": "10.0.0.1", "service": "s", "state": "up"}\n'
                                           b'{"ts_ms": 1, "ip": "' + LONG + b'"}\n'),
        ],
        ids=["truncated_topology", "node_without_service", "one_ended_edge", "topology_list",
             "truncated_spec", "spec_without_topology", "non_utf8_config", "truncated_config",
             "infinite_edge_end", "infinite_tick_ms", "infinite_seed", "infinite_event_ts",
             "deep_event", "deep_first_history_line", "deep_later_history_line",
             "long_series_line", "long_matrix_line", "long_event_line"],
    )
    def test_bad_document_is_domain_error(self, tmp_path, capsys, monkeypatch, argv, content):
        monkeypatch.setattr(cli, "EngineRuntime", lambda config: pytest.fail("config accepted"))
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        extra = {"diagnose": ["--metrics", str(tmp_path)], "simulate": ["--out", str(tmp_path)]}
        code, out, err = run_cli(capsys, *argv, str(path), *extra.get(argv[0], []))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and str(path) in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert len(err) < 1024  # a long line is quoted by a prefix and its length

    def test_metrics_file_without_records_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "m.ndjson"
        path.write_bytes(DEEP + b"not a record\n")
        code, out, err = run_cli(capsys, "forecast", "--input", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path} holds no metric records (2 rejected, the first as ")
        assert err.count("\n") == 1 and "e.g. )" not in err and len(err) < 1024

    def test_metrics_file_skips_a_long_first_line(self, tmp_path, capsys):
        # the series loader peeks at the first line; a long one marks a metrics file
        path = tmp_path / "m.ndjson"
        record = '{"ts_ms": %d, "ip": "10.0.0.1", "service": "s", "metric": "m", "value": %s}\n'
        values = np.random.default_rng(0).normal(size=300)
        path.write_bytes(LONG + b"\n" + "".join(record % (i, v) for i, v in enumerate(values)).encode())
        code, out, err = run_cli(capsys, "entropy", "--input", str(path), "--format", "json")
        assert code == 0 and err == ""
        assert len(json.loads(out)["curve"]) == 10


class TestSimulateErrors:
    def test_overflowing_spec_is_domain_error(self, tmp_path, capsys):
        # the leak's shift overflows to inf and then nan
        spec = three_tier_with_fault(FaultKind.mem_leak, seed=1, start_tick=10, end_tick=20,
                                     duration_ticks=30)
        spec.faults[0] = replace(spec.faults[0], magnitude=1e308)
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run_cli(capsys, "simulate", "--spec", str(path),
                                     "--out", str(tmp_path / "sim"))
        assert code == 1 and out == ""
        assert err.startswith("error: simulate: ") and "Traceback" not in err

    def test_overflowing_spec_reports_only_the_error(self, tmp_path):
        # numpy's overflow warnings would go to stderr ahead of the error line
        spec = three_tier_with_fault(FaultKind.mem_leak, seed=1, start_tick=10, end_tick=20,
                                     duration_ticks=30)
        spec.faults[0] = replace(spec.faults[0], magnitude=1e308)
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from availkit.cli import main; sys.exit(main(sys.argv[1:]))",
             "simulate", "--spec", str(path), "--out", str(tmp_path / "sim")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr.startswith("error: simulate: ") and proc.stderr.count("\n") == 1

    def test_misspelled_spec_key_is_domain_error(self, tmp_path, capsys):
        spec = three_tier_with_fault(FaultKind.mem_leak, seed=1, start_tick=10, end_tick=20,
                                     duration_ticks=30)
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        doc = json.loads(path.read_text())
        doc["sead"], doc["duration_tick"] = doc.pop("seed"), doc.pop("duration_ticks")
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "simulate", "--spec", str(path), "--out", str(tmp_path / "sim"))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and str(path) in err
        assert "'duration_tick'" in err and "'sead'" in err
        assert not (tmp_path / "sim").exists()


class TestServeConfig:
    @pytest.mark.parametrize(
        "doc, section",
        [
            ({"pc": {"alpha": 5}}, "'pc'"),
            ({"ingest": {"bogus": 1}}, "'ingest'"),
            ({"pc": {"standardize": True}}, "'pc'"),  # removed: PC is scale-invariant
            ([1], "JSON object"),
            ({"maintenance_cycle_s": 0}, "'maintenance_cycle_s'"),
            ({"maintenance_cycle_s": 2.7}, "'maintenance_cycle_s'"),
            ({"maintenance_cycle_s": 10**400}, "'maintenance_cycle_s'"),
            ({"ingest": {"listen_endpoint": "nope"}}, "'ingest'"),
            ({"diagnosis": {"interval_ms": 1000}}, "'diagnosis'"),  # removed: inferred from the data
        ],
        ids=["out_of_range_alpha", "unknown_ingest_field", "removed_standardize", "not_an_object",
             "zero_cycle", "fractional_cycle", "huge_cycle", "endpoint_without_port",
             "removed_interval_ms"],
    )
    def test_bad_config_is_domain_error(self, tmp_path, capsys, monkeypatch, doc, section):
        # an accepted config would start serving forever; fail instead
        monkeypatch.setattr(cli, "EngineRuntime", lambda config: pytest.fail("config accepted"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "serve", "--config", str(path),
            "--listen", "127.0.0.1:0", "--metrics-listen", "127.0.0.1:0",
        )
        assert code == 1
        assert err.startswith("error: ") and section in err

    @pytest.mark.parametrize("listen", ["a:b", "127.0.0.1:65536", "127.0.0.1"])
    def test_bad_listen_is_domain_error(self, capsys, monkeypatch, listen):
        # checked before anything starts listening
        monkeypatch.setattr(cli, "EngineRuntime", lambda config: pytest.fail("endpoint accepted"))
        monkeypatch.setattr(cli, "IngestListener", lambda *a: pytest.fail("listener started"))
        code, _, err = run_cli(capsys, "serve", "--listen", listen, "--metrics-listen", "127.0.0.1:0")
        assert code == 1
        assert err.startswith("error: --listen: ") and "0-65535" in err

    def test_bad_metrics_listen_is_domain_error(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "EngineRuntime", lambda config: pytest.fail("endpoint accepted"))
        code, _, err = run_cli(capsys, "serve", "--listen", "127.0.0.1:0", "--metrics-listen", "nope")
        assert code == 1
        assert err.startswith("error: --metrics-listen") and "0-65535" in err


README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_commands() -> list[list[str]]:
    """The argv of each availkit command in the README's Quickstart section."""
    section = README.read_text().split("## Quickstart (CLI)", 1)[1].split("\n## ", 1)[0]
    text = "".join(re.findall(r"```bash\n(.*?)```", section, re.S)).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("availkit ")]


class TestQuickstart:
    def test_readme_commands_run_as_written(self, tmp_path, capsys):
        commands = quickstart_commands()
        assert [argv[0] for argv in commands] == ["simulate", "availability", "entropy", "diagnose"]
        outputs = []
        for argv in commands:
            code, out, err = run_cli(capsys, *(arg.replace("/tmp/run", str(tmp_path)) for arg in argv))
            assert code == 0, (argv, err)
            outputs.append(out)
        simulated, availability, curve, diagnosis = outputs
        assert simulated.startswith("wrote ")
        # no service of the fault-free run goes down
        assert availability.splitlines() == [
            f"{target}: log holds no completed up interval"
            for target in ("10.0.0.1:svc0", "10.0.0.2:svc1", "10.0.0.3:svc2")
        ]
        assert curve.splitlines()[-1].startswith("score: ")
        assert diagnosis.startswith("anomalous services: none\n")


ENDPOINTS = re.compile(r"control api on ([\d.]+):(\d+), metrics listener on ([\d.]+):(\d+)\n")


class TestServeProcess:
    def test_endpoint_line_arrives_before_exit(self):
        # unbuffered output would hide a line that waits in the pipe's buffer until exit
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        argv = [sys.executable, "-m", "availkit.cli", "serve",
                "--listen", "127.0.0.1:0", "--metrics-listen", "127.0.0.1:0"]
        with subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env) as proc:
            try:
                with selectors.DefaultSelector() as sel:
                    sel.register(proc.stdout, selectors.EVENT_READ)
                    assert sel.select(timeout=30), "no endpoint line within 30 s"
                match = ENDPOINTS.fullmatch(proc.stdout.readline())
                assert match, "unexpected endpoint line"
                api_host, api_port, metrics_host, metrics_port = match.groups()
                with socket.create_connection((metrics_host, int(metrics_port)), timeout=10) as sock:
                    sock.sendall(b'{"ts_ms": 0, "ip": "10.0.0.3", "service": "db", '
                                 b'"metric": "cpu", "value": 1.0}\n')
                url = f"http://{api_host}:{api_port}/params"
                with urllib.request.urlopen(url, timeout=10) as resp:
                    assert resp.status == 200
                    assert "alpha" in json.loads(resp.read())["params"]
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=10) == 0
                assert proc.stdout.read() == "" and proc.stderr.read() == ""
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
