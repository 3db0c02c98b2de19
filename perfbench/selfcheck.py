"""Small-size self-check of the benchmark harness.

    python3 perfbench/selfcheck.py [workload ...]

1. Feeds the output checks of run.py known-good and known-bad outputs and
   requires them to accept and reject exactly those.
2. Runs each workload (default: all) at --seconds 1: twice traced and once
   untraced at one seed. Checks the result line's schema against
   BENCHMARK.json, that every run is correct, and that every count repeats
   exactly across the runs.
3. Runs run.py in a directory that holds only BENCHMARK.json and perfbench/
   and requires a non-zero exit without a result line.

Exits 0 when everything holds; prints each failure otherwise. Not part of
the tier-1 suite: it takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import common

BENCH = json.loads((common.ROOT / "BENCHMARK.json").read_text())
SEED = 7
failures: list[str] = []


def expect(cond: bool, message: str) -> None:
    if not cond:
        failures.append(message)
        print("FAIL", message)


def check_output_checks() -> None:
    import run
    from availkit.ingest import IngestStats
    from availkit.maintenance import ActionKind, MaintenanceAction, serialize_action_xml
    from availkit.rootcause import Diagnosis
    from availkit.scenarios import APP, DB, WEB

    def diag(top):
        causes = [(top[0], top[1], 9.0)] if top else []
        return Diagnosis(entry=WEB, anomalous_services={DB}, ranked_causes=causes,
                         produced_at_ms=0, evidence=[])

    def xml(target):
        return serialize_action_xml(MaintenanceAction(
            id="a", issued_at_ms=0, target=target, kind=ActionKind.restart,
            reason_metric="cpu_util", reason_score=9.0, cycle_s=60))

    good_stats = IngestStats(accepted=10)
    expect(run.check_batch_pass(diag((DB, "cpu_util")), good_stats, xml(DB), 10) == [],
           "batch check rejects a good pass")
    bad_passes = {
        "wrong top cause": (diag((DB, "latency")), good_stats, xml(DB)),
        "no cause": (diag(None), good_stats, xml(DB)),
        "rejected line": (diag((DB, "cpu_util")), IngestStats(accepted=9, rejected=1), xml(DB)),
        "XML on another service": (diag((DB, "cpu_util")), good_stats, xml(APP)),
        "no action": (diag((DB, "cpu_util")), good_stats, None),
        "unparsable XML": (diag((DB, "cpu_util")), good_stats, "<maintenance_action>"),
    }
    for label, (d, s, x) in bad_passes.items():
        expect(run.check_batch_pass(d, s, x, 10) != [], f"batch check accepts a pass with {label}")

    ok = {"accepted": 5, "rejected": 0, "deduped": 0, "late_dropped": 0}
    expect(run.check_serve(ok, 5, [200, 200], (DB, "cpu_util")) == [], "serve check rejects a good run")
    bad_runs = {
        "a non-200 response": (ok, 5, [200, 500], (DB, "cpu_util")),
        "a missing record": (ok, 6, [200], (DB, "cpu_util")),
        "a rejected record": (dict(ok, accepted=4, rejected=1), 5, [200], (DB, "cpu_util")),
        "a deduped record": (dict(ok, deduped=1), 5, [200], (DB, "cpu_util")),
        "a wrong final diagnosis": (ok, 5, [200], (APP, "cpu_util")),
    }
    for label, args in bad_runs.items():
        expect(run.check_serve(*args) != [], f"serve check accepts a run with {label}")

    good_action = MaintenanceAction("a", 0, DB, ActionKind.restart, "mem_used", 1.1, 300)
    expect(run.check_evaluation(good_action) == [], "evaluation check rejects a db action")
    expect(run.check_evaluation(None) != [], "evaluation check accepts no action")
    wrong = MaintenanceAction("a", 0, WEB, ActionKind.restart, "mem_used", 1.1, 300)
    expect(run.check_evaluation(wrong) != [], "evaluation check accepts an action on web")


def run_bench(workload: str, trace: int, cwd: Path = common.ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def check_schema(workload: str, trace: int, lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0, f"{workload}: run not correct")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{workload}: attempted {result['attempted']!r}")
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    expect(list(result["metrics"]) == [m["name"] for m in declared],
           f"{workload}: metric names differ from BENCHMARK.json")
    for m in declared:
        got = result["metrics"].get(m["name"], {})
        expect(set(got) == {"value", "unit"} and got.get("unit") == m["unit"],
               f"{workload}: {m['name']} is {got}")
        expect(isinstance(got.get("value"), (int, float)), f"{workload}: {m['name']} value")
        if not trace:
            expect(got.get("value", 0) > 0, f"{workload}: end-to-end {m['name']} is not positive")
    return json.loads(lines[-2])["info"]


def check_workload(workload: str) -> None:
    infos = []
    for trace in (1, 1, 0):
        code, lines = run_bench(workload, trace)
        expect(code == 0, f"{workload} --trace {trace}: exit code {code}")
        if len(lines) >= 2:
            infos.append(check_schema(workload, trace, lines))
    if len(infos) == 3:
        expect(infos[0]["counts"] == infos[1]["counts"],
               f"{workload}: traced counts differ: {infos[0]['counts']} vs {infos[1]['counts']}")
        untraced = infos[2]["counts"]
        expect(all(infos[0]["counts"][k] == v for k, v in untraced.items()),
               f"{workload}: untraced counts {untraced} differ from traced")
    print(f"{workload}: checked, counts {infos[0]['counts'] if infos else None}")


def check_bare_directory() -> None:
    common.HERE.joinpath("_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=common.HERE / "_work"))
    try:
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(common.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "_out"))
        code, lines = run_bench("batch_file", 0, cwd=bare)
        expect(code != 0, "run.py exits 0 without availkit sources")
        expect(not any(line.startswith('{"correct"') for line in lines),
               "run.py prints a result without availkit sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    common.use_checkout_sources()
    check_output_checks()
    check_bare_directory()
    for workload in sys.argv[1:] or [w["name"] for w in BENCH["workloads"]]:
        check_workload(workload)
    print("selfcheck:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
