"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Workload, check_report  # noqa: E402


def tiny(workload: Workload) -> Workload:
    if workload.command == "detect-curve":
        return dataclasses.replace(workload, sessions=50)
    pa_t = None if workload.pa_t is None else 400
    return dataclasses.replace(workload, pulses=2000, sessions=2, pa_t=pa_t)


def report(workload: Workload, tmp_path: Path, seed: int = 3) -> str:
    from bb84sim import cli

    out = tmp_path / "report.json"
    assert cli.main(workload.argv(seed, str(out))) == 0
    return out.read_text()


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_every_metric_with_its_unit(name, trace, capsys):
    code = run.run_workload(tiny(WORKLOADS[name]), seed=3, seconds=1,
                            trace=trace)
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3


def test_benchmark_json_matches_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untampered_report_passes(name, tmp_path):
    workload = tiny(WORKLOADS[name])
    assert check_report(workload, report(workload, tmp_path)) == []


def test_flipped_qber_is_counted_as_failed(tmp_path):
    workload = tiny(WORKLOADS["ir-long"])
    payload = json.loads(report(workload, tmp_path))
    payload["sessions"][0]["qber"] = 0.5
    errors = check_report(workload, json.dumps(payload))
    assert any("session 0: qber" in e for e in errors)


def test_curve_off_its_expectation_is_counted_as_failed(tmp_path):
    workload = tiny(WORKLOADS["detect-short"])
    payload = json.loads(report(workload, tmp_path))
    payload["curve"][-1]["detection_rate"] = 0.5
    assert check_report(workload, json.dumps(payload))


def test_report_differing_from_the_majority_is_failed():
    samples = [{"pass": "plain", "sha256": h} for h in "aaba"]
    run.tally(samples)
    assert ["error" in s for s in samples] == [False, False, True, False]


def test_tracing_leaves_the_report_unchanged(tmp_path):
    workload = tiny(WORKLOADS["oracle-pa"])
    out = tmp_path / "report.json"
    plain, fine, memory = (run.spawn(workload, 3, out, p, 60)
                           for p in ("plain", "fine", "memory"))
    assert plain["errors"] == fine["errors"] == memory["errors"] == []
    assert plain["sha256"] == fine["sha256"] == memory["sha256"]
    assert fine["absent"] == []
    assert fine["stats"]["amplification.compress"]["calls"] == 2 * 2
    assert fine["stats"]["protocol.transmit"]["calls"] == 2 * 2000
    assert memory["stats"]["amplification.compress"]["peak_mb"] > 0


def test_absent_name_is_reported_not_fatal(monkeypatch):
    gone = ("protocol.gone", "protocol", "gone")
    monkeypatch.setitem(layers.PASSES, "coarse", (gone,))
    assert layers.install("coarse").absent == ["bb84sim.protocol.gone"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ir-long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
