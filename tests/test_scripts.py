"""The demonstration scripts run to completion and print their verdicts;
bench_summary condenses benchmark reports; replay_cases compares replays."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("bench_summary", ROOT / "scripts" / "bench_summary.py")
bench_summary = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_summary)
_SPEC = importlib.util.spec_from_file_location("replay_cases", ROOT / "scripts" / "replay_cases.py")
replay_cases = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(replay_cases)


@pytest.mark.parametrize("script, expected", [
    ("sqrt_z_walkthrough.py", ["verdict=independent", "B_2(z) = (-4/9)*z^3"]),
    ("period_counterexample.py", ["refused:"]),
])
def test_script_runs(script, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for line in expected:
        assert line in proc.stdout


def _fake_report(directory, seed, p50, solved):
    directory.mkdir()
    env = {"python": "3.11", "nproc": 2, "cpu_model": "cpu", "seed": seed}
    metrics = {"solve_s.p50": {"value": p50, "unit": "s"}}
    ops = [{"solved": s} for s in solved]
    (directory / "report.json").write_text(json.dumps({
        "workload": "critical", "environment": env, "metrics": metrics,
        "operations": {"untraced": ops}}))
    return str(directory)


def test_bench_summary_condenses_two_reports(tmp_path):
    spec = {"end_to_end": [{"name": "solve_s.p50", "unit": "s"}]}
    first = _fake_report(tmp_path / "a", 2, 0.3, [True, False, True])
    second = _fake_report(tmp_path / "b", 1, 0.1, [True, True])
    summary = bench_summary.summarize([f"parent={first}", f"parent={second}"], spec)
    entry = summary["parent"]["critical"]
    assert entry["seeds"] == [1, 2]
    assert (entry["failed"], entry["attempted"]) == (1, 5)
    assert entry["metrics"]["solve_s.p50"] == pytest.approx(
        {"unit": "s", "q1": 0.15, "median": 0.2, "q3": 0.25})
    assert entry["host"] == {"python": "3.11", "nproc": 2, "cpu_model": "cpu"}


def _replay(tmp_path, name, cases):
    path = tmp_path / name
    path.write_text(json.dumps({case: {"exit": code, "stdout": json.dumps(report)}
                                for case, (code, report) in cases.items()}))
    return str(path)


BASE = {"c/0": (0, {"value": [1.0, 2e5], "verdict": "independent", "coeffs": ["-4/9"]}),
        "c/1": (3, {"error": {"type": "SchemaError"}})}


@pytest.mark.parametrize("changed, code, shown", [
    ({}, 0, "byte-identical 2\n"),
    # 2e-10 absolute on 2e5 is 1e-15 of the number: the 1e-14 move is the largest
    ({"c/0": (0, {"value": [1.0 + 1e-14, 2e5 + 2e-10], "verdict": "independent",
                  "coeffs": ["-4/9"]})}, 0, "max(1, |x|) 9.992e-15 at c/0.value[0]"),
    ({"c/0": (0, {"value": [1.0 + 1e-12, 2e5], "verdict": "independent",
                  "coeffs": ["-4/9"]})}, 1, "at c/0.value[0]"),
    ({"c/0": (0, {"value": [1.0, 2e5], "verdict": "dependent", "coeffs": ["-4/9"]})}, 1,
     "non-numeric differences 1\n  c/0.verdict"),
    ({"c/0": (0, {"value": [1.0, 2e5], "verdict": "independent", "coeffs": ["-4/9", "1"]})}, 1,
     "non-numeric differences 1\n  c/0.coeffs"),
    ({"c/1": (12, {"error": {"type": "SchemaError"}})}, 1,
     "byte-identical 2\nexit-code differences 1\n  c/1: 3 -> 12"),
])
def test_replay_compare(tmp_path, capsys, changed, code, shown):
    a = _replay(tmp_path, "a.json", BASE)
    b = _replay(tmp_path, "b.json", dict(BASE, **changed))
    assert replay_cases.main(["compare", a, b]) == code
    out = capsys.readouterr().out
    assert out.startswith("cases 2, byte-identical ")
    assert shown in out


def test_replay_run_reads_problems_from_the_case_directory(tmp_path):
    cases = tmp_path / "critical-seed1-trace0" / "cases"
    cases.mkdir(parents=True)
    (cases / "000.json").write_text(json.dumps({"k": 2, "coefficients": ["0", "-z"]}))
    (cases / "000.argv").write_text(
        "algebroid critical benchmark/out/critical-seed1-trace0/cases/000.json\n")
    out = tmp_path / "replay.json"
    assert replay_cases.main(["run", str(ROOT), str(out), str(cases.parent)]) == 0
    (case,) = json.loads(out.read_text()).items()
    assert case[0] == "critical-seed1-trace0/000"
    assert case[1]["exit"] == 0
    assert json.loads(case[1]["stdout"])["results"]["points"][0]["location"] == [0.0, 0.0]
