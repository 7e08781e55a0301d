"""The demonstration scripts run to completion and print their verdicts;
bench_summary condenses benchmark reports."""

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
