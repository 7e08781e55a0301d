"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q benchmark/test_benchmark.py

They show that the checker counts wrong reports as unsolved, that call
counts repeat exactly, that the tracer reaches functions imported by name,
that the benchmark refuses to run without the program's sources, and that
times are scaled by the calibration kernel timed around them.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CLI = run._import_program()


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)


def _cases(workload, tmp_path, seed=3):
    return run.CaseStream(workload, seed, tmp_path).cycle(0)


def _report(case, argv):
    """The real report of a case, and the benchmark's record of it."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        CLI.main(list(argv))
    report = json.loads(buf.getvalue())
    return run.run_case(Replay(report), case, argv), report


class Replay:
    """Stands in for algebroid.cli: prints a fixed (corrupted) report."""

    def __init__(self, report):
        self.report = report

    def main(self, argv):
        print(json.dumps(self.report))
        return 0


def _slot(cases, slot):
    return next((c, a) for c, a in cases if c.slot == slot)


def test_dropped_critical_point_is_unsolved(tmp_path):
    cases = _cases("critical", tmp_path)
    for slot in ("planted-k2-pole", "k4-deg3-poly-a"):
        case, argv = _slot(cases, slot)
        record, report = _report(case, argv)
        assert record["solved"], record
        bad = copy.deepcopy(report)
        disc = [p for p in bad["results"]["points"] if p["kind"] == "discriminant-zero"]
        bad["results"]["points"].remove(disc[0])
        record = run.run_case(Replay(bad), case, argv)
        assert not record["solved"] and not record["known_defect"]
        assert record["reason"] in ("check:wrong-critical-set", "check:wrong-number-of-points")
        # a moved point is caught too
        moved = copy.deepcopy(report)
        moved["results"]["points"][0]["location"][0] += 0.01
        assert not run.run_case(Replay(moved), case, argv)["solved"]


def test_wrong_residue_and_period_are_unsolved(tmp_path):
    cases = _cases("periods", tmp_path)
    case, argv = _slot(cases, "res-k2-2pts-a")
    record, report = _report(case, argv)
    assert record["solved"], record
    bad = copy.deepcopy(report)
    bad["results"]["centers"][0]["cycles"][0]["contour_residue"] = [0.5, 0.0]
    record = run.run_case(Replay(bad), case, argv)
    assert record["reason"] == "check:contour-residue-mismatch"
    bad["results"]["centers"][0]["cycles"][0]["residue"] = [0.5, 0.0]
    assert run.run_case(Replay(bad), case, argv)["reason"] == "check:nonzero-residue"

    case, argv = _slot(cases, "audit-k2-2pts-a")
    record, report = _report(case, argv)
    assert record["solved"], record
    bad = copy.deepcopy(report)
    bad["results"]["c_values"][1][0] += 1e-3
    assert run.run_case(Replay(bad), case, argv)["reason"] == "check:paths-disagree"
    bad = copy.deepcopy(report)
    for value in bad["results"]["c_values"]:
        value[1] += 1e-3
    assert run.run_case(Replay(bad), case, argv)["reason"] == "check:wrong-integral"


def test_refusal_and_fit_checks(tmp_path):
    cases = _cases("antiderivative", tmp_path)
    case, argv = _slot(cases, "refuse-2-roots")
    record, report = _report(case, argv)
    assert record["solved"], record
    bad = copy.deepcopy(report)
    bad["error"]["type"] = "FitNotConverged"
    assert run.run_case(Replay(bad), case, argv)["reason"] == "FitNotConverged"

    case, argv = _slot(cases, "k2-j1")
    record, report = _report(case, argv)
    assert record["solved"], record
    bad = copy.deepcopy(report)
    bad["results"]["coefficients"][-1] += " + 1/1000000"
    assert run.run_case(Replay(bad), case, argv)["reason"] == "check:wrong-coefficients"


def test_known_defects_are_named():
    rng = random.Random(0)
    for make in workloads.CYCLES.values():
        cycle = make(rng)
        assert any(c.defect for c in cycle)
        assert sum(1 for c in cycle if c.defect) / len(cycle) <= 0.125


def test_counts_repeat_exactly(tmp_path):
    ops = [_slot(_cases("antiderivative", tmp_path), "k2-j1"),
           _slot(_cases("periods", tmp_path), "res-k2-2pts-a")]
    passes = []
    for _ in range(2):
        with spans.Counter() as counter:
            records = [run.run_case(CLI, case, argv) for case, argv in ops]
        assert all(r["solved"] for r in records), records
        passes.append(dict(counter.counts))
    assert passes[0] == passes[1]
    assert passes[0]["numpy.linalg.lstsq"] > passes[0]["antideriv.fit_rational"] > 0


def test_tracer_rebinds_names_imported_elsewhere():
    import algebroid.antideriv as antideriv
    import algebroid.quad as quad
    import algebroid.surface as surface
    import algebroid.exactalg as exactalg

    original, original_disc = quad.surface_integral, exactalg.discriminant
    with spans.Tracer():
        assert antideriv.surface_integral is quad.surface_integral is not original
        assert surface.discriminant is exactalg.discriminant is not original_disc
    assert antideriv.surface_integral is quad.surface_integral is original
    assert surface.discriminant is exactalg.discriminant is original_disc


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.spans = [(0, 0.0, 10.0, -1, 0, False), (1, 1.0, 4.0, 0, 0, False),
                    (2, 2.0, 3.0, 1, 0, True)]
    tracer.names = ["op", "quad.surface_integral", "tracker.SegmentTracker.advance_to"]
    summary = tracer.summary({"both": ("quad", "tracker")})
    assert summary["functions"]["quad.surface_integral"]["self_s"] == 2.0
    assert summary["groups"]["both"] == {"self_s": 3.0, "inclusive_s": 3.0}
    assert summary["functions"]["tracker.SegmentTracker.advance_to"]["errors"] == 1
    assert summary["layers"]["quad"]["inclusive_s"] == 3.0
    assert summary["op_seconds"] == 10.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "critical", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layers = {name: {"self_s": 0.0, "inclusive_s": 0.0} for name in spans.LAYERS}
    counts = dict.fromkeys(["tracker.SegmentTracker.init", "tracker.SegmentTracker.clone",
                            "antideriv.fit_rational", "numpy.linalg.lstsq"], 0)
    layer = run.per_layer({"op_seconds": 1.0, "functions": {}, "layers": layers},
                          counts, 1, 1, 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in layer.items()]
    records = [{"seconds": 0.1, "solved": True}, {"seconds": 0.2, "solved": False}]
    e2e, _ = run.end_to_end("critical", records, [0.2, 0.3])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_clock_scales_by_kernel_around_the_interval(monkeypatch):
    import calibrate

    kernel = iter([0.02, 0.03, 0.05])
    monkeypatch.setattr(calibrate, "kernel_seconds", lambda: next(kernel))
    clock = calibrate.Clock()
    scaled, mean = clock.scale(1.0)
    assert mean == pytest.approx(0.025)
    assert scaled == pytest.approx(calibrate.REFERENCE_S / 0.025)
    scaled, mean = clock.scale(2.0)  # the kernel after one interval is before the next
    assert mean == pytest.approx(0.04)
    assert scaled == pytest.approx(2.0 * calibrate.REFERENCE_S / 0.04)
