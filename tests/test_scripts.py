"""The demonstration scripts run to completion and print their verdicts;
step_table prints tracker step counts; bench_summary condenses benchmark
reports; replay_cases compares replays; profile_cases profiles the CLI over
benchmark cases; ab_cases times two source trees against each other, and
cold_start their cold interpreter starts."""

import importlib.util
import json
import math
import os
import re
import shutil
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
_SPEC = importlib.util.spec_from_file_location("profile_cases", ROOT / "scripts" / "profile_cases.py")
profile_cases = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(profile_cases)
_SPEC = importlib.util.spec_from_file_location("ab_cases", ROOT / "scripts" / "ab_cases.py")
ab_cases = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_cases)


@pytest.mark.parametrize("script, expected", [
    ("sqrt_z_walkthrough.py", ["verdict=independent", "B_2(z) = (-4/9)*z^3"]),
    ("period_counterexample.py", ["refused:", "has period"]),
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


def test_step_table_prints_one_row(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "step_table.py"), "--only", "4,3"],
        capture_output=True, text=True, env=env, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert header == "k degree steps seconds exit"
    k, degree, steps, seconds, code = row.split()
    assert (k, degree, code) == ("4", "3", "0")
    assert int(steps) > 0 and float(seconds) > 0
    assert list(tmp_path.iterdir()) == []  # the problem file is removed


def _fake_report(directory, seed, p50, solved):
    directory.mkdir()
    env = {"python": "3.11", "nproc": 2, "cpu_model": "cpu", "seed": seed}
    metrics = {"solve_s.p50": {"value": p50, "unit": "s"}}
    # slot "a" takes p50 seconds in this run, slot "b" ten times that
    ops = [{"solved": s, "slot": "ab"[n % 2], "seconds": p50 * (1 + 9 * (n % 2))}
           for n, s in enumerate(solved)]
    (directory / "report.json").write_text(json.dumps({
        "workload": "critical", "environment": env, "metrics": metrics,
        "operations": {"untraced": ops}}))
    return str(directory)


def test_bench_summary_condenses_two_reports(tmp_path):
    spec = {"end_to_end": [{"name": "solve_s.p50", "unit": "s", "better": "lower"}]}
    first = _fake_report(tmp_path / "a", 2, 0.3, [True, False, True])
    second = _fake_report(tmp_path / "b", 1, 0.1, [True, True])
    # change: lower on seed 2, tied on seed 1, and seed 3 has no parent run
    changed = [_fake_report(tmp_path / f"c{seed}", seed, p50, [True])
               for seed, p50 in ((2, 0.2), (1, 0.1), (3, 0.4))]
    runs = [f"parent={first}", f"parent={second}"] + [f"change={c}" for c in changed]
    for better, counts in (("lower", (1, 0, 1)), ("higher", (0, 1, 1))):
        spec["end_to_end"][0]["better"] = better
        summary = bench_summary.summarize(runs, spec)
        pairs = summary["change"]["critical"]["metrics"]["solve_s.p50"]["pairs"]
        assert (pairs["seeds"], pairs["better"], pairs["worse"], pairs["tied"]) == (2, *counts)
        assert pairs["parent_iqr"] == pytest.approx(0.1)
        assert "pairs" not in summary["parent"]["critical"]["metrics"]["solve_s.p50"]
    entry = summary["parent"]["critical"]
    assert entry["seeds"] == [1, 2]
    assert (entry["failed"], entry["attempted"]) == (1, 5)
    assert entry["metrics"]["solve_s.p50"] == pytest.approx(
        {"unit": "s", "q1": 0.15, "median": 0.2, "q3": 0.25})
    # slot medians pool the operations of both runs: a is 0.3, 0.3, 0.1; b is 3.0, 1.0
    assert entry["slot_median_s"] == pytest.approx({"a": 0.3, "b": 2.0})
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


def test_replay_compare_piped_to_head_stops_without_a_traceback(tmp_path):
    # one exit-code line per case: 5,000 lines outgrow the pipe, so compare
    # is still writing when its reader closes the pipe after one line
    cases = {f"c/{i}": (0, {}) for i in range(5000)}
    a = _replay(tmp_path, "a.json", cases)
    b = _replay(tmp_path, "b.json", {case: (1, {}) for case in cases})
    script = ROOT / "scripts" / "replay_cases.py"
    with subprocess.Popen([sys.executable, str(script), "compare", a, b],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"cases 5000, byte-identical 5000\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""


def test_replay_compare_tallies_the_exit_codes_of_each_side(tmp_path, capsys):
    a = _replay(tmp_path, "a.json", dict(BASE, **{"c/2": (19, {}), "c/3": (19, {})}))
    b = _replay(tmp_path, "b.json", dict(BASE, **{"c/2": (19, {}), "c/3": ("raised:KeyError", {})}))
    assert replay_cases.main(["compare", a, b]) == 1
    out = capsys.readouterr().out
    assert ("cases 4, byte-identical 4\n"
            "exit-code differences 1\n  c/3: 19 -> raised:KeyError\n"
            "exit codes in a: 0: 1, 3: 1, 19: 2\n"
            "exit codes in b: 0: 1, 3: 1, 19: 1, raised:KeyError: 1\n") in out


def test_replay_compare_counts_cases_per_moved_key_path(tmp_path, capsys):
    def report(residual, grid):
        return {"results": {"coefficients": ["0", "-z"],
                            "diagnostics": {"residuals": [residual, 1e-16], "grid_size": grid}}}

    a = _replay(tmp_path, "a.json", {"s/0": (0, report(1e-15, 48)), "s/1": (0, report(2e-15, 48)),
                                     "s/2": (0, report(3e-15, 48))})
    b = _replay(tmp_path, "b.json", {"s/0": (0, report(4e-15, 8)), "s/1": (0, report(2e-15, 8)),
                                     "s/2": (0, report(3e-15, 48))})
    assert replay_cases.main(["compare", a, b]) == 1
    out = capsys.readouterr().out
    assert ("key paths moved by more than 1e-13 * max(1, |x|) 1\n"
            "  results.diagnostics.grid_size: 2 cases\n") in out
    # a move within 1e-13 * max(1, |x|) is no key path of its own
    assert "residuals" not in out.split("largest")[1]


def test_replay_compare_prints_one_line_per_non_numeric_key_path(tmp_path, capsys):
    def report(message, sheets):
        return {"error": {"type": "SingleValuednessViolation", "message": message},
                "sheets": sheets}

    a = _replay(tmp_path, "a.json", {f"r/{i}": (19, report("drift", [0, "1"])) for i in range(3)})
    b = _replay(tmp_path, "b.json", {"r/0": (19, report("period", [0, "1"])),
                                     "r/1": (19, report("period", [0, "2"])),
                                     "r/2": (19, report("period", [0, "1"]))})
    assert replay_cases.main(["compare", a, b]) == 1
    out = capsys.readouterr().out
    assert ("non-numeric differences 4\n"
            "  r/0.error.message and 2 more at error.message\n"
            "  r/1.sheets[1]\n") in out


def _violation(generator, period):
    return {"error": {"type": "SingleValuednessViolation",
                      "message": f"the lift of sheet 0 around monodromy generator {generator} "
                                 f"has period {period}"}}


def test_replay_compare_reads_the_floats_inside_a_string(tmp_path, capsys):
    a = _replay(tmp_path, "a.json", {"r/0": (19, _violation(1, (11.561670942517242 - 2e-15j)))})
    b = _replay(tmp_path, "b.json", {"r/0": (19, _violation(1, (11.561670942517244 - 2e-15j)))})
    assert replay_cases.main(["compare", a, b]) == 0
    out = capsys.readouterr().out
    assert "non-numeric differences 0\n" in out
    assert "max(1, |x|) 1.536e-16 at r/0.error.message<float 0>" in out


def test_replay_compare_keeps_the_integers_of_a_string_as_text(tmp_path, capsys):
    a = _replay(tmp_path, "a.json", {"r/0": (19, _violation(1, 11.561670942517242))})
    b = _replay(tmp_path, "b.json", {"r/0": (19, _violation(2, 11.561670942517242))})
    assert replay_cases.main(["compare", a, b]) == 1
    out = capsys.readouterr().out
    assert "non-numeric differences 1\n  r/0.error.message\n" in out


def test_replay_compare_measures_a_discrepancy_against_its_c_values(tmp_path, capsys):
    # two c values near 820 each move by an ulp (1.1e-13), so their
    # discrepancy moves by 2.3e-13: nothing against the c values' scale
    def audit(c0, c1):
        d = abs(c0 - c1)
        return {"results": {"c_values": [[c0, 0.0], [c1, 0.0]],
                            "pairs": [{"first": 0, "second": 1, "discrepancy": d}],
                            "max_discrepancy": d, "verdict": "independent"}}

    c0, c1 = 820.0, 820.0 + 3e-13
    a = _replay(tmp_path, "a.json", {"p/0": (0, audit(c0, c1))})
    moved = audit(math.nextafter(c0, 0), math.nextafter(c1, 1e3))
    b = _replay(tmp_path, "b.json", {"p/0": (0, moved)})
    assert replay_cases.main(["compare", a, b]) == 0
    out = capsys.readouterr().out
    assert "key paths moved by more than 1e-13 * max(1, |x|) 0\n" in out


def _critical_case_dir(tmp_path):
    """A benchmark output directory holding one `critical` case of W^2 - z."""
    cases = tmp_path / "critical-seed1-trace0" / "cases"
    cases.mkdir(parents=True)
    (cases / "000.json").write_text(json.dumps({"k": 2, "coefficients": ["0", "-z"]}))
    (cases / "000.argv").write_text(
        "algebroid critical benchmark/out/critical-seed1-trace0/cases/000.json\n")
    return cases.parent


def test_replay_run_reads_problems_from_the_case_directory(tmp_path):
    directory = _critical_case_dir(tmp_path)
    out = tmp_path / "replay.json"
    assert replay_cases.main(["run", str(ROOT), str(out), str(directory)]) == 0
    (case,) = json.loads(out.read_text()).items()
    assert case[0] == "critical-seed1-trace0/000"
    assert case[1]["exit"] == 0
    assert json.loads(case[1]["stdout"])["results"]["points"][0]["location"] == [0.0, 0.0]


def test_replay_run_reports_the_same_inputs_for_a_relative_dir(tmp_path, monkeypatch):
    directory = _critical_case_dir(tmp_path)
    monkeypatch.chdir(tmp_path)
    for name, typed in (("abs.json", str(directory)), ("rel.json", directory.name)):
        assert replay_cases.main(["run", str(ROOT), name, typed]) == 0
    assert (tmp_path / "abs.json").read_text() == (tmp_path / "rel.json").read_text()


def test_profile_cases_profiles_the_cli_over_a_case_directory(tmp_path, capsys):
    directory = _critical_case_dir(tmp_path)
    assert profile_cases.main([str(ROOT), str(directory), "--top", "5",
                               "--callers", "critical_points"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("cases 1, raised 0\n")
    assert "Ordered by: internal time" in out
    assert "List reduced from" in out and "to 5 due to restriction <5>" in out
    assert "(critical_points)" in out.split("was called by...")[1]


def test_profile_cases_selects_callers_by_function_name(tmp_path, capsys):
    # an anchored pattern matches the name alone, not file:line(name)
    directory = _critical_case_dir(tmp_path)
    assert profile_cases.main([str(ROOT), str(directory), "--top", "1",
                               "--callers", "^critical_points$"]) == 0
    callers = capsys.readouterr().out.split("was called by...")[1]
    listed = re.findall(r"^(\S+:\d+\(\w+\))  ", callers, re.MULTILINE)
    assert len(listed) == 1 and listed[0].endswith("(critical_points)")
    assert "<-" in callers


def test_profile_cases_reports_a_directory_without_cases(tmp_path, capsys):
    (tmp_path / "cases").mkdir()
    assert profile_cases.main([str(ROOT), str(tmp_path)]) == 1
    assert capsys.readouterr().out == "cases 0\n"


def test_profile_cases_counts_the_calls_per_case_of_matching_functions(tmp_path, capsys):
    directory = _critical_case_dir(tmp_path)
    (directory / "cases" / "001.json").write_text(
        json.dumps({"k": 2, "coefficients": ["0", "-z^3"]}))
    (directory / "cases" / "001.argv").write_text(
        "algebroid critical benchmark/out/critical-seed1-trace0/cases/001.json\n")
    assert profile_cases.main([str(ROOT), str(directory), "--top", "1",
                               "--counts", "^(critical_points|fiber_at)$"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("cases 2, raised 0\n")
    counts = out.split("calls per case of the functions named like '^(critical_points|fiber_at)$'\n")[1]
    # one critical set per case; critical reads no fiber, so fiber_at is not listed
    assert re.fullmatch(r" +1\.000  surface\.py:\d+\(critical_points\)\n", counts)


def test_profile_cases_sorts_by_cumulative_time_on_request(tmp_path, capsys):
    directory = _critical_case_dir(tmp_path)
    assert profile_cases.main([str(ROOT), str(directory), "--top", "3",
                               "--sort", "cumulative"]) == 0
    out = capsys.readouterr().out
    assert "Ordered by: cumulative time" in out
    assert "to 3 due to restriction <3>" in out
    with pytest.raises(SystemExit):
        profile_cases.main([str(ROOT), str(directory), "--sort", "ncalls"])


def test_profile_cases_times_matching_functions_by_wall_clock(tmp_path, capsys):
    import algebroid.exactalg

    directory = _critical_case_dir(tmp_path)
    before = algebroid.exactalg.discriminant
    assert profile_cases.main([str(ROOT), str(directory), "--wall",
                               "^(discriminant|_bareiss|critical_points)$", "--reps", "2"]) == 0
    out = capsys.readouterr().out
    assert re.match(r"cases 1, cli\.main \d+\.\d{3} ms per case, best of 2 reps\n", out)
    assert "Ordered by" not in out  # no profiler ran
    rows = re.findall(r"^ +(\d+\.\d{3}) +(\d+\.\d)% +(\d+\.\d{3})  (\S+)$", out, re.MULTILINE)
    by_name = {where: (float(ms), float(share), float(calls)) for ms, share, calls, where in rows}
    # one critical set and one discriminant per case, whose Bezout matrix is eliminated once
    assert set(by_name) == {"exactalg.discriminant", "exactalg._bareiss", "surface.critical_points"}
    assert all(calls == 1.0 for _, _, calls in by_name.values())
    assert by_name["exactalg._bareiss"][0] <= by_name["exactalg.discriminant"][0]
    assert all(0 < share <= 100 for _, share, _ in by_name.values())
    # the wrappers are taken out again
    assert algebroid.exactalg.discriminant is before
    assert profile_cases.main([str(ROOT), str(tmp_path / "critical-seed1-trace0" / "none"),
                               "--wall", "x"]) == 1


def test_profile_cases_wall_times_the_lazily_imported_modules(tmp_path):
    # the CLI imports tracker, puiseux and quad only when a command needs
    # them; in a fresh interpreter the timers must reach them all the same
    cases = tmp_path / "periods-seed1-trace0" / "cases"
    cases.mkdir(parents=True)
    (cases / "000.json").write_text(json.dumps({"k": 2, "coefficients": ["0", "-z^3+1"]}))
    (cases / "000.argv").write_text(
        "algebroid residues benchmark/out/periods-seed1-trace0/cases/000.json --contour-check\n")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "profile_cases.py"), str(ROOT), str(cases.parent),
         "--wall", "^(_read|_step|_integrate)$", "--reps", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = re.findall(r"^ +\d+\.\d{3} +\d+\.\d% +(\d+\.\d{3})  (\S+)$", proc.stdout, re.MULTILINE)
    calls = {where: float(n) for n, where in rows}
    assert calls["tracker._read"] > 0 and calls["tracker.SegmentTracker._step"] > 0


def _ab_cases(directory, a, b) -> str:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_cases.py"), str(a), str(b),
         str(directory), "--reps", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    assert line.startswith("critical: cases 1, A median ")
    assert "per-case B/A median " in line
    return line


def test_ab_cases_times_two_copies_of_one_tree_with_identical_outputs(tmp_path):
    for name in ("a", "b", "c"):
        shutil.copytree(ROOT / "src", tmp_path / name / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "c" / "src" / "algebroid" / "cli.py"
    cli.write_text(cli.read_text().replace('"algebroid-report-v1"', '"algebroid-report-v0"'))
    directory = _critical_case_dir(tmp_path)
    assert _ab_cases(directory, tmp_path / "a", tmp_path / "b").endswith(", identical 1 of 1")
    # each tree runs its own modules: c reports another schema
    assert _ab_cases(directory, tmp_path / "a", tmp_path / "c").endswith(", identical 0 of 1")


def test_ab_cases_summarizes_each_slot_of_a_workload(tmp_path):
    runs = {"000-00-res-k2": ([1.0, 1.0], [0.5, 0.5]), "001-00-res-k2": ([2.0, 2.0], [2.0, 2.0]),
            "000-01-audit-k2": ([4.0, 4.0], [3.0, 3.0])}
    found = {"periods": {"a": {f"periods-seed1-trace0/{stem}": a for stem, (a, _) in runs.items()},
                         "b": {f"periods-seed1-trace0/{stem}": b for stem, (_, b) in runs.items()},
                         "differ": set()}}
    lines = ab_cases.summary(found, slots=True)
    assert lines == [
        "periods: cases 3, A median 2.000000 s, B median 2.000000 s, "
        "per-case B/A median 0.7500, identical 3 of 3",
        "  audit-k2: cases 1, A median 4.000000 s, B median 3.000000 s, per-case B/A median 0.7500",
        "  res-k2: cases 2, A median 1.500000 s, B median 1.250000 s, per-case B/A median 0.7500",
    ]
    assert ab_cases.summary(found) == lines[:1]
    # end to end: one slot line under the workload's, for a case named as the benchmark names them
    for name in ("a", "b"):
        shutil.copytree(ROOT / "src", tmp_path / name / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    directory = _critical_case_dir(tmp_path)
    for suffix in ("json", "argv"):
        (directory / "cases" / f"000.{suffix}").rename(directory / "cases" / f"000-00-k2.{suffix}")
    argv = directory / "cases" / "000-00-k2.argv"
    argv.write_text(argv.read_text().replace("000.json", "000-00-k2.json"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_cases.py"), str(tmp_path / "a"),
         str(tmp_path / "b"), str(directory), "--reps", "1", "--slots"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    workload, slot = proc.stdout.splitlines()
    assert workload.startswith("critical: cases 1, ") and workload.endswith(", identical 1 of 1")
    assert slot.startswith("  k2: cases 1, A median ") and "per-case B/A median " in slot


def test_only_keeps_the_cases_whose_stem_matches(tmp_path, capsys):
    directory = _critical_case_dir(tmp_path)
    for stem, coefficients in (("000-00-k2-a", ["0", "-z"]), ("001-00-k2-b", ["0", "-z^3"])):
        (directory / "cases" / f"{stem}.json").write_text(
            json.dumps({"k": 2, "coefficients": coefficients}))
        (directory / "cases" / f"{stem}.argv").write_text(
            f"algebroid critical benchmark/out/critical-seed1-trace0/cases/{stem}.json\n")
    a, plain, b = (f"critical-seed1-trace0/{stem}" for stem in ("000-00-k2-a", "000", "001-00-k2-b"))
    assert [case for case, _ in replay_cases.case_argvs([directory])] == [a, plain, b]
    assert [case for case, _ in replay_cases.case_argvs([directory], r"-b$")] == [b]
    # replay_cases run
    out = tmp_path / "replay.json"
    assert replay_cases.main(["run", str(ROOT), str(out), str(directory), "--only", "k2"]) == 0
    assert list(json.loads(out.read_text())) == [a, b]
    # profile_cases
    assert profile_cases.main([str(ROOT), str(directory), "--top", "1", "--only", "^000"]) == 0
    assert capsys.readouterr().out.startswith("cases 2, raised 0\n")
    # ab_cases
    for name in ("a", "b"):
        shutil.copytree(ROOT / "src", tmp_path / name / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_cases.py"), str(tmp_path / "a"),
         str(tmp_path / "b"), str(directory), "--reps", "1", "--only", "k2-a$"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("critical: cases 1, A median ")


def test_cold_start_times_the_import_and_one_case_of_each_subcommand(tmp_path):
    directory = _critical_case_dir(tmp_path)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cold_start.py"), str(ROOT), str(ROOT),
         str(directory), "--pairs", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    imported, critical = proc.stdout.splitlines()
    assert imported.startswith("import algebroid.cli: A median ")
    assert critical.startswith("critical: A median ")
    assert " B/A " in critical and critical.endswith(" of 1 pairs, exit 0/0")
