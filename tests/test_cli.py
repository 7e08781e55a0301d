"""CLI round trips, determinism, and exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from algebroid.cli import dumps_report, load_problem, main, parse_path_json
from algebroid.errors import SchemaError

SQRT_Z = {"k": 2, "coefficients": ["0", "-z"], "base": {"z": [1, 0], "w": [1, 0]}}
RECIP_Z = {
    "k": 1,
    "coefficients": ["-1/z"],
    "base": {"z": [1, 0], "w": [1, 0]},
    "paths": {
        "upper": [{"arc": {"center": [0, 0], "radius": 1.0,
                           "theta_from": 0.0, "theta_to": math.pi}}],
        "lower": [{"arc": {"center": [0, 0], "radius": 1.0,
                           "theta_from": 0.0, "theta_to": -math.pi}}],
    },
}

# W^2 - 1/z: a pole at 0 that is also a branch point
RECIP_SQRT_Z = {"k": 2, "coefficients": ["0", "-1/z"], "base": {"z": [1, 0], "w": [1, 0]}}

# W^3 - (1 + z^2) W + z: the critical point nearest to i is 2i, at distance 1
CUBIC_TWO_POINTS = {"k": 3, "coefficients": ["0", "-(1+z^2)", "z"]}


@pytest.fixture
def sqrt_file(tmp_path):
    f = tmp_path / "sqrt.json"
    f.write_text(json.dumps(SQRT_Z))
    return str(f)


@pytest.fixture
def recip_file(tmp_path):
    f = tmp_path / "recip.json"
    f.write_text(json.dumps(RECIP_Z))
    return str(f)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_critical_command(capsys, sqrt_file):
    code, report = run_cli(capsys, "critical", sqrt_file)
    assert code == 0
    assert report["results"]["points"] == [
        {"location": [0.0, 0.0], "kind": "discriminant-zero"}
    ]


def test_fiber_command(capsys, sqrt_file):
    code, report = run_cli(capsys, "fiber", sqrt_file, "--z", "4")
    assert code == 0
    roots = report["results"]["roots"]
    assert roots[0][0] == pytest.approx(-2.0)
    assert roots[1][0] == pytest.approx(2.0)


def test_monodromy_command(capsys, sqrt_file):
    code, report = run_cli(capsys, "monodromy", sqrt_file, "--loop", "0,0,1,1")
    assert code == 0
    assert report["results"]["permutation"] == [1, 0]
    assert report["results"]["is_identity"] is False


def test_puiseux_command(capsys, sqrt_file):
    code, report = run_cli(capsys, "puiseux", sqrt_file, "--point", "0")
    assert code == 0
    cyc = report["results"]["cycles"][0]
    assert cyc["expansion"]["m"] == 2
    assert cyc["expansion"]["u"] == 1
    assert abs(complex(*cyc["expansion"]["residue"])) < 1e-9


def test_residues_command_with_contour(capsys, recip_file):
    code, report = run_cli(capsys, "residues", recip_file, "--contour-check")
    assert code == 0
    cyc = report["results"]["centers"][0]["cycles"][0]
    assert complex(*cyc["residue"]) == pytest.approx(1.0, abs=1e-9)
    assert cyc["discrepancy"] < 1e-9
    assert cyc["classification"] == "pole-element"


def test_integrate_command(capsys, sqrt_file):
    code, report = run_cli(
        capsys, "integrate", sqrt_file,
        "--path-json", '[{"line": [[1, 0], [4, 0]]}]',
    )
    assert code == 0
    assert complex(*report["results"]["value"]) == pytest.approx(14 / 3, abs=1e-9)


def test_integrate_plot_data(capsys, tmp_path, sqrt_file):
    out = tmp_path / "track.csv"
    code, _ = run_cli(
        capsys, "--plot-data", str(out), "integrate", sqrt_file,
        "--path-json", '[{"line": [[1, 0], [4, 0]]}]',
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,re_z,im_z,re_w,im_w"
    assert len(lines) > 3


def test_audit_command_detects_period(capsys, recip_file):
    code, report = run_cli(
        capsys, "audit", recip_file,
        "--target-z=-1,0", "--target-w=-1,0", "--paths", "upper,lower",
    )
    assert code == 0
    res = report["results"]
    assert res["verdict"] == "dependent"
    assert res["max_discrepancy"] == pytest.approx(2 * math.pi, abs=1e-9)


def test_audit_plot_data_one_file_per_path(capsys, tmp_path, recip_file):
    stem = tmp_path / "audit"
    code, _ = run_cli(
        capsys, "--plot-data", str(stem), "audit", recip_file,
        "--target-z=-1,0", "--target-w=-1,0", "--paths", "upper,lower",
    )
    assert code == 0
    for idx in (0, 1):
        lines = (tmp_path / f"audit.{idx}.csv").read_text().strip().splitlines()
        assert lines[0] == "t,re_z,im_z,re_w,im_w"
        assert len(lines) > 3


def test_antiderivative_command(capsys, sqrt_file):
    code, report = run_cli(
        capsys, "antiderivative", sqrt_file, "--constant", "0.66666666666666663",
    )
    assert code == 0
    coeffs = report["results"]["coefficients"]
    from algebroid.exactalg import parse_coefficient

    b1 = parse_coefficient(coeffs[0])
    b2 = parse_coefficient(coeffs[1])
    target = parse_coefficient("-(4/9)*z^3")
    assert all(abs(complex(c)) < 1e-6 for c in b1.num.coeffs) or b1.is_zero()
    diff = b2 - target
    assert diff.is_zero() or all(abs(complex(c)) < 1e-5 for c in diff.num.coeffs)


def test_family_command(capsys, sqrt_file):
    code, report = run_cli(
        capsys, "family", sqrt_file,
        "--constant", "0.66666666666666663", "--shift", "1",
    )
    assert code == 0
    fam = report["results"]["family_coefficients"]
    from algebroid.exactalg import parse_coefficient

    assert parse_coefficient(fam[0]) == parse_coefficient("-2")


def test_reports_are_byte_identical(capsys, sqrt_file):
    code1, _ = run_cli(capsys, "critical", sqrt_file)
    out1 = main(["critical", sqrt_file])
    first = capsys.readouterr().out
    main(["critical", sqrt_file])
    second = capsys.readouterr().out
    assert first == second


def test_report_reparses_as_json(capsys, sqrt_file):
    main(["puiseux", sqrt_file, "--point", "0"])
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert parsed["schema"] == "algebroid-report-v1"


def test_exit_code_missing_file(capsys):
    code = main(["critical", "/nonexistent/problem.json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"]["type"] == "FileNotFound"


def test_exit_code_schema_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"k": 2, "coefficients": ["0"]}))
    code = main(["critical", str(bad)])
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    assert report["error"]["type"] == "SchemaError"


def test_exit_code_domain_error(capsys, sqrt_file):
    # one-turn loop around 0 does not close on the surface
    code = main([
        "integrate", sqrt_file, "--loop", "0,0,1,1",
    ])
    json.loads(capsys.readouterr().out)
    assert code == 0  # open lift is fine for integrate...

    code = main(["fiber", sqrt_file, "--z", "0"])
    report = json.loads(capsys.readouterr().out)
    assert code == 7
    assert report["error"]["type"] == "NearCriticalPoint"


def test_tol_override_flag(capsys, sqrt_file):
    code, report = run_cli(
        capsys, "--tol", "quad_tol=1e-9", "integrate", sqrt_file,
        "--path-json", '[{"line": [[1, 0], [4, 0]]}]',
    )
    assert code == 0


def test_bad_tol_name(capsys, sqrt_file):
    code = main(["--tol", "nope=1", "critical", sqrt_file])
    report = json.loads(capsys.readouterr().out)
    assert code == 3


def test_quadrature_below_round_off_is_a_stall(capsys, tmp_path):
    f = tmp_path / "recip_sqrt.json"
    f.write_text(json.dumps(RECIP_SQRT_Z))
    code, report = run_cli(capsys, "--tol", "quad_tol=1e-17", "integrate", str(f),
                           "--path-json", '[{"line": [[1, 0], [-1, 0.01]]}]')
    assert code == 12
    assert report["error"]["type"] == "QuadratureStall"
    assert report["error"]["exit_code"] == 12


PROBLEM = "<problem file>"


def _schema_error_exit(capsys, tmp_path, problem, argv):
    f = tmp_path / "p.json"
    f.write_text(json.dumps(problem))  # NaN and Infinity serialize as bare literals
    code = main([str(f) if a == PROBLEM else a for a in argv])
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    assert report["error"]["type"] == "SchemaError"


def _with_arc_radius(radius):
    arc = {"arc": {"center": [0, 0], "radius": radius, "theta_from": 0.0, "theta_to": 1.0}}
    return dict(SQRT_Z, paths={"bad": [arc]})


@pytest.mark.parametrize("problem, argv", [
    (SQRT_Z, ["--tol", "quad_tol=abc", "critical", PROBLEM]),
    (SQRT_Z, ["--tol", "replace=1", "critical", PROBLEM]),
    ({"k": 0, "coefficients": []}, ["critical", PROBLEM]),
    (_with_arc_radius(0.0), ["critical", PROBLEM]),
    (_with_arc_radius(-1.0), ["critical", PROBLEM]),
    (SQRT_Z, ["monodromy", PROBLEM, "--loop", "0,0,-1,1"]),
    (SQRT_Z, ["monodromy", PROBLEM, "--loop", "0,0,1,0"]),
    (SQRT_Z, ["monodromy", PROBLEM, "--loop", "0,0,1,one"]),
    (SQRT_Z, ["monodromy", PROBLEM, "--loop", "0,0,1,1,0,0"]),
    (SQRT_Z, ["puiseux", PROBLEM, "--point", "0", "--radius", "0"]),
    (SQRT_Z, ["puiseux", PROBLEM, "--point", "0", "--radius", "-1"]),
    (SQRT_Z, ["residues", PROBLEM, "--radius", "0"]),
    (SQRT_Z, ["residues", PROBLEM, "--radius", "-1"]),
    (CUBIC_TWO_POINTS, ["puiseux", PROBLEM, "--point", "0,1", "--radius", "5"]),
    (CUBIC_TWO_POINTS, ["residues", PROBLEM, "--radius", "5"]),
    (SQRT_Z, ["puiseux", PROBLEM, "--point", "0", "--nmax", "-3"]),
    (SQRT_Z, ["puiseux", PROBLEM, "--point", "0", "--nmax", "1"]),
    (RECIP_Z, ["--tol", "n_max=0", "residues", PROBLEM]),
    # a zero margin lets the line run onto the pole at 0
    (RECIP_SQRT_Z, ["--tol", "delta_path_factor=0", "integrate", PROBLEM,
                    "--path-json", '[{"line": [[1, 0], [0, 0]]}]']),
    (SQRT_Z, ["--tol", "quad_tol=-1", "critical", PROBLEM]),
    ({"k": True, "coefficients": ["-z"], "base": {"z": [1, 0], "w": [1, 0]}}, ["critical", PROBLEM]),
    ({"k": 1, "coefficients": ["-z"], "base": {"z": [True, False], "w": [1, 0]}},
     ["critical", PROBLEM]),
    (_with_arc_radius(True), ["critical", PROBLEM]),
], ids=["tol-not-a-number", "tol-method-name", "k-zero", "arc-radius-zero",
        "arc-radius-negative", "loop-radius-negative", "loop-zero-turns",
        "loop-turns-not-a-number", "loop-anchor-at-center", "puiseux-radius-zero",
        "puiseux-radius-negative", "residues-radius-zero", "residues-radius-negative",
        "puiseux-radius-over-gap", "residues-radius-over-gap", "nmax-negative",
        "nmax-below-k", "tol-n-max-below-k", "tol-zero", "tol-negative", "k-bool",
        "json-base-bool", "json-arc-radius-bool"])
def test_malformed_input_is_a_schema_error(capsys, tmp_path, problem, argv):
    _schema_error_exit(capsys, tmp_path, problem, argv)


@pytest.mark.parametrize("problem, argv", [
    (SQRT_Z, ["fiber", PROBLEM, "--z", "nan"]),
    (SQRT_Z, ["fiber", PROBLEM, "--z", "1,inf"]),
    (dict(SQRT_Z, base={"z": [float("nan"), 0], "w": [1, 0]}), ["critical", PROBLEM]),
    (dict(SQRT_Z, paths={"bad": [{"line": [[1, 0], [float("inf"), 0]]}]}), ["critical", PROBLEM]),
    (_with_arc_radius(float("nan")), ["critical", PROBLEM]),
    (SQRT_Z, ["--tol", "residue_tol=nan", "critical", PROBLEM]),
    (SQRT_Z, ["--tol", "sv_tol=inf", "critical", PROBLEM]),
    (SQRT_Z, ["--tol", "n_max=32.7", "critical", PROBLEM]),
    (SQRT_Z, ["monodromy", PROBLEM, "--loop", "0,0,nan,1"]),
    (SQRT_Z, ["monodromy", PROBLEM, "--loop", "0,0,1,1.5"]),
    (SQRT_Z, ["puiseux", PROBLEM, "--point", "0", "--radius", "nan"]),
    (SQRT_Z, ["puiseux", PROBLEM, "--point", "0", "--radius", "inf"]),
    (SQRT_Z, ["residues", PROBLEM, "--radius", "nan"]),
    (SQRT_Z, ["residues", PROBLEM, "--radius", "inf"]),
], ids=["z-nan", "z-inf", "json-base-nan", "json-line-inf", "json-arc-radius-nan",
        "tol-nan", "tol-inf", "tol-int-fraction", "loop-nan", "loop-turns-fraction",
        "puiseux-radius-nan", "puiseux-radius-inf", "residues-radius-nan",
        "residues-radius-inf"])
def test_non_finite_or_fractional_number_is_a_schema_error(capsys, tmp_path, problem, argv):
    _schema_error_exit(capsys, tmp_path, problem, argv)


def test_integral_tolerance_accepts_integral_value(capsys, sqrt_file):
    code = main(["--tol", "n_max=16.0", "puiseux", sqrt_file, "--point", "0"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["results"]["cycles"][0]["expansion"]["m"] == 2


@pytest.mark.parametrize("n_max, code", [(2, 20), (3, 0)])
def test_principal_part_cut_by_the_window_is_a_typed_refusal(capsys, tmp_path, n_max, code):
    # W - 1/z^3 at 0: B_-3 needs n_max >= 3
    f = tmp_path / "cube.json"
    f.write_text(json.dumps({"k": 1, "coefficients": ["-1/z^3"]}))
    got, report = run_cli(capsys, "--tol", f"n_max={n_max}", "puiseux", str(f), "--point", "0")
    assert got == code
    if code:
        assert report["error"]["type"] == "PrincipalPartTruncated"
        assert "at 0j" in report["error"]["message"] and "(0,)" in report["error"]["message"]
    else:
        (cycle,) = report["results"]["cycles"]
        assert (cycle["expansion"]["u"], cycle["classification"]) == (-3, "pole-element")


def test_path_json_schema_error():
    with pytest.raises(SchemaError):
        parse_path_json([{"segment": []}])


def test_load_problem_round_trip(tmp_path):
    f = tmp_path / "p.json"
    f.write_text(json.dumps(RECIP_Z))
    problem = load_problem(str(f))
    assert problem.eq.k == 1
    assert set(problem.paths) == {"upper", "lower"}


def test_module_entry_point(tmp_path):
    f = tmp_path / "p.json"
    f.write_text(json.dumps(SQRT_Z))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "algebroid", "critical", str(f)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["command"] == "critical"


def test_dumps_report_float_formatting():
    text = dumps_report({"x": 1.0 / 3.0, "n": 3, "flag": True, "none": None})
    assert "0.33333333333333331" in text
    assert json.loads(text) == {"x": 1 / 3, "n": 3, "flag": True, "none": None}
