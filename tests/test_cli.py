"""CLI round trips, determinism, and exit codes."""

import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroid import errors
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


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_plot_data_that_cannot_be_written_is_a_schema_error(capsys, tmp_path, sqrt_file, where):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "track.csv"
    code, report = run_cli(
        capsys, "--plot-data", str(out), "integrate", sqrt_file,
        "--path-json", '[{"line": [[1, 0], [4, 0]]}]',
    )
    assert code == 3
    assert report["error"]["type"] == "SchemaError"
    assert report["error"]["message"].startswith(f"--plot-data {out}: cannot be written")


def test_monodromy_plot_data_starts_at_the_loop_start(capsys, tmp_path, sqrt_file):
    out = tmp_path / "loop.csv"
    code, _ = run_cli(capsys, "--plot-data", str(out), "monodromy", sqrt_file,
                      "--loop", "0,0,1,1")
    assert code == 0
    header, first, *rest = out.read_text().strip().splitlines()
    assert header == "t,re_z,im_z,re_w,im_w"
    t, re_z, im_z, re_w, im_w = map(float, first.split(","))
    assert (t, re_z, im_z) == (0.0, 1.0, 0.0)
    assert abs(complex(re_w, im_w) ** 2 - 1) < 1e-12  # a root of W^2 - z over z = 1
    assert len(rest) > 3


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


def test_antiderivative_warns_when_the_constant_is_no_small_fraction(capsys, tmp_path):
    # W^3 - 2z from (1, 2^(1/3)) with c = 0: C = -(3/4) 2^(1/3) is irrational
    f = tmp_path / "cube.json"
    f.write_text(json.dumps({"k": 3, "coefficients": ["0", "0", "-2*z"],
                             "base": {"z": [1, 0], "w": [2 ** (1 / 3), 0]}}))
    code, report = run_cli(capsys, "antiderivative", str(f))
    assert code == 0
    (warning,) = report["warnings"]
    assert "constant of integration" in warning
    # an exact constant gives no warning
    code, report = run_cli(capsys, "antiderivative", str(f), "--constant",
                           repr(0.75 * 2 ** (1 / 3)))
    assert code == 0
    assert report["warnings"] == []


def test_family_command(capsys, sqrt_file):
    code, report = run_cli(
        capsys, "family", sqrt_file,
        "--constant", "0.66666666666666663", "--shift", "1",
    )
    assert code == 0
    fam = report["results"]["family_coefficients"]
    from algebroid.exactalg import parse_coefficient

    assert parse_coefficient(fam[0]) == parse_coefficient("-2")


def _key_paths(obj, prefix=""):
    """Every key of a report section in order; a list of objects is read
    through its first entry, written name[]."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield prefix + key
            yield from _key_paths(value, prefix + key + ".")
    elif isinstance(obj, list) and obj and isinstance(obj[0], dict):
        yield from _key_paths(obj[0], prefix[:-1] + "[].")


COMMON_INPUTS = ["problem", "k", "coefficients", "seed"]
START = ["start", "start.z", "start.w"]
MODEL = ["k", "base", "base.z", "base.w", "constant", "coefficients", "diagnostics",
         "diagnostics.residuals", "diagnostics.degrees", "diagnostics.grid_size",
         "diagnostics.single_valuedness_defect", "diagnostics.derivative_defect"]
LINE = ["--path-json", '[{"line": [[1, 0], [4, 0]]}]']
AUDIT = ["--target-z=-1,0", "--target-w=-1,0", "--paths", "upper,lower"]


@pytest.mark.parametrize("argv, inputs, results", [
    (["critical", "sqrt"], [], ["points", "points[].location", "points[].kind"]),
    (["fiber", "sqrt", "--z", "4"], ["z"], ["z", "roots"]),
    (["monodromy", "sqrt", "--loop", "0,0,1,1"], ["path", "path[].arc", "path[].arc.center",
                                                  "path[].arc.radius", "path[].arc.theta_from",
                                                  "path[].arc.theta_to"],
     ["permutation", "orbits", "is_identity"]),
    (["puiseux", "sqrt", "--point", "0"], ["point"],
     ["center", "cycles", "cycles[].sheets", "cycles[].classification", "cycles[].expansion",
      "cycles[].expansion.m", "cycles[].expansion.u", "cycles[].expansion.residue",
      "cycles[].expansion.start_sheet", "cycles[].expansion.radius",
      "cycles[].expansion.coefficients", "cycles[].expansion.coefficients[].n",
      "cycles[].expansion.coefficients[].value"]),
    (["residues", "recip", "--contour-check"], [],
     ["centers", "centers[].center", "centers[].kind", "centers[].cycles",
      "centers[].cycles[].sheets", "centers[].cycles[].m", "centers[].cycles[].u",
      "centers[].cycles[].classification", "centers[].cycles[].residue",
      "centers[].cycles[].contour_residue", "centers[].cycles[].discrepancy"]),
    (["integrate", "sqrt", *LINE], ["path", "path[].line", *START],
     ["value", "error_estimate", "endpoint", "endpoint.z", "endpoint.w", "closed_on_surface"]),
    (["audit", "recip", *AUDIT], [*START, "target", "target.z", "target.w", "paths"],
     ["c_values", "pairs", "pairs[].first", "pairs[].second", "pairs[].discrepancy",
      "max_discrepancy", "verdict", "residue_data", "residue_data[].center",
      "residue_data[].cycle", "residue_data[].m", "residue_data[].residue",
      "residue_data[].loop_period", "residue_data[].discrepancy"]),
    (["antiderivative", "sqrt", "--constant", "0.66666666666666663"], [*START, "constant"],
     MODEL),
    (["family", "sqrt", "--constant", "0.66666666666666663", "--shift", "1"],
     [*START, "constant", "shift"], [*MODEL, "family_constant", "family_coefficients"]),
], ids=["critical", "fiber", "monodromy", "puiseux", "residues", "integrate", "audit",
        "antiderivative", "family"])
def test_report_layout_is_fixed(capsys, sqrt_file, recip_file, argv, inputs, results):
    files = {"sqrt": sqrt_file, "recip": recip_file}
    code, report = run_cli(capsys, argv[0], files[argv[1]], *argv[2:])
    assert code == 0
    assert list(report) == ["schema", "command", "inputs", "results", "warnings"]
    assert list(_key_paths(report["inputs"])) == COMMON_INPUTS + inputs
    assert list(_key_paths(report["results"])) == results


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


@pytest.mark.parametrize("make, reason", [
    (lambda path: path.mkdir(), "is a directory"),
    (lambda path: path.write_bytes(b"\xff\xfe{}"), "not UTF-8"),
])
def test_unreadable_problem_file_is_a_schema_error(capsys, tmp_path, make, reason):
    problem = tmp_path / "problem.json"
    make(problem)
    code = main(["critical", str(problem)])
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    assert report["error"]["type"] == "SchemaError"
    assert str(problem) in report["error"]["message"]
    assert reason in report["error"]["message"]


# paths of W^2 - 1/z that start or end at the pole 0 of its coefficient
POLE_PATHS = {"out": [{"line": [[0, 0], [1, 0]]}], "in": [{"line": [[1, 0], [0, 0]]}],
              "around": [{"line": [[1, 0], [0, 1]]}, {"line": [[0, 1], [0, 0]]}]}


@pytest.mark.parametrize("argv", [
    ["antiderivative"],
    ["integrate", "--path", "out"],
    ["audit", "--start-z", "1", "--start-w", "1", "--target-z", "0", "--target-w", "1",
     "--paths", "in,around"],
])
def test_a_germ_at_a_coefficient_pole_is_near_a_critical_point(capsys, tmp_path, argv):
    # the base germ, or the audit's target, sits at the pole of -1/z; it is
    # refused as fiber --z 0 is, with a report
    f = tmp_path / "pole.json"
    f.write_text(json.dumps({**RECIP_SQRT_Z, "base": {"z": [0, 0], "w": [1, 0]},
                             "paths": POLE_PATHS}))
    code, report = run_cli(capsys, argv[0], str(f), *argv[1:])
    assert code == 7
    assert report["command"] == argv[0]
    assert report["error"]["type"] == "NearCriticalPoint"
    assert "pole of a coefficient" in report["error"]["message"]


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


def test_a_step_floor_above_every_step_is_a_step_underflow(capsys, sqrt_file):
    # on the unit loop of W^2 - z a step sized from its cap takes h = 0.99 / (2 pi)
    code = main(["--tol", "h_min_frac=0.9", "monodromy", sqrt_file, "--loop", "0,0,1,1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 10
    assert report["error"]["type"] == "StepUnderflow"
    assert re.search(r"near z=\(1\+0j\): h=1\.576e-01 predicts a root move of 4\.950e-01 "
                     r"against the cap 5\.000e-01 \(root separation 2\.000e\+00\)",
                     report["error"]["message"])


def test_non_finite_fiber_coefficients_are_a_root_finding_failure(capsys, tmp_path):
    # -z^5 overflows to -inf at z = 1e80: a typed refusal, not NaN roots
    f = tmp_path / "quintic.json"
    f.write_text(json.dumps({"k": 2, "coefficients": ["0", "-z^5"]}))
    code = main(["fiber", str(f), "--z", "1e80,0"])
    report = json.loads(capsys.readouterr().out)
    assert code == 6
    assert report["error"]["type"] == "RootFindingFailure"


@pytest.mark.parametrize("coeffs, power", [
    (["0", "-((2^64)^64)*z + 1"], "z^1"),  # the discriminant 4 * 2^4096 z - 4
    (["0", "1/(z^2 + (2^64)^64)"], "z^0"),  # a pole polynomial
])
def test_coefficient_beyond_float_range_is_a_root_finding_failure(capsys, tmp_path, coeffs,
                                                                   power):
    f = tmp_path / "huge.json"
    f.write_text(json.dumps({"k": 2, "coefficients": coeffs}))
    code = main(["critical", str(f)])
    report = json.loads(capsys.readouterr().out)
    assert code == 6
    assert report["error"]["type"] == "RootFindingFailure"
    assert f"coefficient of {power}" in report["error"]["message"]
    assert "beyond float range" in report["error"]["message"]


def test_power_of_a_huge_constant_is_a_schema_error(capsys, tmp_path):
    # (((2^64)^64)^64)^64 would be a 16,777,217-bit integer: refused before it is built
    f = tmp_path / "huge.json"
    f.write_text(json.dumps({"k": 2, "coefficients": ["0", "-(((2^64)^64)^64)^64*z"]}))
    start = time.perf_counter()
    code = main(["critical", str(f)])
    assert time.perf_counter() - start < 1.0
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    assert report["error"]["type"] == "SchemaError"
    assert "bits is above the limit" in report["error"]["message"]


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


def _with_paths(**paths):
    return dict(SQRT_Z, paths={name: [{"line": ends}] for name, ends in paths.items()})


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
    (RECIP_Z, ["--tol", "n_max=0", "residues", PROBLEM]),
    # a zero margin lets the line run onto the pole at 0
    (RECIP_SQRT_Z, ["--tol", "delta_path_factor=0", "integrate", PROBLEM,
                    "--path-json", '[{"line": [[1, 0], [0, 0]]}]']),
    (SQRT_Z, ["--tol", "quad_tol=-1", "critical", PROBLEM]),
    ({"k": True, "coefficients": ["-z"], "base": {"z": [1, 0], "w": [1, 0]}}, ["critical", PROBLEM]),
    ({"k": 1, "coefficients": ["-z"], "base": {"z": [True, False], "w": [1, 0]}},
     ["critical", PROBLEM]),
    (_with_arc_radius(True), ["critical", PROBLEM]),
    (SQRT_Z, ["antiderivative", PROBLEM, "--num-degree", "-1", "--den-degree", "2"]),
    (SQRT_Z, ["antiderivative", PROBLEM, "--num-degree", "2", "--den-degree", "-1"]),
    # refused before the power is computed, which would exhaust memory
    ({"k": 2, "coefficients": ["0", "-z^100000000"]}, ["critical", PROBLEM]),
    ({"k": 2, "coefficients": ["0", "-((z+1)^64)^64"]}, ["critical", PROBLEM]),
    # refused before the parser's recursion or int() can raise
    ({"k": 2, "coefficients": ["0", "-" + "(" * 1200 + "z" + ")" * 1200]},
     ["critical", PROBLEM]),
    ({"k": 2, "coefficients": ["0", "-" + "7" * 5000 + "*z"]}, ["critical", PROBLEM]),
    # paths the numeric layer refuses with a bare ValueError
    (SQRT_Z, ["monodromy", PROBLEM, "--path-json", "[]"]),
    (_with_paths(open=[[1, 0], [2, 0]]), ["monodromy", PROBLEM, "--path", "open"]),
    (_with_paths(far=[[3, 0], [4, 0]]), ["integrate", PROBLEM, "--path", "far"]),
    (_with_paths(far=[[3, 0], [4, 0]], near=[[1, 0], [4, 0]]),
     ["audit", PROBLEM, "--target-z=4", "--target-w=2", "--paths", "far,near"]),
    (_with_paths(short=[[1, 0], [3, 0]], near=[[1, 0], [4, 0]]),
     ["audit", PROBLEM, "--target-z=4", "--target-w=2", "--paths", "near,short"]),
    (dict(SQRT_Z, paths={"empty": [], "near": [{"line": [[1, 0], [4, 0]]}]}),
     ["audit", PROBLEM, "--target-z=4", "--target-w=2", "--paths", "near,empty"]),
    # an audit over fewer than two paths has no verdict to give
    (RECIP_Z, ["audit", PROBLEM, "--target-z=-1,0", "--target-w=-1,0", "--paths=,"]),
    (RECIP_Z, ["audit", PROBLEM, "--target-z=-1,0", "--target-w=-1,0", "--paths=upper"]),
    (RECIP_Z, ["audit", PROBLEM, "--target-z=-1,0", "--target-w=-1,0",
               "--paths=upper,upper"]),
], ids=["tol-not-a-number", "tol-method-name", "k-zero", "arc-radius-zero",
        "arc-radius-negative", "loop-radius-negative", "loop-zero-turns",
        "loop-turns-not-a-number", "loop-anchor-at-center", "puiseux-radius-zero",
        "puiseux-radius-negative", "residues-radius-zero", "residues-radius-negative",
        "puiseux-radius-over-gap", "residues-radius-over-gap", "tol-n-max-below-k",
        "tol-zero", "tol-negative", "k-bool", "json-base-bool", "json-arc-radius-bool",
        "num-degree-negative", "den-degree-negative", "exponent-above-cap",
        "nested-power-above-degree-cap", "parentheses-too-deep", "integer-literal-too-long",
        "monodromy-empty-path", "monodromy-open-path", "integrate-path-off-start",
        "audit-path-off-start", "audit-path-off-target", "audit-empty-path-off-target",
        "audit-no-paths", "audit-one-path", "audit-one-distinct-path"])
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


# W^2 - 1/z with two paths from its base to the germ (4, 1/2)
RECIP_SQRT_PATHS = dict(RECIP_SQRT_Z, paths={
    "direct": [{"line": [[1, 0], [4, 0]]}],
    "bent": [{"line": [[1, 0], [2, 1]]}, {"line": [[2, 1], [4, 0]]}],
})
AUDIT_FLAGS = ["--target-z=4", "--target-w=0.5", "--paths=direct,bent"]


@pytest.mark.parametrize("n_max", ["1100", "8193"])
@pytest.mark.parametrize("argv", [["audit", *AUDIT_FLAGS], ["antiderivative"],
                                  ["family", "--shift", "1"]],
                         ids=["audit", "antiderivative", "family"])
def test_a_window_that_cannot_be_sampled_is_a_schema_error_on_every_command(
        capsys, tmp_path, monkeypatch, argv, n_max):
    # the Puiseux sampler refuses the window itself, reached through the
    # audit's residue lifts, before it samples anything; antiderivative and
    # family take no Puiseux expansion, so no window is theirs to refuse, and
    # they give the results of the default window
    from algebroid import puiseux

    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(puiseux, "_walk_turns", no_walk)
    f = tmp_path / "p.json"
    f.write_text(json.dumps(RECIP_SQRT_PATHS))
    code, report = run_cli(capsys, "--tol", f"n_max={n_max}", argv[0], str(f), *argv[1:])
    if argv[0] != "audit":
        assert code == 0
        assert report["results"] == run_cli(capsys, argv[0], str(f), *argv[1:])[1]["results"]
        return
    assert code == 3
    assert report["error"]["type"] == "SchemaError"
    assert report["error"]["message"].startswith(f"n_max {n_max} ")


def test_a_window_that_leaves_float_range_is_a_schema_error(capsys, sqrt_file):
    # 1100 |ln 0.5| > 700: eps^(n/m) would overflow at the default radius 0.5
    code, report = run_cli(capsys, "--tol", "n_max=1100", "puiseux", sqrt_file, "--point", "0")
    assert code == 3
    assert report["error"]["type"] == "SchemaError"
    assert report["error"]["message"].startswith("n_max 1100 takes")


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


def _fresh_interpreter(*args):
    """A new interpreter run with this checkout's src/ first on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_module_entry_point(tmp_path):
    f = tmp_path / "p.json"
    f.write_text(json.dumps(SQRT_Z))
    proc = _fresh_interpreter("-m", "algebroid", "critical", str(f))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["command"] == "critical"


def test_main_reuses_one_parser_and_carries_nothing_over(capsys, sqrt_file):
    import algebroid.cli as cli

    calls = [
        ["critical", sqrt_file],
        ["critical", sqrt_file, "--no-such-flag"],  # an argparse error
        ["--tol", "n_max=40", "puiseux", sqrt_file, "--point", "0"],
        ["puiseux", sqrt_file, "--point", "0"],
    ]

    def outcome(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        out = capsys.readouterr()
        return code, out.out, out.err

    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    cli._build_parser.cache_clear()
    reused = [outcome(argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    assert reused == fresh
    assert fresh[1][0] == ("SystemExit", 2)
    # n_max shows in the puiseux report, so a --tol carried over would too
    assert fresh[2][1] != fresh[3][1]


def test_import_builds_no_parser():
    code = "import algebroid.cli as c; print(c._build_parser.cache_info().currsize)"
    proc = _fresh_interpreter("-c", code)
    assert proc.returncode == 0 and proc.stdout.strip() == "0"


def test_import_loads_only_the_layers_every_subcommand_needs():
    # the package imports no module of its own, and the CLI only what loading
    # a problem and its critical set needs: no continuation, Puiseux,
    # quadrature or antiderivative layer, no numpy.polynomial and no csv
    code = "\n".join([
        "import json, sys",
        "ours = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'algebroid')",
        "import algebroid",
        "package = ours()",
        "import algebroid.cli",
        "print(json.dumps([package, ours(), 'numpy.polynomial' in sys.modules,",
        "                  'csv' in sys.modules]))",
    ])
    proc = _fresh_interpreter("-c", code)
    assert proc.returncode == 0, proc.stderr
    package, cli, polynomial, csv = json.loads(proc.stdout)
    assert package == ["algebroid"]
    assert cli == ["algebroid"] + [f"algebroid.{m}" for m in (
        "cli", "config", "errors", "exactalg", "paths", "rootfind", "surface")]
    assert not polynomial and not csv


def test_the_package_namespace_resolves_every_public_name_from_its_home():
    import algebroid

    for name in algebroid.__all__:
        obj = getattr(algebroid, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    star: dict = {}
    exec("from algebroid import *", star)
    assert all(star[name] is getattr(algebroid, name) for name in algebroid.__all__)
    assert set(algebroid.__all__) <= set(dir(algebroid))
    with pytest.raises(AttributeError, match="no_such_name"):
        algebroid.no_such_name


def test_a_subcommand_reaches_its_layer_through_the_module_attribute(
        capsys, monkeypatch, sqrt_file, recip_file):
    # the layer is imported when the subcommand runs, so a patch of its module
    # reaches the call: benchmark/spans.Patch times the layers this way
    from algebroid import antideriv, quad

    called = []
    for module, name in ((quad, "path_independence_audit"), (antideriv, "build_antiderivative")):
        def patched(*args, real=getattr(module, name), name=name, **kwargs):
            called.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, patched)
    code, _ = run_cli(capsys, "audit", recip_file,
                      "--target-z=-1,0", "--target-w=-1,0", "--paths", "upper,lower")
    assert code == 0
    code, _ = run_cli(capsys, "antiderivative", sqrt_file)
    assert code == 0
    assert called == ["path_independence_audit", "build_antiderivative"]


def test_a_sampling_radius_below_the_float_spacing_is_refused(tmp_path, capsys):
    # the float spacing at 1e17 is 16: the default radius 0.5 circle would
    # collapse onto its center
    problem = tmp_path / "far.json"
    problem.write_text(json.dumps({"k": 2, "coefficients": ["0", "-(z-10^17)"]}))
    code, report = run_cli(capsys, "puiseux", str(problem), "--point", "1e17")
    assert code == 3
    assert report["error"]["type"] == "SchemaError"
    assert report["error"]["message"] == (
        "sampling radius 0.5 is below 64 times the float spacing 16.0 at the center (1e+17+0j)")


def test_dumps_report_float_formatting():
    text = dumps_report({"x": 1.0 / 3.0, "n": 3, "flag": True, "none": None})
    assert "0.33333333333333331" in text
    assert json.loads(text) == {"x": 1 / 3, "n": 3, "flag": True, "none": None}


def _recursive_dumps(obj, indent=2, level=0):
    """The report writer as it was before it appended into one list: each
    container joins the strings of its entries, and strings go through json.dumps."""
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f"{pad_in}{json.dumps(str(k))}: {_recursive_dumps(v, indent, level + 1)}"
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{pad_in}{_recursive_dumps(v, indent, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return json.dumps(str(obj))
        if obj == int(obj) and abs(obj) < 1e16:
            return repr(float(obj))
        return format(obj, ".17g")
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


_report_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-10**20, max_value=10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e16, -1e16, 2.0**53, 1e16 - 2, 3e20, 1e300, -0.0, 0.0, 12.0]),
    st.text(alphabet=st.characters(codec="utf-8"), max_size=8),
    st.sampled_from(["", "é", "\u2603 snow", 'quote " and \\', "tab\tnewline\n", "\U0001f600"]),
)
_reports = st.recursive(
    _report_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(_reports, st.sampled_from([0, 2, 4]))
def test_dumps_report_is_byte_identical_to_the_recursive_writer(obj, indent):
    assert dumps_report(obj, indent) == _recursive_dumps(obj, indent)
    assert dumps_report(obj, indent, 1) == _recursive_dumps(obj, indent, 1)


@pytest.mark.parametrize("indent", [0, 2, 4])
def test_dumps_report_fixed_cases(indent):
    obj = {"nested": {"list": [1, (2.5, [], {}), {"t": True, "f": False}], "empty": {}},
           "floats": [float("nan"), float("inf"), -float("inf"), 1e16, 1e17, 123.0, 0.1],
           "text": "caf\u00e9 \u03c0", "\u00fc": None, "big": 10**30}
    assert dumps_report(obj, indent) == _recursive_dumps(obj, indent)


CUBE_ROOT = {"k": 3, "coefficients": ["0", "0", "-z"]}


@pytest.mark.parametrize("problem, argv", [
    # a loop of several turns
    (CUBE_ROOT, ["monodromy", PROBLEM, "--loop", "0,0,1,4"]),
    (CUBE_ROOT, ["monodromy", PROBLEM, "--loop", "0,0,1,7"]),
    (RECIP_SQRT_Z, ["integrate", PROBLEM, "--loop", "0,0,1,4"]),
    # a Puiseux window that cannot be sampled, on every command that samples
    *[(RECIP_SQRT_PATHS, ["--tol", f"n_max={n_max}", command, PROBLEM, *flags])
      for n_max in (1100, 8193)
      for command, flags in [("audit", AUDIT_FLAGS), ("antiderivative", []),
                             ("family", ["--shift", "1"]), ("puiseux", ["--point", "0"]),
                             ("residues", ["--contour-check"])]],
    # a fiber over a huge |z|
    (SQRT_Z, ["fiber", PROBLEM, "--z", "1e300"]),
    ({"k": 1, "coefficients": ["-z"]}, ["fiber", PROBLEM, "--z", "1e300,1e300"]),
    (CUBE_ROOT, ["fiber", PROBLEM, "--z=-1e308"]),
    (SQRT_Z, ["monodromy", PROBLEM, "--loop", "0,0,1e300,1"]),
    (SQRT_Z, ["puiseux", PROBLEM, "--point", "1e300"]),
    # flag values that are legal but hostile
    (RECIP_SQRT_Z, ["--tol", "quad_tol=1e-17", "integrate", PROBLEM,
                    "--path-json", '[{"line": [[1, 0], [-1, 0.01]]}]']),
    ({"k": 1, "coefficients": ["-1/z^3"]}, ["--tol", "n_max=2", "puiseux", PROBLEM, "--point", "0"]),
    (SQRT_Z, ["puiseux", PROBLEM, "--point", "0", "--radius", "1e-300"]),
    (SQRT_Z, ["residues", PROBLEM, "--radius", "1e300", "--contour-check"]),
    (SQRT_Z, ["fiber", PROBLEM, "--z", "1e-300"]),
    (SQRT_Z, ["--tol", "h_min_frac=0.9", "monodromy", PROBLEM, "--loop", "0,0,1,1"]),
    (SQRT_Z, ["--tol", "delta_sep=1e300", "fiber", PROBLEM, "--z", "4"]),
    (SQRT_Z, ["--tol", "delta_path_factor=1e300", "monodromy", PROBLEM, "--loop", "0,0,1,1"]),
    (SQRT_Z, ["monodromy", PROBLEM, "--loop", "0,0,1e-300,1,1,0"]),
    ({"k": 2, "coefficients": ["0", "-z^5"]}, ["fiber", PROBLEM, "--z", "1e80,0"]),
    (SQRT_Z, ["--tol", "fit_tol=1e-300", "antiderivative", PROBLEM]),
])
def test_every_run_ends_in_one_report(capsys, tmp_path, problem, argv):
    f = tmp_path / "p.json"
    f.write_text(json.dumps(problem))
    code = main([str(f) if a == PROBLEM else a for a in argv])
    report = json.loads(capsys.readouterr().out)  # one JSON document, no traceback
    assert report["command"] in argv
    if "error" in report:
        assert issubclass(getattr(errors, report["error"]["type"]), errors.AlgebroidError)
        assert code == report["error"]["exit_code"] > 0
    else:
        assert code == 0
