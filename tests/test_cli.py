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


def test_non_finite_fiber_coefficients_are_a_root_finding_failure(capsys, tmp_path):
    # -z^5 overflows to -inf at z = 1e80: a typed refusal, not NaN roots
    f = tmp_path / "quintic.json"
    f.write_text(json.dumps({"k": 2, "coefficients": ["0", "-z^5"]}))
    code = main(["fiber", str(f), "--z", "1e80,0"])
    report = json.loads(capsys.readouterr().out)
    assert code == 6
    assert report["error"]["type"] == "RootFindingFailure"


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p
    )
    code = "import algebroid.cli as c; print(c._build_parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0 and proc.stdout.strip() == "0"


def test_dumps_report_float_formatting():
    text = dumps_report({"x": 1.0 / 3.0, "n": 3, "flag": True, "none": None})
    assert "0.33333333333333331" in text
    assert json.loads(text) == {"x": 1 / 3, "n": 3, "flag": True, "none": None}
