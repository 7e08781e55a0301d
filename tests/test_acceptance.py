"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every tolerance is pinned here; nothing is deferred.
"""

import json
import math

import numpy as np
import pytest

from algebroid.antideriv import (
    build_antiderivative,
    shifted_coeffs,
    symmetric_coeffs,
    verify_antiderivative,
)
from algebroid.cli import main
from algebroid.errors import RefusedReducible, SingleValuednessViolation
from algebroid.exactalg import GaussianRational, parse_coefficient
from algebroid.puiseux import puiseux_expand
from algebroid.quad import (
    closed_loop_integral,
    path_independence_audit,
    residue_theorem_check,
    surface_integral,
)
from algebroid.surface import DefiningEquation, irreducibility_check
from algebroid.tracker import (
    BasePath,
    Line,
    SurfacePoint,
    loop_path,
    polyline,
    reverse,
)

TWO_PI_I = 2j * math.pi


def _report(num: int, description: str, ok: bool):
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num}: {description}"


def _coeff_error(got, expected) -> float:
    diff = got - expected
    if diff.is_zero():
        return 0.0
    return max(abs(complex(c)) for c in diff.num.coeffs)


def test_criterion_01_sqrt_z_residue(tmp_path, capsys):
    problem = tmp_path / "sqrt.json"
    problem.write_text(json.dumps({"k": 2, "coefficients": ["0", "-z"]}))
    code = main(["puiseux", str(problem), "--point", "0"])
    report = json.loads(capsys.readouterr().out)
    with capsys.disabled():
        ok = code == 0
        cycles = report["results"]["cycles"]
        ok = ok and len(cycles) == 1
        exp = cycles[0]["expansion"]
        ok = ok and exp["m"] == 2 and exp["u"] == 1
        ok = ok and abs(complex(*exp["residue"])) < 1e-9
        _report(1, "cmd_puiseux on W^2 - z at 0: m=2, u=1, |residue| < 1e-9", ok)


def test_criterion_02_lemma2_identity(sqrt_z, recip_z):
    eps = 0.25
    loop2 = loop_path(0, eps, 2, anchor=eps)
    val2 = surface_integral(sqrt_z, SurfacePoint(eps, math.sqrt(eps)), loop2).value
    exp2 = puiseux_expand(sqrt_z, 0j, (0, 1))
    target2 = TWO_PI_I * exp2.m * exp2.coeffs.get(-exp2.m, 0j)
    ok = abs(val2 - target2) < 1e-8 and abs(val2) < 1e-8

    loop1 = loop_path(0, 1.0, 1)
    val1 = surface_integral(recip_z, SurfacePoint(1, 1), loop1).value
    exp1 = puiseux_expand(recip_z, 0j, (0,))
    target1 = TWO_PI_I * exp1.m * exp1.coeffs.get(-exp1.m, 0j)
    ok = ok and abs(val1 - target1) < 1e-8 and abs(val1 - TWO_PI_I) < 1e-8
    _report(2, "loop integral = 2*pi*i*m*B_{-m}: 0 for W^2 - z, 2*pi*i for W - 1/z", ok)


def test_criterion_03_path_independence(sqrt_z):
    paths = [
        BasePath((Line(1, 4),)),
        polyline(1, 1 + 2j, 4 + 2j, 4),
        polyline(1, 1 - 1.5j, 4 - 1.5j, 4),
    ]
    report = path_independence_audit(
        sqrt_z, SurfacePoint(1, 1), SurfacePoint(4, 2), paths
    )
    ok = report.verdict == "independent" and report.max_discrepancy < 1e-8
    _report(3, "three routes (1,1)->(4,2) for W^2 - z agree within 1e-8", ok)


def test_criterion_04_path_dependence(recip_z):
    from algebroid.tracker import Arc

    upper = BasePath((Arc(0, 1.0, 0.0, math.pi),))
    lower = BasePath((Arc(0, 1.0, 0.0, -math.pi),))
    report = path_independence_audit(
        recip_z, SurfacePoint(1, 1), SurfacePoint(-1, -1), [upper, lower]
    )
    ok = report.verdict == "dependent"
    ok = ok and abs(report.max_discrepancy - 2 * math.pi) < 1e-9
    _report(4, "W - 1/z semicircle discrepancy equals 2*pi within 1e-9", ok)


def test_criterion_05_antiderivative_reconstruction(sqrt_z):
    model = build_antiderivative(sqrt_z, SurfacePoint(1, 1), c=2.0 / 3.0)
    b1, b2 = model.coeffs
    zero = parse_coefficient("0")
    target = parse_coefficient("-(4/9)*z^3")
    ok = _coeff_error(b1, zero) < 1e-6
    ok = ok and _coeff_error(b2, target) < 1e-6
    defect = verify_antiderivative(model, sqrt_z)
    ok = ok and defect < 1e-7
    _report(5, "W^2 - z antiderivative: B1 ~ 0, B2 = -(4/9) z^3, M' = W", ok)


def test_criterion_06_irreducibility_gate(sqrt_z, split_eq):
    ok = irreducibility_check(sqrt_z, 1.0 + 0j).transitive
    res = irreducibility_check(split_eq, 1.0 + 0j)
    # sheets are 0-based here: the two singleton orbits
    ok = ok and not res.transitive and res.orbits == ((0,), (1,))
    refused = False
    try:
        build_antiderivative(split_eq, SurfacePoint(1, 1))
    except RefusedReducible:
        refused = True
    ok = ok and refused
    _report(6, "W^2 - z transitive; W^2 - z^2 intransitive and refused", ok)


def test_criterion_07_constant_family():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 4))
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        values = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(k)]
        base = symmetric_coeffs(values)
        shifted = shifted_coeffs(base, c, 1.0 + 0j)
        direct = symmetric_coeffs([c + v for v in values])
        worst = max(
            worst,
            max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(shifted, direct)),
        )
    ok = worst < 1e-12
    _report(7, f"constant family equals direct expansion (worst {worst:.2e})", ok)


def test_criterion_08_integral_property_suite(sqrt_z):
    rng = np.random.default_rng(512)
    alpha = GaussianRational.of(GaussianRational.of(7) / GaussianRational.of(5))
    scaled = sqrt_z.scaled_by(alpha)
    af = complex(alpha)
    worst = 0.0
    for _ in range(50):
        pts = [1.0 + 0j]
        for _ in range(int(rng.integers(1, 4))):
            pts.append(complex(rng.uniform(0.5, 5.0), rng.uniform(-3.0, 3.0)))
        pts.append(4.0 + 0j)
        path = polyline(*pts)
        start = SurfacePoint(1, 1)

        whole = surface_integral(sqrt_z, start, path)
        # linearity under W -> alpha W
        lin = surface_integral(scaled, SurfacePoint(1, af), path)
        worst = max(worst, abs(lin.value - af * whole.value))
        # additivity over a subdivision
        cut = int(rng.integers(1, len(pts) - 1))
        mid = pts[cut]
        first = polyline(*pts[: cut + 1])
        second = polyline(*pts[cut:])
        a = surface_integral(sqrt_z, start, first)
        b = surface_integral(sqrt_z, a.endpoint, second)
        worst = max(worst, abs(a.value + b.value - whole.value))
        # reversal
        back = surface_integral(sqrt_z, whole.endpoint, reverse(path))
        worst = max(worst, abs(whole.value + back.value))
        # null loop well away from the critical point
        center = complex(rng.uniform(3.0, 6.0), rng.uniform(-1.0, 1.0))
        radius = rng.uniform(0.3, min(1.0, abs(center) - 1.5))
        loop = loop_path(center, radius, 1)
        anchor_w = None
        from algebroid.surface import fiber_at

        anchor_w = fiber_at(sqrt_z, loop.start_z).roots[1]
        null = closed_loop_integral(sqrt_z, SurfacePoint(loop.start_z, anchor_w), loop)
        worst = max(worst, abs(null.value))
    ok = worst < 1e-9
    _report(8, f"linearity/additivity/reversal/null-loop on 50 paths (worst {worst:.2e})", ok)


def test_criterion_09_counterexample_diagnostic(circle_eq):
    checks = []
    for center in (1j, -1j):
        checks.extend(residue_theorem_check(circle_eq, center))
    ok = all(abs(c.residue) < 1e-8 for c in checks)

    loop = loop_path(0, 3.0, 1)
    period = closed_loop_integral(
        circle_eq, SurfacePoint(3.0, math.sqrt(10.0)), loop
    ).value
    ok = ok and abs(period - 1j * math.pi) < 1e-8

    raised = False
    try:
        build_antiderivative(circle_eq, SurfacePoint(0, 1))
    except SingleValuednessViolation:
        raised = True
    ok = ok and raised
    _report(
        9,
        "W^2 - (1+z^2): zero finite residues, big-loop period pi*i, "
        "single-valuedness violation raised",
        ok,
    )


def test_criterion_10_meromorphic_special_case():
    eq = DefiningEquation.from_strings(["-z^2"])
    model = build_antiderivative(eq, SurfacePoint(0, 0))
    target = parse_coefficient("-z^3/3")
    err = _coeff_error(model.coeffs[0], target)
    ok = err < 1e-10
    _report(10, f"k=1, W = z^2: antiderivative coefficient -z^3/3 (err {err:.2e})", ok)
