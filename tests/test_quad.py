"""Surface integrals, the loop-residue identity, and path audits."""

import cmath
import json
import math

import numpy as np
import pytest

from algebroid.config import DEFAULT
from algebroid.errors import (
    EndpointGermMismatch,
    LiftNotClosed,
    PathTooCloseToCritical,
    QuadratureStall,
    StepUnderflow,
    in_order,
)
from algebroid.exactalg import GaussianRational
from algebroid import puiseux, quad, tracker
from algebroid.cli import main
from algebroid.puiseux import default_radius, residue_by_contour
from algebroid.quad import (
    c_ab,
    closed_loop_integral,
    fiber_integral,
    integral_element_continuation_check,
    path_independence_audit,
    residue_theorem_check,
    surface_integral,
)
from algebroid.surface import DefiningEquation, fiber_at, match_to_fiber
from algebroid.tracker import (
    Arc,
    BasePath,
    Line,
    SegmentTracker,
    SurfacePoint,
    _read,
    _walk,
    _WalkedSegment,
    continue_fiber,
    loop_path,
    polyline,
    reverse,
)

TWO_PI_I = 2j * math.pi


def test_line_integral_principal_sqrt(sqrt_z):
    # oracle: antiderivative (2/3) z^(3/2); value (2/3)(8 - 1) = 14/3
    res = surface_integral(sqrt_z, SurfacePoint(1, 1), BasePath((Line(1, 4),)))
    assert res.value == pytest.approx(14.0 / 3.0, abs=1e-10)
    assert res.endpoint.w == pytest.approx(2.0, abs=1e-9)
    assert res.error_estimate >= 0


def test_gamma2_loop_vanishes(sqrt_z):
    eps = 0.25
    start = SurfacePoint(eps, math.sqrt(eps))
    loop = loop_path(0, eps, 2, anchor=eps)
    res = surface_integral(sqrt_z, start, loop)
    assert abs(res.value) < 1e-9
    assert res.closed_on_surface


def test_recip_unit_circle_classical_residue(recip_z):
    res = surface_integral(recip_z, SurfacePoint(1, 1), loop_path(0, 1.0, 1))
    assert res.value == pytest.approx(TWO_PI_I, abs=1e-10)


@pytest.mark.parametrize("coeffs, path", [
    (["0", "0", "-z"], polyline(1, 3 + 2j)),
    (["0", "0", "-z"], polyline(1, 1j, -2 + 0.5j)),
    (["0", "-1/z"], polyline(1, 2j, -1)),
])
def test_fiber_integral_matches_per_sheet_integrals(coeffs, path):
    eq = DefiningEquation.from_strings(coeffs)
    roots = fiber_at(eq, path.start_z).roots
    values, end_roots = fiber_integral(eq, roots, path)
    assert len(values) == len(end_roots) == eq.k
    for w, value in zip(roots, values):
        single = surface_integral(eq, SurfacePoint(path.start_z, w), path).value
        assert abs(value - single) < 1e-10 * (1 + abs(single))
    expected_end = continue_fiber(eq, roots, path)
    assert max(abs(a - b) for a, b in zip(end_roots, expected_end)) < 1e-12


def test_fiber_integral_empty_path():
    eq = DefiningEquation.from_strings(["0", "0", "-z"])
    roots = fiber_at(eq, 1.0 + 0j).roots
    values, end_roots = fiber_integral(eq, roots, BasePath(()))
    assert values == [0j, 0j, 0j]
    assert end_roots == list(roots)


def test_closed_loop_lift_not_closed(sqrt_z):
    with pytest.raises(LiftNotClosed):
        closed_loop_integral(sqrt_z, SurfacePoint(1, 1), loop_path(0, 1.0, 1))


def test_lift_not_closed_names_the_end_sheet_from_one_fiber_solve(sqrt_z, monkeypatch):
    zs = []
    real = tracker.fiber_at

    def counted(eq, z, *args, **kwargs):
        zs.append(z)
        return real(eq, z, *args, **kwargs)

    monkeypatch.setattr(tracker, "fiber_at", counted)
    with pytest.raises(LiftNotClosed) as info:
        closed_loop_integral(sqrt_z, SurfacePoint(1, 1), loop_path(0, 1.0, 1))
    assert zs == [1]
    # the lift of sqrt(z) once about 0 ends at -1; (2/3) z^(3/2) gains -4/3
    assert info.value.end_sheet == match_to_fiber(-1, fiber_at(sqrt_z, 1.0 + 0j), DEFAULT)
    assert info.value.value == pytest.approx(-4.0 / 3.0, abs=1e-10)


def test_closed_loop_no_singular_element(sqrt_z):
    loop = loop_path(5.0 + 0j, 1.0, 1)
    start = SurfacePoint(6.0, math.sqrt(6.0))
    res = closed_loop_integral(sqrt_z, start, loop)
    assert abs(res.value) < 1e-10


def test_closed_loop_period_at_infinity(circle_eq):
    # sqrt(1+z^2) = z + 1/(2z) + ... for large z: one turn gives pi*i
    loop = loop_path(0, 3.0, 1)
    start = SurfacePoint(3.0, math.sqrt(10.0))
    res = closed_loop_integral(circle_eq, start, loop)
    assert res.value == pytest.approx(1j * math.pi, abs=1e-8)


def test_residue_theorem_check_sqrt(sqrt_z):
    checks = residue_theorem_check(sqrt_z, 0j)
    assert len(checks) == 1
    c = checks[0]
    assert abs(c.loop_value) < 1e-9
    assert abs(c.expected) < 1e-9
    assert c.discrepancy < 1e-9


def test_residue_theorem_check_recip(recip_z):
    c = residue_theorem_check(recip_z, 0j)[0]
    assert c.loop_value == pytest.approx(TWO_PI_I, abs=1e-10)
    assert c.expected == pytest.approx(TWO_PI_I, abs=1e-10)
    assert c.discrepancy < 1e-10


def test_residue_theorem_check_circle(circle_eq):
    c = residue_theorem_check(circle_eq, 1j)[0]
    assert abs(c.loop_value) < 1e-8
    assert c.discrepancy < 1e-8


def test_c_ab_straight_line(sqrt_z):
    el = c_ab(sqrt_z, SurfacePoint(1, 1), SurfacePoint(4, 2), BasePath((Line(1, 4),)))
    assert el.c_ab == pytest.approx(14.0 / 3.0, abs=1e-10)


def test_c_ab_empty_path(sqrt_z):
    el = c_ab(sqrt_z, SurfacePoint(1, 1), SurfacePoint(1, 1), BasePath(()))
    assert el.c_ab == 0


def test_c_ab_monodromy_detour(sqrt_z):
    # one turn about 0 (lands on the negative branch), then the line 1 -> 4:
    # -4/3 + (-14/3) = -6
    path = loop_path(0, 1.0, 1, anchor=1.0 + 0j) + BasePath((Line(1, 4),))
    el = c_ab(sqrt_z, SurfacePoint(1, 1), SurfacePoint(4, -2), path)
    assert el.c_ab == pytest.approx(-6.0, abs=1e-9)


def test_c_ab_rejects_wrong_sheet(sqrt_z):
    with pytest.raises(EndpointGermMismatch):
        c_ab(sqrt_z, SurfacePoint(1, 1), SurfacePoint(4, -2), BasePath((Line(1, 4),)))


def test_c_ab_empty_path_to_the_other_sheet_names_both_w(sqrt_z):
    with pytest.raises(EndpointGermMismatch) as info:
        c_ab(sqrt_z, SurfacePoint(1, 1), SurfacePoint(1, -1), BasePath(()))
    assert "w=(1+0j)" in str(info.value)
    assert "w=(-1+0j)" in str(info.value)


def test_audit_independent_sqrt(sqrt_z):
    base, target = SurfacePoint(1, 1), SurfacePoint(4, 2)
    paths = [
        BasePath((Line(1, 4),)),
        polyline(1, 1 + 2j, 4 + 2j, 4),
        polyline(1, 1 - 2j, 4 - 2j, 4),
    ]
    report = path_independence_audit(sqrt_z, base, target, paths)
    assert report.verdict == "independent"
    assert report.max_discrepancy < 1e-9
    assert all(abs(rc.residue) < 1e-9 for rc in report.enclosed_residue_data)


def test_audit_of_an_entire_integrand_to_a_far_target_is_independent():
    # W = z^5 is entire; its c values near 1.7e11 differ by about 5e-5, below
    # their own error estimates, so the discrepancy decides nothing
    eq = DefiningEquation.from_strings(["-z^5"])
    paths = [BasePath((Line(1, 100),)), polyline(1, 1 + 100j, 100)]
    report = path_independence_audit(eq, SurfacePoint(1, 1), SurfacePoint(100, 100**5), paths)
    assert report.max_discrepancy > DEFAULT.audit_tol
    assert report.verdict == "independent"


def test_audit_solves_no_target_fiber(sqrt_z, count_calls):
    # each lift's walked end fiber holds the target's w: no fiber over 4 is solved
    zs = count_calls("fiber_at")
    base, target = SurfacePoint(1, 1), SurfacePoint(4, 2)
    paths = [polyline(1, 4), polyline(1, 1 + 2j, 4 + 2j, 4), polyline(1, 1 - 2j, 4 - 2j, 4)]
    report = path_independence_audit(sqrt_z, base, target, paths)
    assert report.verdict == "independent"
    assert zs.count(4) == 0


def test_audit_polishes_each_germ_once(sqrt_z, count_calls):
    zs = count_calls("germ_at")
    base, target = SurfacePoint(1, 1), SurfacePoint(4, 2)
    paths = [polyline(1, 4), polyline(1, 1 + 2j, 4 + 2j, 4), polyline(1, 1 - 2j, 4 - 2j, 4)]
    path_independence_audit(sqrt_z, base, target, paths)
    assert zs == [1, 4]


def test_audit_solves_the_start_fiber_once_for_all_its_paths(sqrt_z, monkeypatch):
    zs = []
    real = tracker.fiber_at

    def counted(eq, z, *args, **kwargs):
        zs.append(z)
        return real(eq, z, *args, **kwargs)

    monkeypatch.setattr(tracker, "fiber_at", counted)
    base, target = SurfacePoint(1, 1), SurfacePoint(4, 2)
    paths = [polyline(1, 4), polyline(1, 1 + 2j, 4 + 2j, 4), polyline(1, 1 - 2j, 4 - 2j, 4)]
    report = path_independence_audit(sqrt_z, base, target, paths)
    assert report.verdict == "independent"
    assert zs == [1]


def test_audit_dependent_recip(recip_z):
    base, target = SurfacePoint(1, 1), SurfacePoint(-1, -1)
    upper = BasePath((Arc(0, 1.0, 0.0, math.pi),))
    lower = BasePath((Arc(0, 1.0, 0.0, -math.pi),))
    report = path_independence_audit(recip_z, base, target, [upper, lower])
    assert report.verdict == "dependent"
    assert report.max_discrepancy == pytest.approx(2 * math.pi, abs=1e-10)


def test_audit_single_path_trivially_independent(sqrt_z):
    report = path_independence_audit(
        sqrt_z, SurfacePoint(1, 1), SurfacePoint(4, 2), [BasePath((Line(1, 4),))]
    )
    assert report.verdict == "independent"
    assert report.max_discrepancy == 0.0


def _count_reads(monkeypatch) -> list:
    """The module of each tracker._read call, from the Puiseux turns or from
    quadrature."""
    calls = []
    for module in (puiseux, quad):
        def counting(walked, tss, read=module._read, name=module.__name__):
            calls.append(name)
            return read(walked, tss)

        monkeypatch.setattr(module, "_read", counting)
    return calls


def test_audit_reads_each_level_once_for_its_paths_and_circles(monkeypatch, sqrt_z):
    # its paths and its center's outer circle are one batch: it reads as many
    # levels as the deepest of them alone, not the paths' and the circle's in turn
    base, target = SurfacePoint(1, 1), SurfacePoint(4, 2)
    paths = [polyline(1, 4), polyline(1, 1 + 2j, 4 + 2j, 4)]
    calls = _count_reads(monkeypatch)
    alone = []
    for path in paths:
        c_ab(sqrt_z, base, target, path)
        alone.append(len(calls))
        calls.clear()
    residue_theorem_check(sqrt_z, 0j)
    circle = calls.count("algebroid.quad")
    calls.clear()
    report = path_independence_audit(sqrt_z, base, target, paths)
    assert report.verdict == "independent"
    assert calls.count("algebroid.puiseux") == 1
    assert calls.count("algebroid.quad") == max(alone + [circle]) < sum(alone) + circle
    assert len(calls) == 2


def _three_centers():
    """W^2 - (z^3 - 1), its centers, a germ over 2 and two paths from it to a
    germ over 2 + 2i that enclose no center."""
    eq = DefiningEquation.from_strings(["0", "-(z^3 - 1)"])
    base = SurfacePoint(2, fiber_at(eq, 2).roots[0])
    paths = [polyline(2, 2 + 2j), polyline(2, 3 + 1j, 2 + 2j)]
    target = surface_integral(eq, base, paths[0]).endpoint
    return eq, list(eq.critical().locations), base, target, paths


def _plant_refusals(monkeypatch, stalled, message, walk_refused):
    """Stall the quadrature of every walked segment for which stalled(segment)
    holds, with message, and refuse the Puiseux walk about the center
    walk_refused."""
    take, walk_turns = quad._take, puiseux._walk_turns

    def planted_take(parts, reads, quad_tol):
        return [QuadratureStall(message) if stalled(part.walked.seg) else stall
                for part, stall in zip(parts, take(parts, reads, quad_tol))]

    def planted_walk(eq, a, epsilon, tol):
        if a == walk_refused:
            raise StepUnderflow("planted at the walk of a center")
        return walk_turns(eq, a, epsilon, tol)

    monkeypatch.setattr(quad, "_take", planted_take)
    monkeypatch.setattr(puiseux, "_walk_turns", planted_walk)


def test_audit_raises_a_paths_refusal_before_a_centers(monkeypatch):
    # the batch meets the center's walk refusal before it integrates the
    # second path, whose stall comes first in job order
    eq, centers, base, target, paths = _three_centers()
    _plant_refusals(monkeypatch, lambda seg: seg == Line(2, 3 + 1j), "planted at a path",
                    centers[0])
    with pytest.raises(QuadratureStall, match="planted at a path"):
        path_independence_audit(eq, base, target, paths)


def test_audit_raises_the_first_refusing_centers_refusal(monkeypatch):
    # the batch meets the third center's walk refusal before it integrates
    # the second center's circle, whose stall comes first in center order
    eq, centers, base, target, paths = _three_centers()
    _plant_refusals(monkeypatch, lambda seg: isinstance(seg, Arc) and seg.center == centers[1],
                    "planted at the second center", centers[2])
    with pytest.raises(QuadratureStall, match="planted at the second center"):
        path_independence_audit(eq, base, target, paths)


def test_single_and_empty_path_audits_are_their_c_ab_and_residue_checks():
    eq, centers, base, target, paths = _three_centers()
    checks = tuple(c for a in centers for c in residue_theorem_check(eq, a))
    single = path_independence_audit(eq, base, target, paths[:1])
    assert single == quad.AuditReport((c_ab(eq, base, target, paths[0]).c_ab,), (), 0.0,
                                      "independent", checks)
    assert path_independence_audit(eq, base, base, []) == quad.AuditReport(
        (), (), 0.0, "independent", checks)


def test_integral_element_continuation(sqrt_z):
    # c_{a,b} + int_b^u = c_{a,u} on the principal branch: both are
    # (2/3)(27) - (2/3)(1)
    el = c_ab(sqrt_z, SurfacePoint(1, 1), SurfacePoint(4, 2), BasePath((Line(1, 4),)))
    defect = integral_element_continuation_check(
        sqrt_z, el, SurfacePoint(9, 3), BasePath((Line(4, 9),))
    )
    assert defect < 1e-9


def test_integral_element_continuation_trivial(sqrt_z):
    el = c_ab(sqrt_z, SurfacePoint(1, 1), SurfacePoint(4, 2), BasePath((Line(1, 4),)))
    defect = integral_element_continuation_check(
        sqrt_z, el, SurfacePoint(4, 2), BasePath(())
    )
    assert defect < 1e-10


def test_integral_element_winding_defect(recip_z):
    # routes that wind differently about 0 disagree by the period 2*pi*i
    el = c_ab(recip_z, SurfacePoint(1, 1), SurfacePoint(2, 0.5), BasePath((Line(1, 2),)))
    probe = SurfacePoint(3, 1.0 / 3.0)
    winding = BasePath((Line(2, 3),)) + loop_path(0, 3.0, 1, anchor=3.0 + 0j)
    through_base = BasePath((Line(1, 3),))
    defect = integral_element_continuation_check(
        recip_z, el, probe, path_target_to_probe=winding, path_base_to_probe=through_base
    )
    assert defect == pytest.approx(2 * math.pi, abs=1e-9)


# --- algebraic properties of the integral (random paths) ---------------------


def _random_admissible_path(rng, start, end):
    """Polyline from start to end through 1-3 waypoints in the right half plane."""
    pts = [start]
    for _ in range(rng.integers(1, 4)):
        pts.append(complex(rng.uniform(0.5, 5.0), rng.uniform(-3.0, 3.0)))
    pts.append(end)
    return polyline(*pts)


def test_linearity_under_scaling(sqrt_z):
    rng = np.random.default_rng(7)
    alpha = GaussianRational.of(3) / GaussianRational.of(2)
    scaled = sqrt_z.scaled_by(alpha)
    af = complex(alpha)
    for _ in range(10):
        path = _random_admissible_path(rng, 1.0 + 0j, 4.0 + 0j)
        base = surface_integral(sqrt_z, SurfacePoint(1, 1), path)
        lifted = surface_integral(scaled, SurfacePoint(1, af), path)
        assert abs(lifted.value - af * base.value) < 1e-9 * max(1.0, abs(base.value))


def test_reversal_negates(sqrt_z):
    rng = np.random.default_rng(8)
    for _ in range(10):
        path = _random_admissible_path(rng, 1.0 + 0j, 4.0 + 0j)
        fwd = surface_integral(sqrt_z, SurfacePoint(1, 1), path)
        back = surface_integral(sqrt_z, fwd.endpoint, reverse(path))
        assert abs(fwd.value + back.value) < 1e-10


def test_subdivision_adds(sqrt_z):
    rng = np.random.default_rng(9)
    for _ in range(10):
        mid = complex(rng.uniform(1.5, 3.5), rng.uniform(-2.0, 2.0))
        first = polyline(1, mid)
        second = polyline(mid, 4)
        joined = polyline(1, mid, 4)
        a = surface_integral(sqrt_z, SurfacePoint(1, 1), first)
        b = surface_integral(sqrt_z, a.endpoint, second)
        c = surface_integral(sqrt_z, SurfacePoint(1, 1), joined)
        assert abs(a.value + b.value - c.value) < 1e-10


def test_residue_check_loop_is_the_contour_residue_loop():
    # W^2 - 1/z: one 2-cycle at the pole, which is also a branch point
    eq = DefiningEquation.from_strings(["0", "-1/z"])
    checks = residue_theorem_check(eq, 0j)
    assert [rc.cycle for rc in checks] == [(0, 1)]
    for rc in checks:
        assert rc.loop_value / (2j * math.pi) == residue_by_contour(eq, 0j, rc.cycle)


@pytest.mark.parametrize("coeffs, a, lengths", [
    (["0", "-3", "-z"], 2.0 + 0j, [2, 1]),  # W^3 - 3W - z: a 2-cycle and a fixed sheet
    (["0", "0", "-z"], 0j, [3]),  # W^3 - z
    (["0", "-1/z"], 0j, [2]),  # W^2 - 1/z: a pole that is also a branch point
])
def test_contour_values_of_mixed_cycles_match_m_turn_loops(coeffs, a, lengths):
    eq = DefiningEquation.from_strings(coeffs)
    checks = residue_theorem_check(eq, a)
    assert sorted(len(rc.cycle) for rc in checks) == sorted(lengths)
    assert sorted(s for rc in checks for s in rc.cycle) == list(range(eq.k))
    eps = default_radius(eq, a)
    roots = fiber_at(eq, a + eps).roots
    for rc in checks:
        start = SurfacePoint(a + eps, roots[rc.cycle[0]])
        loop = closed_loop_integral(eq, start, loop_path(a, eps, rc.m))
        assert abs(rc.loop_value - loop.value) < 1e-10
        assert abs(rc.loop_value / TWO_PI_I - rc.residue) < 1e-8


def _count_walks(monkeypatch):
    """Record the segment of every SegmentTracker built and every call of
    quad.fiber_integral or quad._walk."""
    segments, walks = [], []
    init = SegmentTracker.__init__

    def counting_init(self, eq, seg, *args, **kwargs):
        segments.append(type(seg).__name__)
        init(self, eq, seg, *args, **kwargs)

    def counting(name):
        real = getattr(quad, name)

        def counted(*args, **kwargs):
            walks.append(name)
            return real(*args, **kwargs)
        return counted

    monkeypatch.setattr(SegmentTracker, "__init__", counting_init)
    for name in ("fiber_integral", "_walk"):
        monkeypatch.setattr(quad, name, counting(name))
    return segments, walks


def test_one_center_costs_two_turns_one_leg_and_one_quadrature_turn(monkeypatch):
    # the contour check integrates the outer Puiseux turn: no walk of its own
    eq = DefiningEquation.from_strings(["0", "-3", "-z"])
    segments, walks = _count_walks(monkeypatch)
    checks = residue_theorem_check(eq, 2.0 + 0j)
    assert [len(rc.cycle) for rc in checks] == [2, 1]
    assert sorted(segments) == ["Arc", "Arc", "Line"]
    assert walks == []


def test_cli_contour_check_walks_two_turns_and_one_leg_per_center(monkeypatch, tmp_path, capsys):
    # W^3 - 3W - z has its two critical points at +-2
    problem = tmp_path / "cubic.json"
    problem.write_text(json.dumps({"k": 3, "coefficients": ["0", "-3", "-z"]}))
    segments, walks = _count_walks(monkeypatch)
    reads, read = [], puiseux._read

    def counting_read(walked, tss):
        reads.append(len(walked))
        return read(walked, tss)

    monkeypatch.setattr(puiseux, "_read", counting_read)
    assert main(["residues", str(problem), "--contour-check"]) == 0
    centers = json.loads(capsys.readouterr().out)["results"]["centers"]
    assert len(centers) == 2
    assert all(c["discrepancy"] < 1e-8 for center in centers for c in center["cycles"])
    assert sorted(segments) == ["Arc"] * 4 + ["Line"] * 2
    assert walks == []
    assert reads == [4]  # one read of the two turns of both centers


NODE_CASES = [
    (["0", "-z"], polyline(1, 4)),
    (["0", "0", "-z"], loop_path(0, 1.0, 1)),
    (["0", "-1/z"], polyline(1, -1 + 0.5j)),
    (["0", "-3", "-z"], loop_path(2.0, 0.5, 1)),
]


def _gauss_nodes(t0, t1):
    return [0.5 * (t1 + t0) + 0.5 * (t1 - t0) * x for x in quad._GL_X]


@pytest.mark.parametrize("coeffs, path", NODE_CASES)
def test_walked_rows_match_a_stop_per_gauss_node(coeffs, path):
    eq = DefiningEquation.from_strings(coeffs)
    roots = fiber_at(eq, path.start_z).roots
    for _, _, walked in _walk(eq, roots, path, DEFAULT):
        for piece in ((0.0, 1.0), (0.0, 0.5), (0.5, 1.0)):
            ts = _gauss_nodes(*piece)
            trk = SegmentTracker(eq, walked.seg, walked.start, DEFAULT)
            ref = []
            for t in ts:
                trk.advance_to(t)
                ref.append(trk.fiber)
            ref = np.array(ref)
            assert np.abs(_read([walked], [ts])[0] - ref).max() <= 1e-13 * np.abs(ref).max()
    values, end = fiber_integral(eq, roots, path)
    assert all(type(v) is complex for v in values)
    assert end == continue_fiber(eq, roots, path)


@pytest.mark.parametrize("path, most", [(polyline(1, 4), 8), (loop_path(0, 1.0, 1), 16)])
def test_fiber_integral_takes_only_the_tracker_steps(monkeypatch, sqrt_z, path, most):
    # one step per Gauss node took 51 steps and 3 clones on either path
    calls = {"step": 0, "clone": 0}
    step, clone = SegmentTracker._step, SegmentTracker.clone

    def counting_step(self, t_target):
        calls["step"] += 1
        return step(self, t_target)

    def counting_clone(self):
        calls["clone"] += 1
        return clone(self)

    monkeypatch.setattr(SegmentTracker, "_step", counting_step)
    monkeypatch.setattr(SegmentTracker, "clone", counting_clone)
    fiber_integral(sqrt_z, fiber_at(sqrt_z, path.start_z).roots, path)
    assert calls["step"] <= most
    assert calls["clone"] == 0


def _count_rows(monkeypatch):
    """Calls of the batched fiber read quadrature makes, and the parameters they ask for."""
    reads = {"calls": 0, "nodes": 0}
    read = quad._read

    def counting_read(walked, tss):
        reads["calls"] += 1
        reads["nodes"] += sum(len(ts) for ts in tss)
        return read(walked, tss)

    monkeypatch.setattr(quad, "_read", counting_read)
    return reads


@pytest.mark.parametrize("coeffs, path, nodes, most", [
    (["0", "-z"], polyline(1, 4), 112, 2),
    (["0", "-1/z"], polyline(1, -1 + 0.5j), 176, 4),
    (["0", "-1/z"], polyline(1, -1 + 0.01j), 880, 9),
    (["0", "0", "-z"], loop_path(0, 1.0, 1), 112, 2),
])
def test_bisection_reads_one_batch_per_level(monkeypatch, coeffs, path, nodes, most):
    # nodes: as many as the recursive per-piece bisection read, so every
    # accept decision is the same, and on a segment whose whole passes the
    # 64 quarter nodes its first read took ahead; it took 3, 11, 55 and 3 reads
    eq = DefiningEquation.from_strings(coeffs)
    start = SurfacePoint(path.start_z, fiber_at(eq, path.start_z).roots[0])
    reads = _count_rows(monkeypatch)
    surface_integral(eq, start, path)
    assert reads["nodes"] == nodes
    assert reads["calls"] <= most


def test_an_integral_that_passes_at_the_first_test_takes_one_read(monkeypatch, sqrt_z):
    # the first read takes the whole segment, its two halves and its four
    # quarters; read a level at a time, the whole and the halves took a read each
    reads = _count_rows(monkeypatch)
    values, _ = fiber_integral(sqrt_z, fiber_at(sqrt_z, 1).roots, polyline(1, 4))
    assert (reads["calls"], reads["nodes"]) == (1, 7 * len(quad._GL_X))
    assert sorted(v.real for v in values) == pytest.approx([-14.0 / 3.0, 14.0 / 3.0], abs=1e-10)


def test_an_integral_whose_halves_pass_at_the_second_test_takes_one_read(monkeypatch):
    # 1/z from 1 to -1 + i: the whole fails its first test and both halves
    # pass theirs, which the quarters read ahead decide with no second read
    eq = DefiningEquation.from_strings(["0", "-1/z"])
    path = polyline(1, -1 + 1j)
    lift = quad._Lift(eq, fiber_at(eq, 1).roots, path, DEFAULT)
    reads = _count_rows(monkeypatch)
    ((values, _, _),) = quad._integrate([lift])
    (part,) = lift.parts
    assert (part.depth, len(part.accepted), part.ahead) == (1, 2, None)
    assert [len(v) for v, _ in part.accepted] == [2, 2]
    assert (reads["calls"], reads["nodes"]) == (1, 7 * len(quad._GL_X))
    # W^2 = 1/z: the branch 1/sqrt(z) integrates to 2 sqrt(z)
    want = sorted([2 * (cmath.sqrt(-1 + 1j) - 1), -2 * (cmath.sqrt(-1 + 1j) - 1)],
                  key=lambda v: v.real)
    assert sorted(values, key=lambda v: v.real) == pytest.approx(want, abs=1e-10)


def _level_at_a_time(lifts, quad_tol):
    """quad._integrate for lifts of one segment each, read a level at a
    time: a read of every whole segment alone, one of their halves and one
    of their quarters, the first read's three levels, then one read of the
    halves of every pending piece per level. A level whose rows a segment
    holds ahead is read again, and the rows held must be the ones read."""
    parts = [lift.parts[0] for lift in lifts]
    walked = [p.walked for p in parts]
    t0s, t1s, levels = [p.t0 for p in parts], [p.t1 for p in parts], []
    for _ in range(3):
        levels.append(quad._gauss(walked, t0s, t1s))
        t0s, t1s = zip(*(quad._halves(t0, t1) for t0, t1 in zip(t0s, t1s)))
    live, reads = parts, [np.concatenate(rows) for rows in zip(*levels)]
    while True:
        for stall in quad._take(live, reads, quad_tol):
            if stall is not None:
                raise stall
        live = [part for part in parts if not part.done]
        if not live:
            return [lift.result() for lift in lifts]
        reads = quad._gauss([p.walked for p in live], *zip(*(p.pieces() for p in live)))
        for part, rows in zip(live, reads):
            assert part.ahead is None or _bits(part.ahead) == _bits(rows)


def test_first_read_of_whole_and_halves_is_bit_identical_to_a_level_at_a_time():
    # batches of two segments of W^2 - 1/z: one passes at its first test;
    # the other takes 8 levels, or stalls below round-off after them
    eq = DefiningEquation.from_strings(["0", "-1/z"])
    roots = fiber_at(eq, 1.0).roots
    for quad_tol, stalls, accepted in [(1e-17, True, [9, 1]), (DEFAULT.quad_tol, False, [8, 1])]:
        tol = DEFAULT.replace(quad_tol=quad_tol)

        def lifts():
            return [quad._Lift(eq, roots, polyline(1, -1 + 0.01j), tol),
                    quad._Lift(eq, roots, polyline(1, 2), tol)]

        got, want = lifts(), lifts()
        if stalls:
            with pytest.raises(QuadratureStall) as merged:
                quad._integrate(got)
            with pytest.raises(QuadratureStall) as levels:
                _level_at_a_time(want, quad_tol)
            assert str(merged.value) == str(levels.value)
        else:
            quad._integrate(got)
            _level_at_a_time(want, quad_tol)
        for a, b in zip(got, want):
            (pa,), (pb,) = a.parts, b.parts
            assert (pa.done, pa.depth) == (pb.done, pb.depth)
            assert [(_bits(v), _bits(e)) for v, e in pa.accepted] == [
                (_bits(v), _bits(e)) for v, e in pb.accepted]
            assert _bits(pa.t0) == _bits(pb.t0) and _bits(pa.whole) == _bits(pb.whole)
            assert _bits(a.result()[0]) == _bits(b.result()[0])
        assert [len(lift.parts[0].accepted) for lift in got] == accepted


def _bits(values) -> list:
    """The IEEE bit patterns of complex values: -0.0 differs from 0.0."""
    return np.ascontiguousarray(values, dtype=complex).view(np.int64).ravel().tolist()


def test_single_sheet_integral_is_its_column_of_the_fiber_integral():
    eq = DefiningEquation.from_strings(["0", "-3", "-z"])  # W^3 - 3W - z
    path = polyline(3, -1 + 2j)
    roots = fiber_at(eq, 3.0).roots
    values, _ = fiber_integral(eq, roots, path)
    for w, value in zip(roots, values):
        assert surface_integral(eq, SurfacePoint(3, w), path).value == value


def test_tolerance_below_round_off_stalls_within_bounded_work(monkeypatch):
    # no piece passes below round-off, so the pending pieces double each
    # level; the stall must come before that width costs more reads
    eq = DefiningEquation.from_strings(["0", "-1/z"])
    reads = _count_rows(monkeypatch)
    with pytest.raises(QuadratureStall, match="stalled on"):
        surface_integral(eq, SurfacePoint(1, 1), polyline(1, -1 + 0.01j),
                         DEFAULT.replace(quad_tol=1e-17))
    assert reads["calls"] <= quad._MAX_DEPTH + 2
    assert reads["nodes"] <= 8192


def _refuse_one_sample(monkeypatch, start, bad):
    """Push the prediction at parameter bad of the segment that starts at
    the fiber start most of the way to another sheet, so that sample fails
    its gates and is tracked from the knot before it."""
    hermite = tracker._hermite

    def perturbed(dense, tss):
        pred = hermite(dense, tss)
        lo = 0
        for (_, knots, _), ts in zip(dense, tss):
            if list(knots[0]) == list(start):
                hit = lo + np.flatnonzero(ts == bad)
                pred[hit, 0] += 0.7 * (pred[hit, 1] - pred[hit, 0])
            lo += len(ts)
        return pred

    monkeypatch.setattr(tracker, "_hermite", perturbed)


def test_batched_integrals_equal_each_path_alone(monkeypatch):
    # one batch per equation, each path with its reverse; W^3 - z also
    # around a loop spoked from 4, whose refused sample on the spoke is
    # tracked from its knot: the spoke's end does not move, and the arc is
    # walked once, from that end
    spoked = (["0", "0", "-z"], loop_path(0, 3.0, 1, anchor=4))
    batches: dict = {}
    for coeffs, path in NODE_CASES + [spoked]:
        eq = batches.setdefault(tuple(coeffs), (DefiningEquation.from_strings(coeffs), []))[0]
        for p in (path, reverse(path)):
            batches[tuple(coeffs)][1].append((eq, fiber_at(eq, p.start_z).roots, p))
    starts = batches[tuple(spoked[0])][1]
    spoke_start = starts[-2][1]  # the spoked loop, before its reverse
    bad = _gauss_nodes(0.0, 1.0)[4]
    _refuse_one_sample(monkeypatch, spoke_start, bad)
    tracked, calls = _WalkedSegment.tracked, []

    def counting_tracked(self, t):
        calls.append((self.seg, t))
        return tracked(self, t)

    monkeypatch.setattr(_WalkedSegment, "tracked", counting_tracked)
    walks = []
    init = _WalkedSegment.__init__

    def counting_init(self, eq, seg, fiber, tol):
        walks.append(seg)
        init(self, eq, seg, fiber, tol)

    monkeypatch.setattr(_WalkedSegment, "__init__", counting_init)
    for key, (_, starts) in batches.items():
        def lifts():
            return [quad._Lift(eq, roots, path, DEFAULT) for eq, roots, path in starts]

        alone = [quad._integrate([lift])[0] for lift in lifts()]
        batch = lifts()
        del walks[:], calls[:]
        assert quad._integrate(batch) == alone
        assert walks == []  # the batch walks nothing again
        for (eq, roots, path), (values, _, end) in zip(starts, alone):
            assert (values, end) == fiber_integral(eq, roots, path)
        if key != tuple(spoked[0]):
            continue
        spoke, arc = batch[-2].parts[:2]
        # the spoke of the loop and of its reverse each track their sample at bad
        assert {t for _, t in calls} == {bad} and (spoke.walked.seg, bad) in calls
        eq = starts[-2][0]
        assert spoke.walked.end == _WalkedSegment(eq, spoke.walked.seg, spoke_start, DEFAULT).end
        assert arc.walked.start == spoke.walked.end


def test_batch_raises_the_refusal_of_the_first_path_that_fails():
    # path 0 stalls in quadrature, path 1 is refused before any walk
    eq = DefiningEquation.from_strings(["0", "-1/z"])
    tol = DEFAULT.replace(quad_tol=1e-17)
    roots = fiber_at(eq, 1.0).roots
    stalls, too_close = polyline(1, -1 + 0.01j), polyline(1, -1)

    def batch(starts):
        return quad._fiber_integrals(eq, starts, tol)

    with pytest.raises(QuadratureStall):
        in_order(batch, [(roots, stalls), (roots, too_close)])
    with pytest.raises(PathTooCloseToCritical):
        in_order(batch, [(roots, too_close), (roots, stalls)])
    # so does the audit, whose c_ab paths are one batch
    base, target = SurfacePoint(1, 1), SurfacePoint(-1 + 0.01j, fiber_at(eq, -1 + 0.01j).roots[0])
    detour = polyline(1, 0.001, -1 + 0.01j)
    with pytest.raises(QuadratureStall):
        path_independence_audit(eq, base, target, [stalls, detour], tol)
    with pytest.raises(PathTooCloseToCritical):
        path_independence_audit(eq, base, target, [detour, stalls], tol)


def test_a_four_turn_integral_is_twice_the_two_turn_one():
    # W^2 - 1/z from w(1) = 1: w = z^(-1/2) integrates to 2 z^(1/2), so an odd
    # number of turns gives -4 and an even one 0
    eq = DefiningEquation.from_strings(["0", "-1/z"])
    start = SurfacePoint(1.0 + 0j, 1.0 + 0j)
    one, two, three, four = (surface_integral(eq, start, loop_path(0, 1.0, turns)).value
                             for turns in (1, 2, 3, 4))
    assert one == pytest.approx(-4.0, abs=1e-10) and three == pytest.approx(-4.0, abs=1e-10)
    assert four == pytest.approx(2 * two, abs=1e-12)
    assert abs(two) < 1e-12


def test_the_gauss_legendre_rule_is_numpys():
    # written out as literals so that no start imports numpy.polynomial
    x, w = np.polynomial.legendre.leggauss(16)
    np.testing.assert_array_max_ulp(quad._GL_X, x, maxulp=1)
    np.testing.assert_array_max_ulp(quad._GL_W, w, maxulp=1)
    assert math.fsum(quad._GL_W) == pytest.approx(2.0, rel=1e-15, abs=0)
