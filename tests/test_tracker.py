"""Paths and analytic continuation."""

import cmath
import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from algebroid import tracker
from algebroid.config import DEFAULT
from algebroid.errors import PathTooCloseToCritical, StepUnderflow, TrackingCollision
from algebroid.quad import fiber_integral
from algebroid.rootfind import poly_eval_pair
from algebroid.surface import (DefiningEquation, fiber_at, match_to_fiber, min_pairwise_distance,
                               monodromy)
from algebroid.tracker import (
    Arc,
    BasePath,
    Line,
    SegmentTracker,
    SurfacePoint,
    _read,
    _walk,
    _WalkedSegment,
    continue_branch,
    continue_fiber,
    germ_at,
    loop_path,
    polyline,
    reverse,
    safe_line,
)

_SPEC = importlib.util.spec_from_file_location(
    "step_table", Path(__file__).resolve().parents[1] / "scripts" / "step_table.py")
step_table = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(step_table)


def test_loop_path_unit_circle():
    p = loop_path(0, 1.0, 1, anchor=1.0 + 0j)
    assert len(p.segments) == 1
    assert isinstance(p.segments[0], Arc)
    assert p.is_closed()
    assert p.length == pytest.approx(2 * math.pi)


def test_loop_path_two_turns():
    p = loop_path(0, 1.0, 2, anchor=1.0 + 0j)
    assert p.length == pytest.approx(4 * math.pi)


def test_loop_path_reverse_turn():
    p = loop_path(0, 1.0, -1, anchor=1.0 + 0j)
    arc = p.segments[0]
    assert arc.theta_to - arc.theta_from == pytest.approx(-2 * math.pi)


def test_loop_path_with_spoke():
    p = loop_path(0, 0.5, 1, anchor=2.0 + 0j)
    assert isinstance(p.segments[0], Line)
    assert p.start_z == 2.0 + 0j
    assert p.is_closed()


def test_reverse_line():
    p = BasePath((Line(1, 4),))
    assert reverse(p).segments == (Line(4, 1),)


def test_reverse_arc():
    arc = Arc(0, 1.0, 0.0, 2 * math.pi)
    p = BasePath((arc,))
    r = reverse(p).segments[0]
    assert (r.theta_from, r.theta_to) == (2 * math.pi, 0.0)


def test_reverse_two_segments_and_involution():
    p = polyline(0, 1j, 2 + 1j)
    r = reverse(p)
    assert r.segments == (Line(2 + 1j, 1j), Line(1j, 0))
    assert reverse(r) == p


def test_path_rejects_disconnected():
    with pytest.raises(ValueError):
        BasePath((Line(0, 1), Line(2, 3)))


def test_arc_min_dist_full_turn():
    arc = Arc(0, 1.0, 0.0, 2 * math.pi)
    assert arc.min_dist_to(0) == pytest.approx(1.0)
    assert arc.min_dist_to(3.0 + 0j) == pytest.approx(2.0)


def test_arc_min_dist_partial():
    arc = Arc(0, 1.0, 0.0, math.pi / 2)
    # point on the far side: closest approach is the endpoint at angle pi/2
    assert arc.min_dist_to(-2.0 + 0j) == pytest.approx(abs(-2 - arc.end))
    # point radially inside the swept sector
    assert arc.min_dist_to(0.5 * cmath.exp(0.3j)) == pytest.approx(0.5)


def test_germ_polishing(sqrt_z):
    g = germ_at(sqrt_z, 4.0 + 0j, 2.0 + 1e-9j)
    assert g.w == pytest.approx(2.0, abs=1e-12)


def test_germ_rejects_stalled_newton(sqrt_z):
    # Psi_W(0, z) = 0, so Newton cannot start from w = 0
    with pytest.raises(TrackingCollision, match="does not polish"):
        germ_at(sqrt_z, 1.0 + 0j, 0j)


def test_germ_rejects_irregular_point(sqrt_z):
    # w = 1e-10 is a root at z = 1e-20, but Psi_W = 2e-10 is below the regularity floor
    with pytest.raises(TrackingCollision, match="not regular"):
        germ_at(sqrt_z, 1e-20 + 0j, 1e-10 + 0j)


class _Recomputing(SegmentTracker):
    """A tracker whose every step recomputes its z, the coefficients, the
    root separation, Psi_W at each root and the fiber scale at its start,
    instead of taking those of the step before."""

    __slots__ = ()

    def _step(self, t_target):
        self._carry = None
        return super()._step(t_target)


STEP_CASES = [
    (["0", "-z"], Line(1, 4)),
    (["0", "-3", "-z"], Arc(2.0, 0.5, 0.0, 2 * math.pi)),  # about a branch point
    (["0", "-1/z"], Arc(0j, 1.0, 0.3, 0.3 + 4 * math.pi)),  # two turns about a pole
    (["z/(z-3)", "-3", "-z^2+1/(z+2)"], Line(1j, -1 + 2j)),
    (["1", "0", "-z", "z^2/(z-4)"], Arc(1 + 1j, 0.5, 0.0, 2 * math.pi)),
]


@pytest.mark.parametrize("coeffs, seg", STEP_CASES)
def test_a_step_that_passes_its_state_on_takes_the_same_knots(coeffs, seg):
    eq = DefiningEquation.from_strings(coeffs)
    fiber = fiber_at(eq, seg.start).roots
    knots = []
    for cls in (SegmentTracker, _Recomputing):
        trk = cls(eq, seg, fiber, DEFAULT)
        walk = []
        for stop in (0.3, 0.3 + 1e-9, 1.0):  # clipped steps too
            while trk.t < stop - 1e-15:
                z, slopes = trk._step(stop)
                walk.append(_bits([trk.t, z, *trk.fiber, *slopes]))
                # the z, Psi_W and scale carried to the next step are the ones
                # it would recompute
                z1, coeffs1, _, dws, scale = trk._carry
                assert _bits([z1]) == _bits([z]) == _bits([seg.at(trk.t)])
                assert _bits(coeffs1) == _bits(eq.psi_coeffs_at(z))
                assert _bits(dws) == _bits([poly_eval_pair(coeffs1, w)[1] for w in trk.fiber])
                assert _bits([scale]) == _bits([1.0 + max(map(abs, trk.fiber))])
        knots.append(walk)
    assert knots[0] == knots[1]
    assert len(knots[0]) > 3


@pytest.mark.parametrize("coeffs, seg", STEP_CASES)
def test_no_step_attempt_fails_the_move_check(monkeypatch, coeffs, seg):
    # a step sized from its cap passes the move check on its first try: every
    # attempt, a z at t > 0, goes on to polish all k roots
    eq = DefiningEquation.from_strings(coeffs)
    fiber = fiber_at(eq, seg.start).roots
    calls = {"attempt": 0, "polish": 0}
    at, polish = type(seg).at, tracker._polish

    def counting_at(self, t):
        calls["attempt"] += t > 0  # the walk's start and the first step's z0 are at 0
        return at(self, t)

    def counting_polish(*args):
        calls["polish"] += 1
        return polish(*args)

    monkeypatch.setattr(type(seg), "at", counting_at)
    monkeypatch.setattr(tracker, "_polish", counting_polish)
    walked = _WalkedSegment(eq, seg, fiber, DEFAULT)
    assert calls["polish"] == eq.k * calls["attempt"] >= eq.k * (len(walked.ts) - 1) > 0


def test_the_k6_degree5_contour_check_takes_few_steps():
    # 24,767 steps when each step halved from h = 0.25 until its move met the
    # cap and kept that h; step counts are deterministic, so nothing is timed
    (coeffs,) = [coeffs for row, coeffs in step_table.problems() if row == (6, 5)]
    steps, _, code = step_table.run_row(coeffs)
    assert code == 0
    assert steps <= 14_000


def test_a_walk_into_a_branch_point_underflows_and_does_not_hang(sqrt_z, time_limit):
    # the cap shrinks with the root separation towards z = 0, so the steps
    # shrink towards the ulp of t; with no h_min_frac floor a step that no
    # longer advances t ends the walk
    time_limit(10)
    tol = DEFAULT.replace(h_min_frac=0.0)
    with pytest.raises(StepUnderflow, match=r"h=.* predicts a root move of .* against the cap"):
        _WalkedSegment(sqrt_z, Line(1, -1), [1.0 + 0j, -1.0 + 0j], tol)


def _bits(values) -> list:
    """The IEEE bit patterns of complex values: -0.0 differs from 0.0."""
    return np.ascontiguousarray(values, dtype=complex).view(np.int64).tolist()


def test_array_forms_equal_the_scalar_forms_bit_for_bit():
    # _read and quad._gauss take their nodes and dz/dt from ats and derivs,
    # the tracker's steps from at and deriv: they must give the same floats
    rng = np.random.default_rng(20)
    ts = np.concatenate(([0.0, 1.0], rng.uniform(size=200)))
    segs = []
    for _ in range(40):
        center = complex(*rng.normal(size=2)) * 4
        theta = rng.uniform(-7.0, 7.0)
        sweep = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 6.0) * math.pi  # up to three turns
        arc = Arc(center, rng.uniform(1e-3, 10.0), theta, theta + sweep)
        line = Line(center, complex(*rng.normal(size=2)) * 4)
        segs += [arc, arc.reversed(), line, line.reversed()]
    for seg in segs:
        at, deriv = seg.ats(ts), seg.derivs(ts)
        assert at.tolist() == [seg.at(t) for t in ts.tolist()]
        assert deriv.tolist() == [seg.deriv(t) for t in ts.tolist()]


def _knots(walked):
    """A walked segment's knots (t, z, fibers), as plain lists."""
    return list(walked.ts), list(walked.zs), list(map(list, walked.fibers))


def test_one_read_of_many_segments_equals_each_read_alone(sqrt_z):
    # one read per equation, and no read moves a walk; the cubic's arc reads
    # 0.3 twice and ends at 1.0
    cubic = DefiningEquation.from_strings(["0", "-3", "-z"])
    batches = [[(sqrt_z, Line(1, 4)), (sqrt_z, Arc(0j, 2.0, 0.5, 7.0))],
               [(cubic, Arc(0j, 3.0, 2.0, -3.0)), (cubic, Line(2 + 1j, 3 - 1j))]]
    tsss = [[np.linspace(0.0, 1.0, 7), np.linspace(0.01, 0.99, 12)],
            [np.array([0.3, 0.05, 0.71, 1.0, 0.3]), np.linspace(0.0, 1.0, 5)]]
    for batch, tss in zip(batches, tsss):
        def walked():
            return [_WalkedSegment(eq, seg, fiber_at(eq, seg.start).roots, DEFAULT)
                    for eq, seg in batch]

        segs = walked()
        knots = list(map(_knots, segs))
        rows = _read(segs, tss)
        alone = [_read([seg], [ts])[0] for seg, ts in zip(walked(), tss)]
        assert [r.tolist() for r in rows] == [r.tolist() for r in alone]
        assert list(map(_knots, segs)) == knots
    arc_rows, arc = rows[0], segs[0]
    assert arc_rows[0].tolist() == arc_rows[4].tolist()
    assert np.abs(arc_rows[3] - arc.end).max() <= 1e-15 * max(1.0, *map(abs, arc.end))


def test_a_failed_sample_is_tracked_from_its_knot_and_moves_no_walk(monkeypatch, sqrt_z):
    # the prediction at 0.37 is pushed most of the way to the other sheet
    arc = Arc(0j, 2.0, 0.5, 7.0)
    walked = _WalkedSegment(sqrt_z, arc, fiber_at(sqrt_z, arc.start).roots, DEFAULT)
    knots = _knots(walked)
    ts = np.array([0.1, 0.37, 0.8])
    hermite = tracker._hermite

    def perturbed(dense, tss):
        pred = hermite(dense, tss)
        pred[1, 0] += 0.7 * (pred[1, 1] - pred[1, 0])
        return pred

    monkeypatch.setattr(tracker, "_hermite", perturbed)
    rows = _read([walked], [ts])[0]
    assert _knots(walked) == knots
    assert rows[1].tolist() == walked.tracked(0.37)
    # the tracker from the knot before 0.37 reaches the fiber a walk to 0.37 does
    trk = SegmentTracker(sqrt_z, walked.seg, walked.start, DEFAULT)
    trk.advance_to(0.37)
    assert np.abs(rows[1] - trk.fiber).max() <= 1e-12
    monkeypatch.setattr(tracker, "_hermite", hermite)
    assert np.abs(rows - _read([walked], [ts])[0]).max() <= 1e-12


def test_a_refusal_in_a_tracked_sample_is_raised_by_the_read(monkeypatch, sqrt_z):
    walked = _WalkedSegment(sqrt_z, Line(1, 4), [-1.0 + 0j, 1.0 + 0j], DEFAULT)
    hermite = tracker._hermite

    def perturbed(dense, tss):
        pred = hermite(dense, tss)
        pred[0, 0] = pred[0, 1]  # two sheets predicted on one root
        return pred

    def refusing_step(self, t_target):
        raise StepUnderflow(f"continuation step underflow near t={t_target}")

    monkeypatch.setattr(tracker, "_hermite", perturbed)
    monkeypatch.setattr(SegmentTracker, "_step", refusing_step)
    with pytest.raises(StepUnderflow, match="near t=0.6"):  # the knots are 0.25 apart
        _read([walked], [[0.6, 0.8]])


@pytest.mark.parametrize("other", ["equation", "tolerances"])
def test_a_batch_of_two_equations_or_two_tolerances_is_refused(sqrt_z, other):
    cubic = DefiningEquation.from_strings(["0", "-3", "-z"])
    eq, tol = (cubic, DEFAULT) if other == "equation" else (sqrt_z, DEFAULT.replace(eps_root=1e-11))
    segs = [_WalkedSegment(sqrt_z, Line(1, 4), fiber_at(sqrt_z, 1).roots, DEFAULT),
            _WalkedSegment(eq, Line(3, 4), fiber_at(eq, 3).roots, tol)]
    with pytest.raises(ValueError, match="one equation under one Tolerances"):
        _read(segs, [[0.5], [0.5]])
    # an equal Tolerances is the same setting
    same = _WalkedSegment(sqrt_z, Line(2, 3), fiber_at(sqrt_z, 2).roots, DEFAULT.replace())
    assert len(_read([segs[0], same], [[0.5], [0.5]])) == 2


def test_continue_branch_principal_sqrt(sqrt_z):
    res = continue_branch(sqrt_z, SurfacePoint(1.0 + 0j, 1.0 + 0j), BasePath((Line(1, 4),)))
    assert res.endpoint.z == pytest.approx(4.0)
    assert res.endpoint.w == pytest.approx(2.0, abs=1e-10)


def test_continue_branch_sign_flip_around_origin(sqrt_z):
    loop = loop_path(0, 1.0, 1, anchor=1.0 + 0j)
    res = continue_branch(sqrt_z, SurfacePoint(1.0 + 0j, 1.0 + 0j), loop)
    assert res.endpoint.w == pytest.approx(-1.0, abs=1e-10)


def test_continue_branch_loop_away_from_critical(sqrt_z):
    loop = loop_path(5.0 + 0j, 1.0, 1)
    start = germ_at(sqrt_z, loop.start_z, math.sqrt(6.0))
    res = continue_branch(sqrt_z, start, loop)
    assert res.endpoint.w == pytest.approx(start.w, abs=1e-10)


def test_continue_branch_rejects_near_critical_path(sqrt_z):
    with pytest.raises(PathTooCloseToCritical):
        continue_branch(sqrt_z, SurfacePoint(1.0 + 0j, 1.0 + 0j), BasePath((Line(1, -1),)))


def test_round_trip_returns_to_start(sqrt_z, circle_eq):
    cases = [
        (sqrt_z, SurfacePoint(1.0 + 0j, 1.0 + 0j), polyline(1, 1 + 2j, 4 + 2j, 4)),
        (circle_eq, SurfacePoint(0j, 1.0 + 0j), polyline(0, 0.5 - 0.5j, 2.0)),
    ]
    for eq, start, path in cases:
        out = continue_branch(eq, start, path)
        back = continue_branch(eq, out.endpoint, reverse(path))
        assert abs(back.endpoint.w - start.w) < 1e-9 * (1 + abs(start.w))


def test_tracked_samples_stay_on_fiber(sqrt_z):
    path = polyline(1, 1 + 1j, 3 + 1j)
    res = continue_branch(sqrt_z, SurfacePoint(1.0 + 0j, 1.0 + 0j), path)
    # spot-check a few samples: tracked w is within delta of a fiber root
    for t, z, w in res.samples[:: max(1, len(res.samples) // 7)]:
        fiber = fiber_at(sqrt_z, z)
        d = min(abs(w - r) for r in fiber.roots)
        assert d < 0.5 * fiber.min_separation


def test_subdivision_leaves_endpoint_unchanged(sqrt_z):
    start = SurfacePoint(1.0 + 0j, 1.0 + 0j)
    whole = BasePath((Line(1, 4),))
    split = polyline(1, 2.2, 4)
    a = continue_branch(sqrt_z, start, whole).endpoint.w
    b = continue_branch(sqrt_z, start, split).endpoint.w
    assert abs(a - b) < 1e-10


def test_tolerance_halving_stability(sqrt_z):
    start = SurfacePoint(1.0 + 0j, 1.0 + 0j)
    path = polyline(1, 1 + 2j, -1 + 2j, -1 + 4j)
    coarse = continue_branch(sqrt_z, start, path, DEFAULT).endpoint.w
    tight = continue_branch(
        sqrt_z, start, path, DEFAULT.replace(eps_root=DEFAULT.eps_root / 2,
                                             h_min_frac=DEFAULT.h_min_frac / 2)
    ).endpoint.w
    assert abs(coarse - tight) < 1e-8


def test_safe_line_detours_around_origin(sqrt_z):
    crit = [0j]
    path = safe_line(1.0 + 0j, -1.0 + 0j, crit, margin=1e-3)
    assert len(path.segments) == 2
    assert path.min_dist_to(0j) >= 1e-3
    assert path.start_z == 1.0 + 0j
    assert path.end_z == -1.0 + 0j


def test_multi_turn_continuation_closes(sqrt_z):
    # two turns about the origin bring sqrt(z) back to itself
    loop = loop_path(0, 1.0, 2, anchor=1.0 + 0j)
    res = continue_branch(sqrt_z, SurfacePoint(1.0 + 0j, 1.0 + 0j), loop)
    assert res.endpoint.w == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("coeffs, path", [
    (["0", "-z"], polyline(1, 2 + 1j, 3)),
    (["0", "-(1+z^2)"], loop_path(0, 2.0, 1, anchor=3.0 + 0j)),
    (["0", "0", "-1/z"], loop_path(0, 1.0, 3, anchor=1.0 + 0j)),
])
def test_continue_branch_agrees_with_continue_fiber(coeffs, path):
    eq = DefiningEquation.from_strings(coeffs)
    fiber = fiber_at(eq, path.start_z)
    start = SurfacePoint(path.start_z, fiber.roots[0])
    roots = list(fiber.roots)
    roots[0] = germ_at(eq, start.z, start.w).w  # the germ continue_branch tracks
    res = continue_branch(eq, start, path)
    assert res.endpoint.w == continue_fiber(eq, roots, path)[0]
    assert len(res.samples) == res.step_count + 1
    ts = [t for t, _, _ in res.samples]
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(1.0)
    assert all(a < b for a, b in zip(ts, ts[1:]))
    fibers = [roots] + [f for _, _, walked in _walk(eq, roots, path, DEFAULT)
                        for f in walked.fibers[1:]]
    assert [f[0] for f in fibers] == [w for _, _, w in res.samples]
    assert res.min_root_separation == min(min_pairwise_distance(f) for f in fibers)


def test_partial_start_fiber_is_refused():
    # with one root there is no root separation, so neither the step cap nor
    # the drift gate would bind and the lone root can end on another sheet
    eq = DefiningEquation.from_strings(["0", "0", "-(z^3-1)"])
    path = polyline(1.221794470523415 - 0.9312336619949568j,
                    -0.8673157737221344 + 1.297928575807748j)
    roots = fiber_at(eq, path.start_z).roots
    assert continue_fiber(eq, roots, path)[0] == pytest.approx(-0.5962 - 1.2827j, abs=1e-4)
    with pytest.raises(ValueError, match="k = 3 roots, got 1"):
        continue_fiber(eq, [roots[0]], path)
    with pytest.raises(ValueError, match="k = 3 roots, got 1"):
        fiber_integral(eq, [roots[0]], path)


@pytest.mark.parametrize("coeffs, seg", [
    (["0", "-z"], Line(1, 4)),
    (["0", "-3", "-z"], Arc(2.0, 0.5, 0.0, 2 * math.pi)),  # about a branch point
    (["0", "0", "-z"], Arc(0j, 1.0, 0.0, 8 * math.pi)),  # four turns
    (["z/(z-3)", "-3", "-z^2+1/(z+2)"], Line(1j, -1 + 2j)),
])
def test_a_walk_keeps_the_slopes_it_stepped_with(coeffs, seg):
    # one row of dw/dz = -Psi_z/Psi_W per knot, the end knot's too, and the
    # read's slopes dw/dt = dw/dz * dz/dt
    eq = DefiningEquation.from_strings(coeffs)
    walked = _WalkedSegment(eq, seg, fiber_at(eq, seg.start).roots, DEFAULT)
    assert len(walked.dwdz) == len(walked.ts) > 2
    for z, fiber, row in zip(walked.zs, walked.fibers, walked.dwdz):
        assert _bits(row) == _bits([-eq.psi_z(w, z) / eq.psi_w(w, z) for w in fiber])
    ts, knots, slopes = walked.dense()
    assert _bits(knots) == _bits(walked.fibers)
    assert _bits(slopes) == _bits(np.array(walked.dwdz) * seg.derivs(ts)[:, None])


def test_a_walk_is_one_tracker_advanced_once(monkeypatch):
    # the walk steps in SegmentTracker.advance_to, the one stepping loop
    eq = DefiningEquation.from_strings(["0", "-3", "-z"])
    seg = Arc(2.0, 0.5, 0.0, 2 * math.pi)
    fiber = fiber_at(eq, seg.start).roots
    calls = {"init": 0, "advance_to": 0}
    init, advance_to = SegmentTracker.__init__, SegmentTracker.advance_to

    def counting_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    def counting_advance_to(self, t_target):
        calls["advance_to"] += 1
        advance_to(self, t_target)

    monkeypatch.setattr(SegmentTracker, "__init__", counting_init)
    monkeypatch.setattr(SegmentTracker, "advance_to", counting_advance_to)
    walked = _WalkedSegment(eq, seg, fiber, DEFAULT)
    assert calls == {"init": 1, "advance_to": 1}
    assert len(walked.ts) > 3


def test_a_walked_segment_is_a_tracker_at_its_end(sqrt_z):
    # a tracker advanced from 0 to 1 takes the knots of the walk; a walk has
    # one more slope row, its end knot's, and advance_to(1.0) moves nothing
    seg = Arc(0j, 2.0, 0.5, 7.0)
    fiber = fiber_at(sqrt_z, seg.start).roots
    walked = _WalkedSegment(sqrt_z, seg, fiber, DEFAULT)
    assert isinstance(walked, SegmentTracker)
    assert walked.t == pytest.approx(1.0, abs=1e-15)
    assert walked.start == list(fiber) and walked.end == walked.fiber
    trk = SegmentTracker(sqrt_z, seg, fiber, DEFAULT)
    trk.advance_to(1.0)
    assert _knots(trk) == _knots(walked)
    assert _bits(trk.dwdz) == _bits(walked.dwdz[:-1])
    knots, rows = _knots(walked), _bits(walked.dwdz)
    dense = [a.copy() for a in walked.dense()]
    walked.advance_to(1.0)
    assert _knots(walked) == knots and _bits(walked.dwdz) == rows
    assert all(np.array_equal(a, b) for a, b in zip(walked.dense(), dense))


def test_stepping_a_clone_leaves_the_original_as_it_was(sqrt_z):
    seg = Line(1, 4)
    trk = SegmentTracker(sqrt_z, seg, fiber_at(sqrt_z, 1).roots, DEFAULT)
    trk.advance_to(0.3)
    knots, rows = _knots(trk), _bits(trk.dwdz)
    twin = trk.clone()
    assert (_knots(twin), _bits(twin.dwdz)) == (knots, rows)
    twin.advance_to(1.0)
    assert (_knots(trk), _bits(trk.dwdz)) == (knots, rows)
    assert trk.t == 0.3 and len(twin.ts) > len(knots[0])
    # the clone goes on as the original would have
    trk.advance_to(1.0)
    assert (_knots(twin), _bits(twin.dwdz)) == (_knots(trk), _bits(trk.dwdz))


def test_a_tracker_started_at_a_knot_takes_the_later_knots_of_the_walk(sqrt_z):
    # the start parameter of a tracker: from knot i it reaches the knots after
    # i, as the walk did
    seg = Arc(0j, 2.0, 0.5, 7.0)
    walked = _WalkedSegment(sqrt_z, seg, fiber_at(sqrt_z, seg.start).roots, DEFAULT)
    i = len(walked.ts) // 2
    trk = SegmentTracker(sqrt_z, seg, walked.fibers[i], DEFAULT, walked.ts[i])
    trk.advance_to(1.0)
    assert _knots(trk) == tuple(part[i:] for part in _knots(walked))


def test_a_zero_psi_w_gives_a_nan_slope(sqrt_z):
    # the end knot's row is taken with no step after it: its samples fail
    # their gates and are tracked instead
    row = tracker._slopes(sqrt_z, 4.0, [2.0, -2.0], [0j, -4.0])
    assert cmath.isnan(row[0]) and row[1] == -0.25


def test_a_step_sweeps_at_most_half_a_turn(sqrt_z):
    # lines and arcs of one turn keep h_max 0.5 exactly, also when the sweep
    # of one turn rounds above 2 pi; about 100 the cap allows more than half
    # a turn, so there the half turn sets the steps
    one_turn = Arc(0j, 1.0, -3.3, -3.3 - 2 * math.pi)
    assert abs(one_turn.theta_to - one_turn.theta_from) > 2 * math.pi
    for seg in (Line(1, 4), Arc(0j, 1.0, 0.0, math.pi), loop_path(0, 1.0, 1).segments[0],
                one_turn):
        trk = SegmentTracker(sqrt_z, seg, fiber_at(sqrt_z, seg.start).roots, DEFAULT)
        assert trk.h_max == 0.5
    for center, turns in itertools.product((0, 100), (1, 2, 3, 4, 8)):
        seg = loop_path(center, 1.0, turns).segments[0]
        trk = SegmentTracker(sqrt_z, seg, fiber_at(sqrt_z, seg.start).roots, DEFAULT)
        assert trk.h_max == pytest.approx(0.5 / turns)
        walked = _WalkedSegment(sqrt_z, seg, trk.fiber, DEFAULT)
        assert max(np.diff(walked.ts)) <= trk.h_max * (1 + 1e-12)  # t rounds at each knot
        if center:
            assert len(walked.ts) == 2 * turns + 1


@pytest.mark.parametrize("turns", range(1, 9))
def test_a_loop_of_several_turns_gives_the_power_of_one_turn(turns):
    # W^3 - z: one turn about 0 gives sigma = [2, 0, 1], so T turns give
    # sigma^T; a step of a whole turn would skip one
    eq = DefiningEquation.from_strings(["0", "0", "-z"])
    loop = loop_path(0, 1.0, turns)
    want = [0, 1, 2]
    for _ in range(turns):
        want = [[2, 0, 1][j] for j in want]
    assert list(monodromy(eq, loop).image) == want
    fiber = fiber_at(eq, loop.start_z)
    assert [match_to_fiber(w, fiber) for w in continue_fiber(eq, fiber.roots, loop)] == want
