"""Puiseux extraction, residues, and growth bounds."""

import cmath
import math
import random

import numpy as np
import pytest

from algebroid import puiseux, quad, tracker
from algebroid.config import DEFAULT
from algebroid.errors import (
    AlgebroidError,
    AnnulusTooWide,
    LiftNotClosed,
    PrincipalPartTruncated,
)
from algebroid.puiseux import (
    PuiseuxExpansion,
    _local_turns,
    _turn,
    cycle_structure,
    default_radius,
    growth_bound,
    puiseux_expand,
    residue,
    residue_by_contour,
    singular_elements,
)
from algebroid.quad import fiber_integral, residue_theorem_check
from algebroid.surface import KIND_DISC, DefiningEquation, Fiber, _sheet_permutation, fiber_at
from algebroid.tracker import Arc, SegmentTracker, polyline


def test_cycle_structure_sqrt_z(sqrt_z):
    cycles = cycle_structure(sqrt_z, 0j)
    assert cycles == [(0, 1)]


def test_cycle_structure_circle_eq(circle_eq):
    cycles = cycle_structure(circle_eq, 1j)
    assert cycles == [(0, 1)]


def test_cycle_structure_split(split_eq):
    cycles = cycle_structure(split_eq, 0j)
    assert cycles == [(0,), (1,)]


def test_cycle_structure_reads_no_samples(monkeypatch, sqrt_z, recip_z):
    # the permutation and the walked circle need no Newton-corrected sample
    passes = []
    correct = tracker._correct

    def counting_correct(eq, zs, pred, tol):
        passes.append(len(pred))
        return correct(eq, zs, pred, tol)

    monkeypatch.setattr(tracker, "_correct", counting_correct)
    assert cycle_structure(sqrt_z, 0j) == [(0, 1)]
    assert passes == []
    # the contour residue reads only its quadrature nodes, the whole turn's first
    residue_by_contour(recip_z, 0j, (0,))
    assert passes[0] == len(quad._GL_X)


def test_cycles_partition_sheets(sqrt_z, circle_eq, split_eq, recip_z):
    for eq in (sqrt_z, circle_eq, split_eq, recip_z):
        for cp in eq.critical().points:
            cycles = cycle_structure(eq, cp.location)
            flat = sorted(s for c in cycles for s in c)
            assert flat == list(range(eq.k))


def test_puiseux_sqrt_z(sqrt_z):
    exp = puiseux_expand(sqrt_z, 0j, (0, 1))
    assert exp.m == 2
    assert exp.u == 1
    assert exp.coeffs[1] == pytest.approx(1.0, abs=1e-10)
    others = [abs(b) for n, b in exp.coeffs.items() if n != 1]
    assert all(v < 1e-10 for v in others)


def test_puiseux_recip_z(recip_z):
    exp = puiseux_expand(recip_z, 0j, (0,))
    assert exp.m == 1
    assert exp.u == -1
    assert exp.coeffs[-1] == pytest.approx(1.0, abs=1e-10)


def test_puiseux_circle_eq_leading_coefficient(circle_eq):
    exp = puiseux_expand(circle_eq, 1j, (0, 1))
    assert exp.m == 2
    assert exp.u == 1
    # leading coefficient is the principal square root of 2i
    assert exp.coeffs[1] == pytest.approx(cmath.sqrt(2j), abs=1e-8)


def test_residue_values(sqrt_z, recip_z):
    assert residue(puiseux_expand(sqrt_z, 0j, (0, 1))) == pytest.approx(0.0, abs=1e-10)
    assert residue(puiseux_expand(recip_z, 0j, (0,))) == pytest.approx(1.0, abs=1e-10)


def test_residue_synthetic_definition():
    exp = PuiseuxExpansion(0j, 2, -2, {-2: 3.0 + 0j}, (0, 1), 0, 0.5, 32)
    assert residue(exp) == pytest.approx(6.0)


def test_residue_by_contour_matches(sqrt_z, recip_z, circle_eq):
    assert abs(residue_by_contour(sqrt_z, 0j, (0, 1))) < 1e-10
    assert residue_by_contour(recip_z, 0j, (0,)) == pytest.approx(1.0, abs=1e-10)
    assert abs(residue_by_contour(circle_eq, 1j, (0, 1))) < 1e-8


def test_lemma2_identity_on_suite(sqrt_z, recip_z, circle_eq):
    # series residue and contour residue agree on every singular element
    for eq in (sqrt_z, recip_z, circle_eq):
        for cp in eq.critical().points:
            for cycle in cycle_structure(eq, cp.location):
                r_series = residue(puiseux_expand(eq, cp.location, cycle))
                r_contour = residue_by_contour(eq, cp.location, cycle)
                assert abs(r_series - r_contour) < 1e-8


def test_two_radius_consistency(sqrt_z, recip_z):
    for eq in (sqrt_z, recip_z):
        eps = default_radius(eq, 0j)
        cycle = cycle_structure(eq, 0j)[0]
        a = puiseux_expand(eq, 0j, cycle, epsilon=eps)
        b = puiseux_expand(eq, 0j, cycle, epsilon=eps / 2)
        scale = max(max(abs(v) for v in a.coeffs.values()),
                    max(abs(v) for v in b.coeffs.values()))
        for n in range(-DEFAULT.n_max // 2, DEFAULT.n_max // 2 + 1):
            va = a.coeffs.get(n, 0j)
            vb = b.coeffs.get(n, 0j)
            if max(abs(va), abs(vb)) > DEFAULT.tol_coeff * scale:
                assert abs(va - vb) <= 1e-8 * scale


def test_close_critical_points_pass_the_two_radius_check():
    # the depressed cubic W^3 + (2i - 3z)W + (-3 - i + (2+3i)z + (1+i)z^2) has two
    # critical points 0.80 apart; its high-order B_n agree between the radii
    # to their noise floors but not to 1e-7 of the largest coefficient
    eq = DefiningEquation.from_strings(["0", "2*i - 3*z", "-3 - i + (2+3*i)*z + (1+i)*z^2"])
    points = eq.critical().points
    assert len(points) == 4
    for cp in points:
        checks = residue_theorem_check(eq, cp.location)
        assert sorted(s for rc in checks for s in rc.cycle) == [0, 1, 2]
        for rc in checks:
            assert abs(rc.loop_value / (2j * math.pi) - rc.residue) < 1e-8


@pytest.mark.parametrize("delta", [1e-3, 1e-4])
def test_radial_leg_inside_the_path_margin(delta):
    # W^2 - (z^2 - delta^2): the leg from a + eps to a + eps/2 passes within
    # eps/2 of a, inside the path margin of a walked path; the radius rule
    # alone keeps the leg clear of the critical set. W ~ c (z - a)^(1/2),
    # though the other point's nearness makes the high-order B_n grow like
    # delta^(-n/2)
    eq = DefiningEquation.from_strings(["0", f"-(z^2 - 1/{round(delta ** -2)})"])
    assert eq.critical().locations == pytest.approx((-delta, delta), abs=1e-15)
    for a in eq.critical().locations:
        assert 0.5 * default_radius(eq, a) < tracker._path_margin(eq, DEFAULT)
        (cycle,) = singular_elements(eq, a).cycles
        assert cycle.sheets == (0, 1) and cycle.residue == 0
        assert cycle.expansion.u == 1


def test_planted_inner_turn_inconsistency_is_refused(monkeypatch, sqrt_z):
    turn = puiseux._turn
    eps = default_radius(sqrt_z, 0j)

    def planted(eq, a, roots, epsilon, n_samples, tol):
        rows, sigma, walked = turn(eq, a, roots, epsilon, n_samples, tol)
        if epsilon < eps:  # the inner turn's rows move by 1e-9, so B_0 does
            rows = rows + 1e-9
        return rows, sigma, walked

    monkeypatch.setattr(puiseux, "_turn", planted)
    with pytest.raises(AnnulusTooWide, match="B_0 "):
        singular_elements(sqrt_z, 0j)


def test_reconstruction_matches_tracked_branch(circle_eq):
    # truncated series vs the tracked lift on the half-radius circle
    a = 1j
    eps = default_radius(circle_eq, a)
    exp = puiseux_expand(circle_eq, a, (0, 1), epsilon=eps)
    rho = eps / 2
    fiber = fiber_at(circle_eq, a + rho)
    w_scale = max(abs(r) for r in fiber.roots)
    # windows onto the branch: match the series value at theta=0 to a sheet
    t0 = rho ** (1 / exp.m)
    pos = min(range(len(fiber.roots)),
              key=lambda i: abs(fiber.roots[i] - exp.series_value(t0)))
    assert abs(fiber.roots[pos] - exp.series_value(t0)) < 1e-6 * w_scale
    arc = Arc(a, rho, 0.0, 2 * math.pi * exp.m)
    trk = SegmentTracker(circle_eq, arc, list(fiber.roots), DEFAULT)
    n_check = 16
    for j in range(1, n_check):
        t_par = j / n_check
        trk.advance_to(t_par)
        theta = 2 * math.pi * exp.m * t_par
        t = rho ** (1 / exp.m) * cmath.exp(1j * theta / exp.m)
        assert abs(exp.series_value(t) - trk.fiber[pos]) < 1e-6 * w_scale


def test_growth_bound(sqrt_z, recip_z):
    assert growth_bound(sqrt_z, 0j) == 0
    assert growth_bound(recip_z, 0j) == 1
    assert growth_bound(sqrt_z, 5.0 + 0j) == 0


def test_singular_element_classification(sqrt_z, recip_z, circle_eq):
    rep = singular_elements(sqrt_z, 0j)
    assert len(rep.cycles) == 1
    assert rep.cycles[0].classification == "algebraic-element"

    rep = singular_elements(recip_z, 0j)
    assert rep.cycles[0].classification == "pole-element"

    rep = singular_elements(circle_eq, 1j)
    assert rep.cycles[0].classification == "algebraic-element"
    assert rep.cycles[0].residue == pytest.approx(0.0, abs=1e-9)


def test_radius_validation(circle_eq):
    # half the gap between i and -i is 1.0; radius must stay below it
    with pytest.raises(ValueError):
        puiseux_expand(circle_eq, 1j, (0, 1), epsilon=1.5)


def test_pole_branch_point_is_both():
    # W^2 - 1/z: two sheets collapsing at a coefficient pole
    from algebroid.surface import DefiningEquation

    eq = DefiningEquation.from_strings(["0", "-1/z"])
    rep = singular_elements(eq, 0j)
    assert len(rep.cycles) == 1
    cyc = rep.cycles[0]
    assert cyc.classification == "both"
    assert cyc.expansion.m == 2
    assert cyc.expansion.u == -1
    assert abs(cyc.residue) < 1e-9
    assert growth_bound(eq, 0j) == 1


def test_residue_by_contour_refuses_a_sheet_set_that_is_not_a_cycle(sqrt_z):
    # one turn about a square-root branch point lands on the other sheet
    with pytest.raises(LiftNotClosed):
        residue_by_contour(sqrt_z, 0j, (0,))


def test_puiseux_expand_refuses_a_sheet_set_that_is_not_a_cycle(sqrt_z):
    with pytest.raises(LiftNotClosed):
        puiseux_expand(sqrt_z, 0j, (0,))


def test_puiseux_expand_refuses_n_max_below_cycle_length(sqrt_z, recip_z):
    # B_{-m} lies outside -n_max..n_max, so the residue could not be read
    with pytest.raises(ValueError):
        puiseux_expand(sqrt_z, 0j, (0, 1), tol=DEFAULT.replace(n_max=1))
    with pytest.raises(ValueError):
        puiseux_expand(recip_z, 0j, (0,), tol=DEFAULT.replace(n_max=0))
    exp = puiseux_expand(recip_z, 0j, (0,), tol=DEFAULT.replace(n_max=1))
    assert exp.residue == pytest.approx(1.0)


TURN_CASES = [
    (["0", "-z"], 0j),
    (["0", "-3", "-z"], 2.0 + 0j),
    (["0", "0", "-z"], 0j),
    (["0", "-1/z"], 0j),
    (["0", "-(1+z^2)"], 1j),
]


def _stepwise_turn(eq, a, roots, eps, n_samples):
    """The turn tracked with one tracker stop per sample."""
    trk = SegmentTracker(eq, Arc(a, eps, 0.0, 2 * math.pi), roots, DEFAULT)
    rows = np.empty((n_samples, len(roots)), dtype=complex)
    for j in range(n_samples):
        trk.advance_to(j / n_samples)
        rows[j] = trk.fiber
    trk.advance_to(1.0)
    return rows, _sheet_permutation(trk.fiber, Fiber(a + eps, tuple(roots)), DEFAULT)


@pytest.mark.parametrize("coeffs, a", TURN_CASES)
def test_batched_turn_matches_a_stop_per_sample(coeffs, a):
    eq = DefiningEquation.from_strings(coeffs)
    eps = default_radius(eq, a)
    for radius in (eps, 0.5 * eps):
        roots = fiber_at(eq, a + radius).roots
        rows, sigma, _ = _turn(eq, a, roots, radius, 256, DEFAULT)
        ref_rows, ref_sigma = _stepwise_turn(eq, a, roots, radius, 256)
        assert sigma == ref_sigma
        assert np.abs(rows - ref_rows).max() <= 1e-13 * np.abs(ref_rows).max()


def test_turn_takes_only_the_tracker_steps(monkeypatch, sqrt_z):
    # the default n_max 32 asks for 256 samples; the circle needs far fewer steps
    steps = []
    step = SegmentTracker._step

    def counting_step(self, t_target):
        steps.append(self.seg)
        return step(self, t_target)

    monkeypatch.setattr(SegmentTracker, "_step", counting_step)
    eps = default_radius(sqrt_z, 0j)
    (rows, _, outer), _ = _local_turns(sqrt_z, 0j, eps, DEFAULT)
    assert len(rows) == 256
    assert 0 < steps.count(outer.seg) <= 32


def _push_prediction_to_other_sheet(monkeypatch, bad):
    """Push the prediction at parameter bad most of the way to the other
    sheet, so Newton lands there and the gates refuse it; returns the list
    the _step targets are recorded in."""
    hermite = tracker._hermite

    def perturbed(knot_t, knots, slopes, ts):
        pred = hermite(knot_t, knots, slopes, ts)
        hit = ts == bad
        pred[hit, 0] += 0.7 * (pred[hit, 1] - pred[hit, 0])
        return pred

    targets = []
    step = SegmentTracker._step

    def recording_step(self, t_target):
        targets.append(t_target)
        return step(self, t_target)

    monkeypatch.setattr(tracker, "_hermite", perturbed)
    monkeypatch.setattr(SegmentTracker, "_step", recording_step)
    return targets


def test_sample_failing_the_gates_becomes_a_tracker_stop(monkeypatch, sqrt_z):
    # the tracker stops at the refused sample
    bad = 37
    targets = _push_prediction_to_other_sheet(monkeypatch, bad / 256)
    eps = default_radius(sqrt_z, 0j)
    roots = fiber_at(sqrt_z, eps).roots
    rows, sigma, _ = _turn(sqrt_z, 0j, roots, eps, 256, DEFAULT)
    assert bad / 256 in targets
    trk = SegmentTracker(sqrt_z, Arc(0j, eps, 0.0, 2 * math.pi), roots, DEFAULT)
    trk.advance_to(bad / 256)
    assert list(rows[bad]) == trk.fiber
    ref_rows, ref_sigma = _stepwise_turn(sqrt_z, 0j, roots, eps, 256)
    assert sigma == ref_sigma
    assert np.abs(rows - ref_rows).max() <= 1e-13 * np.abs(ref_rows).max()


def test_gauss_node_failing_the_gates_becomes_a_tracker_stop(monkeypatch, sqrt_z):
    path = polyline(1, 4)
    roots = fiber_at(sqrt_z, 1.0).roots
    ref_values, ref_end = fiber_integral(sqrt_z, roots, path)
    bad = 0.5 + 0.5 * quad._GL_X[5]  # a node of the whole segment's piece
    targets = _push_prediction_to_other_sheet(monkeypatch, bad)
    values, end = fiber_integral(sqrt_z, roots, path)
    assert bad in targets
    scale = max(abs(v) for v in ref_values)
    assert max(abs(v - r) for v, r in zip(values, ref_values)) <= 1e-13 * scale
    assert max(abs(w - r) for w, r in zip(end, ref_end)) <= 1e-13 * max(abs(r) for r in ref_end)


def test_principal_part_below_the_window_is_refused():
    # W - 1/z^3: B_-3 lies outside -2..2 but inside -3..3
    eq = DefiningEquation.from_strings(["-1/z^3"])
    with pytest.raises(PrincipalPartTruncated, match="n_max = 2"):
        singular_elements(eq, 0j, tol=DEFAULT.replace(n_max=2))
    (cyc,) = singular_elements(eq, 0j, tol=DEFAULT.replace(n_max=3)).cycles
    assert cyc.expansion.u == -3
    assert cyc.classification == "pole-element"
    assert cyc.expansion.coeffs[-3] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n_max", [2, 8])
def test_small_n_max_is_not_aliased(circle_eq, n_max):
    # n_max 2 alone would ask for 16 samples per turn, whose aliasing reads a
    # pole (u = -1) into this bounded branch
    (cyc,) = singular_elements(circle_eq, 1j, tol=DEFAULT.replace(n_max=n_max)).cycles
    assert (cyc.expansion.u, cyc.classification) == (1, "algebraic-element")
    assert cyc.expansion.coeffs[1] == pytest.approx(cmath.sqrt(2j), abs=1e-8)


def _assert_series_residues_match_contour(eq, a):
    for rc in residue_theorem_check(eq, a):
        assert rc.discrepancy <= 1e-6 * max(1.0, abs(rc.loop_value))


def test_pole_beside_close_branch_points_keeps_its_principal_part():
    # W^2 - 1/(z^2 (z^2 - delta^2)), delta = 1e-3: W ~ +-1/(i delta z) at 0, and
    # the critical points at +-delta make the high-order B_n grow like delta^-n
    eq = DefiningEquation.from_strings(["0", "-1/(z^2*(z^2 - 1/1000000))"])
    cycles = singular_elements(eq, 0j).cycles
    assert [(c.sheets, c.expansion.u, c.classification) for c in cycles] == [
        ((0,), -1, "pole-element"), ((1,), -1, "pole-element")]
    assert [c.residue for c in cycles] == pytest.approx([-1000j, 1000j], rel=1e-9)
    _assert_series_residues_match_contour(eq, 0j)


def test_pole_near_other_critical_points_keeps_its_residue():
    # W^2 + ((-2+2i)/(3i - 2iz)) W + ((1-2i) + iz + (-2+2i)z^2): a simple pole
    # at 1.5, 0.25 from the nearest other critical point
    eq = DefiningEquation.from_strings(["(-2+2*i)/(3*i - 2*i*z)", "(1-2*i) + i*z + (-2+2*i)*z^2"])
    cycles = singular_elements(eq, 1.5).cycles
    assert [(c.sheets, c.classification) for c in cycles] == [
        ((0,), "regular"), ((1,), "pole-element")]
    assert cycles[0].residue == 0
    assert cycles[1].residue == pytest.approx(1 + 1j, abs=1e-9)
    _assert_series_residues_match_contour(eq, 1.5)
    assert growth_bound(eq, 1.5) == 1


def _random_equation(rng, with_den):
    """A k = 2 or 3 equation with Gaussian-integer polynomial coefficients of
    degree <= 2; with_den puts a degree 1-2 denominator under one of them."""
    def poly(deg):
        return " + ".join(f"({rng.randint(-2, 2)}+{rng.randint(-2, 2)}*i)*z^{d}"
                          for d in range(deg + 1))

    while True:
        exprs = [poly(rng.randint(0, 2)) for _ in range(rng.choice([2, 3]))]
        if with_den:
            j = rng.randrange(len(exprs))
            exprs[j] = f"({exprs[j]})/({poly(rng.randint(1, 2))})"
        try:
            return DefiningEquation.from_strings(exprs)
        except (ValueError, ZeroDivisionError, AlgebroidError):
            continue  # a zero denominator or an identically zero discriminant


def test_series_residues_match_contour_on_random_equations():
    rng = random.Random(4)
    for i in range(12):
        eq = _random_equation(rng, with_den=i % 2 == 1)
        for cp in eq.critical().points:
            _assert_series_residues_match_contour(eq, cp.location)
            if cp.kind == KIND_DISC:  # every branch is bounded there
                assert all(c.expansion.u >= 0
                           for c in singular_elements(eq, cp.location).cycles)
