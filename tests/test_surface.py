"""Critical sets, fibers, monodromy, and the irreducibility gate."""

import cmath

import numpy as np
import pytest

from algebroid.config import DEFAULT
from algebroid.errors import (
    AlgebroidError,
    IdenticallyZeroDiscriminant,
    NearCriticalPoint,
)
from algebroid.exactalg import GaussianRational, parse_coefficient
from algebroid.rootfind import newton_polish, newton_polish_pairs, poly_eval, residual_scale
from algebroid.surface import (
    KIND_DISC,
    KIND_POLE,
    DefiningEquation,
    SheetPermutation,
    critical_points,
    fiber_at,
    irreducibility_check,
    monodromy,
)
from algebroid.tracker import loop_path


# W^2 - (z^2 - delta^2) is irreducible for every delta != 0: its discriminant
# 4 (z^2 - delta^2) has two simple roots, 2 delta apart
_DELTAS = pytest.mark.parametrize("delta, delta_squared", [(1e-7, "1/10^14"), (1e-8, "1/10^16")],
                                  ids=["delta-1e-7", "delta-1e-8"])


@_DELTAS
def test_two_close_simple_discriminant_roots_stay_two_points(delta, delta_squared):
    eq = DefiningEquation.from_strings(["0", f"-(z^2-{delta_squared})"])
    locations = sorted(eq.critical().locations, key=lambda z: z.real)
    assert len(locations) == 2
    assert locations == [pytest.approx(-delta, abs=1e-20), pytest.approx(delta, abs=1e-20)]


@_DELTAS
def test_two_close_branch_points_are_never_called_reducible(delta, delta_squared):
    eq = DefiningEquation.from_strings(["0", f"-(z^2-{delta_squared})"])
    try:
        result = irreducibility_check(eq, 1 + 1j)
    except AlgebroidError:
        return  # a typed refusal is an allowed answer
    assert result.transitive


def test_equation_rejects_repeated_factor():
    with pytest.raises(IdenticallyZeroDiscriminant):
        DefiningEquation.from_strings(["-2*z", "z^2"])


def test_psi_evaluation(sqrt_z):
    assert sqrt_z.psi(2.0, 4.0) == pytest.approx(0.0)
    assert sqrt_z.psi_w(2.0, 4.0) == pytest.approx(4.0)
    assert sqrt_z.psi_z(2.0, 4.0) == pytest.approx(-1.0)


@pytest.mark.parametrize("w", [0j, 0.7 - 1.3j])
def test_residual_scale_keeps_constant_term(w):
    # at w == 0 the scale is |A_2(z)| = 6, not the floor 1
    eq = DefiningEquation.from_strings(["0", "-(z+5)"])
    expected = residual_scale(eq.psi_coeffs_at(1.0), w)
    assert eq.residual_scale(w, 1.0) == pytest.approx(expected)
    assert expected == pytest.approx(6.0 + abs(w) ** 2)


def test_coefficient_rows_match_pointwise_coefficients():
    eq = DefiningEquation.from_strings(["z/(z-3)", "-3", "-z^2+1/(z+2)"])
    assert "_dcoeffs" not in vars(eq)  # dA_j/dz is taken on first use only
    zs = np.array([0.3 + 0.2j, 1 - 1j, 2j, -5.0])
    assert np.array_equal(eq.psi_coeffs_on(zs), [eq.psi_coeffs_at(z) for z in zs])
    assert eq._dcoeffs == tuple(c.derivative() for c in eq.coeffs)


def _bits(values) -> list:
    """The IEEE bit patterns of complex values: -0.0 differs from 0.0."""
    return np.ascontiguousarray(values, dtype=complex).view(np.int64).tolist()


@pytest.mark.parametrize("coeffs", [
    ["3/7", "-(1+2*i)"],  # constants: every dA_j/dz is zero
    ["z^2 - 3*i*z + 1/5", "-(z^3 - 1)"],  # polynomials
    ["1/(z - 1/3)", "z^3 + i*z", "-5/(z^2 + 1)"],  # poles
    ["0", "(1+z)/z^2", "-7", "z^4/(3*z - 2*i)"],  # a zero and a constant among them
])
def test_float_table_front_ends_are_bit_identical_to_the_old_forms(coeffs):
    # at: per-coefficient RatFunc.eval_complex; on: per-coefficient np.polyval
    eq = DefiningEquation.from_strings(coeffs)
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 5, 8, 17, 64, 257):
        zs = (rng.normal(size=n) + 1j * rng.normal(size=n)) * rng.choice([0.1, 1.0, 10.0], size=n)
        for z in zs.tolist():
            assert _bits(eq.psi_coeffs_at(z)) == _bits(
                [c.eval_complex(z) for c in reversed(eq.coeffs)] + [1.0 + 0j])
            assert _bits(eq.psi_z_coeffs_at(z)) == _bits(
                [0j if d.is_zero() else d.eval_complex(z) for d in reversed(eq._dcoeffs)])
        for zz in (zs, zs.real):  # Line.ats of a real segment gives float nodes
            def polyval(f):
                return (np.polyval(f.num._float_coeffs()[::-1], zz)
                        / np.polyval(f.den._float_coeffs()[::-1], zz))
            assert _bits(eq.psi_coeffs_on(zz)) == _bits(np.column_stack(
                [polyval(c) for c in reversed(eq.coeffs)] + [np.ones(n, dtype=complex)]))


@pytest.mark.parametrize("seed", range(4))
def test_batched_newton_matches_newton_polish(seed):
    # one Newton semantics: same stopping rule and fallback, entry by entry
    rng = np.random.default_rng(seed)
    n, k = 400, 1 + seed
    coeffs = rng.normal(size=(n, k + 1)) + 1j * rng.normal(size=(n, k + 1))
    coeffs[:, -1] = 1.0
    starts = (rng.normal(size=n) + 1j * rng.normal(size=n)) * rng.choice([0.1, 1.0, 10.0], size=n)
    batched = newton_polish_pairs(coeffs, starts, max_iter=30)
    for c, w, b in zip(coeffs, starts, batched):
        w1 = newton_polish(list(c), complex(w), max_iter=30)
        if w1 is None:
            assert np.isnan(b)
        else:
            # the two may stop one step apart; a last step is <= 1e-15 (1 + |w|)
            assert abs(b - w1) <= 2e-15 * (1.0 + abs(w1))


def test_newton_stops_at_the_rounding_floor():
    # each companion root of Wilkinson's prod (W - j), j = 1..18, reaches its
    # rounding floor within a few steps; from there the steps jitter without
    # shrinking, and Newton returns the iterate the gate passes there
    coeffs = np.poly(np.arange(1, 19))[::-1].astype(complex)
    roots = np.roots(coeffs[::-1]).astype(complex)
    cs = list(coeffs)
    scalar = [newton_polish(cs, r) for r in roots.tolist()]
    assert scalar == [newton_polish(cs, r, max_iter=6) for r in roots.tolist()]
    rows = np.tile(coeffs, (len(roots), 1))
    batched = newton_polish_pairs(rows, roots)
    assert batched.tolist() == newton_polish_pairs(rows, roots, max_iter=6).tolist()
    # numpy's complex division rounds apart from Python's, so the two forms
    # stop at two points of one root's noise ball, both within the gate
    for w1, b in zip(scalar, batched):
        assert round(w1.real) == round(b.real) and abs(b - w1) <= 1e-3
        for w in (w1, b):
            assert abs(poly_eval(cs, w)) <= 1e-16 * residual_scale(cs, w)


def test_newton_iterates_on_past_a_step_that_does_not_shrink_off_the_root():
    # W^3 - 1 from -1.6 steps 0.66, 0.69, 5.7, ...: the second step does not
    # shrink but fails the gate, so Newton goes on and reaches 1
    coeffs = [-1.0, 0.0, 0.0, 1.0]
    assert newton_polish(coeffs, -1.6 + 0j) == 1.0
    assert newton_polish_pairs(np.array([coeffs], dtype=complex), np.array([-1.6 + 0j]))[0] == 1.0


def test_batched_newton_reports_a_stall_as_nan():
    # p'(w) == 0 at the start: newton_polish returns None
    coeffs = np.array([[-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]], dtype=complex)
    out = newton_polish_pairs(coeffs, np.array([0j, 2.0 + 0j]))
    assert newton_polish(list(coeffs[0]), 0j) is None
    assert np.isnan(out[0]) and out[1] == newton_polish(list(coeffs[1]), 2.0 + 0j)


def test_critical_points_sqrt_z(sqrt_z):
    crit = critical_points(sqrt_z)
    assert len(crit) == 1
    assert crit.points[0].location == pytest.approx(0.0)
    assert crit.points[0].kind == KIND_DISC


def test_critical_points_pole(recip_z):
    crit = critical_points(recip_z)
    assert len(crit) == 1
    assert crit.points[0].location == pytest.approx(0.0)
    assert crit.points[0].kind == KIND_POLE


def test_critical_points_circle(circle_eq):
    crit = critical_points(circle_eq)
    locs = sorted(crit.locations, key=lambda z: z.imag)
    assert len(crit) == 2
    assert locs[0] == pytest.approx(-1j, abs=1e-10)
    assert locs[1] == pytest.approx(1j, abs=1e-10)
    assert all(p.kind == KIND_DISC for p in crit.points)


def test_critical_points_stable_under_tol_halving(sqrt_z, recip_z, circle_eq, split_eq):
    for eq in (sqrt_z, recip_z, circle_eq, split_eq):
        coarse = critical_points(eq, DEFAULT)
        fine = critical_points(eq, DEFAULT.replace(tol_cluster=DEFAULT.tol_cluster / 2))
        exact = critical_points(eq, DEFAULT.replace(tol_cluster=0.0))  # no clustering
        assert len(coarse) == len(fine) == len(exact)


@pytest.mark.parametrize("disc, expected", [
    ("(z^2-6*z+10)*(z-1)", [1, 3 - 1j, 3 + 1j]),
    ("(z^2-2*z+5)*(z^2+1)", [-1j, 1j, 1 - 2j, 1 + 2j]),
])
def test_critical_points_with_tied_real_parts_order_by_imag(disc, expected):
    # W^2 - disc: the computed real parts of a conjugate pair differ in their
    # last bits, which must not decide the order
    crit = critical_points(DefiningEquation.from_strings(["0", f"-({disc})"]))
    assert list(crit.locations) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("coeffs, expected", [
    (["0", "-(z-1)^2*(z+2)"], [-2, 1]),  # a node over z = 1
    (["0", "0", "-(2+i)*(z-1-i)"], [1 + 1j]),  # discriminant -27 (2+i)^2 (z-1-i)^2
    (["0", "-(2*z^2-1)^2/(z^2-1)"], [-1, -2 ** -0.5, 2 ** -0.5, 1]),
])
def test_double_discriminant_root_is_one_critical_point(coeffs, expected):
    eq = DefiningEquation.from_strings(coeffs)
    for tol in (DEFAULT, DEFAULT.replace(tol_cluster=0.0)):
        assert list(critical_points(eq, tol).locations) == pytest.approx(expected, abs=1e-14)


def test_fiber_at_square_roots(sqrt_z):
    fiber = fiber_at(sqrt_z, 4.0 + 0j)
    assert fiber.roots[0] == pytest.approx(-2.0)
    assert fiber.roots[1] == pytest.approx(2.0)


@pytest.mark.parametrize("z", [-2.5, -3.0])
def test_fiber_with_tied_real_parts_orders_by_imag(sqrt_z, z):
    # the computed real parts of +-i sqrt|z| differ from zero in their last
    # bits, which must not decide the sheet numbering
    root = cmath.sqrt(z)
    assert fiber_at(sqrt_z, complex(z)).roots == pytest.approx((-root, root), abs=1e-14)


def test_fiber_at_rejects_critical(sqrt_z):
    with pytest.raises(NearCriticalPoint):
        fiber_at(sqrt_z, 0j)


def test_fiber_at_k1(recip_z):
    fiber = fiber_at(recip_z, 2.0 + 0j)
    assert fiber.roots == (pytest.approx(0.5),)


def test_fiber_residual_bound(sqrt_z, circle_eq):
    for eq in (sqrt_z, circle_eq):
        for z in (1.3 + 0.7j, -2.0 + 0.1j, 5.0 - 3.0j):
            fiber = fiber_at(eq, z)
            for w in fiber.roots:
                bound = DEFAULT.eps_root * (1.0 + abs(z)) ** eq.max_coeff_degree
                assert abs(eq.psi(w, z)) < max(bound, DEFAULT.eps_root)


def test_monodromy_sqrt_z_is_transposition(sqrt_z):
    sigma = monodromy(sqrt_z, loop_path(0, 1.0, 1))
    assert sigma.image == (1, 0)


def test_monodromy_split_is_identity(split_eq):
    sigma = monodromy(split_eq, loop_path(0, 1.0, 1))
    assert sigma.is_identity()


def test_monodromy_circle_eq_big_loop_identity(circle_eq):
    sigma = monodromy(circle_eq, loop_path(0, 3.0, 1))
    assert sigma.is_identity()


def test_monodromy_reverse_is_inverse(sqrt_z):
    from algebroid.tracker import reverse

    loop = loop_path(0, 1.0, 1, anchor=2.0 + 0j)
    sigma = monodromy(sqrt_z, loop)
    tau = monodromy(sqrt_z, reverse(loop))
    assert tau == sigma.inverse()


def test_monodromy_concatenation_composes(circle_eq):
    # loops around i then around -i, both anchored at 0.25
    anchor = 0.25 + 0j
    up = loop_path(1j, 0.8, 1, anchor=anchor)
    down = loop_path(-1j, 0.8, 1, anchor=anchor)
    s_up = monodromy(circle_eq, up)
    s_down = monodromy(circle_eq, down)
    s_cat = monodromy(circle_eq, up + down)
    assert s_cat == s_down.compose(s_up)


def test_monodromy_no_critical_enclosed_is_identity(sqrt_z):
    sigma = monodromy(sqrt_z, loop_path(5.0 + 0j, 1.0, 1))
    assert sigma.is_identity()


def test_irreducibility_sqrt_z(sqrt_z):
    res = irreducibility_check(sqrt_z, 1.0 + 0j)
    assert res.transitive


def test_irreducibility_split(split_eq):
    res = irreducibility_check(split_eq, 1.0 + 0j)
    assert not res.transitive
    assert res.orbits == ((0,), (1,))


def test_irreducibility_k1(recip_z):
    assert irreducibility_check(recip_z, 1.0 + 0j).transitive


def test_scaled_equation(sqrt_z):
    alpha = GaussianRational.of(3)
    scaled = sqrt_z.scaled_by(alpha)
    # 3*sqrt(z) satisfies W^2 - 9z = 0
    assert scaled.coeffs[1] == parse_coefficient("-9*z")
    fiber = fiber_at(scaled, 4.0 + 0j)
    assert fiber.roots[1] == pytest.approx(6.0)


def test_sheet_permutation_orbits():
    sigma = SheetPermutation((1, 2, 0, 3))
    assert sigma.orbits() == [(0, 1, 2), (3,)]
    assert sigma.inverse().image == (2, 0, 1, 3)


@pytest.mark.parametrize("coeffs, z, roots", [
    (["0", "-z"], 1e300, [-1e150, 1e150]),
    (["-z"], 1e300, [1e300]),
    (["0", "0", "-z"], -1e300, [-1e100]),
])
def test_a_fiber_over_a_huge_z_has_all_its_roots(coeffs, z, roots):
    # |A_k(z)| >= 1e300 dwarfs Psi's leading 1, which is still no round-off
    eq = DefiningEquation.from_strings(coeffs)
    fiber = fiber_at(eq, z)
    assert len(fiber.roots) == eq.k
    for want in roots:
        assert min(abs(w - want) for w in fiber.roots) <= 1e-14 * abs(want)
