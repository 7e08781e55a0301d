"""Antiderivative construction, symmetric coefficients, and the constant family."""

import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from algebroid.antideriv import (
    SheetRouter,
    _sv_audit,
    branch_integrals_at,
    build_antiderivative,
    constant_family,
    fit_rational,
    shifted_coeffs,
    symmetric_coeffs,
    verify_antiderivative,
)
from algebroid.config import DEFAULT
from algebroid.errors import (
    AlgebroidError,
    FitNotConverged,
    RefusedNonzeroResidue,
    RefusedReducible,
    SingleValuednessViolation,
    UnreachableSheet,
)
from algebroid.exactalg import GaussianRational, Poly, RatFunc, parse_coefficient
from algebroid.surface import KIND_DISC, CriticalPoint, DefiningEquation, SheetPermutation
from algebroid.surface import fiber_at, generator_loops, irreducibility_check, monodromy
from algebroid.tracker import SurfacePoint, loop_path


def rf(text):
    return parse_coefficient(text)


# --- symmetric coefficients ---------------------------------------------------


def test_symmetric_coeffs_plus_minus():
    b = symmetric_coeffs([2.0 + 0j, -2.0 + 0j])
    assert b[0] == pytest.approx(0.0)
    assert b[1] == pytest.approx(-4.0)


def test_symmetric_coeffs_one_two_three():
    # (M-1)(M-2)(M-3) = M^3 - 6M^2 + 11M - 6
    b = symmetric_coeffs([1, 2, 3])
    assert b == pytest.approx([-6, 11, -6])


def test_symmetric_coeffs_k1():
    assert symmetric_coeffs([5.0 + 1j]) == pytest.approx([-5.0 - 1j])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False,
                                   allow_infinity=False), min_size=1, max_size=4),
       st.randoms())
def test_symmetric_coeffs_permutation_invariant(values, rand):
    shuffled = list(values)
    rand.shuffle(shuffled)
    a = symmetric_coeffs(values)
    b = symmetric_coeffs(shuffled)
    assert all(abs(x - y) < 1e-9 * (1 + abs(x)) for x, y in zip(a, b))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=2,
                                   allow_nan=False, allow_infinity=False),
                min_size=2, max_size=4, unique=True))
def test_symmetric_coeffs_roots_reconstruct(values):
    # brute-force oracle: expand the polynomial and find its roots again;
    # clustered values are skipped (root recovery is ill-conditioned there)
    assume(min(abs(a - b) for i, a in enumerate(values)
               for b in values[i + 1:]) > 0.1)
    b = symmetric_coeffs(values)
    poly = np.array([1.0 + 0j] + list(b))
    roots = [complex(r) for r in np.roots(poly)]
    # the values are over 0.1 apart, so each root's nearest value is its own
    assert sorted(min(range(len(values)), key=lambda i: abs(r - values[i])) for r in roots) \
        == list(range(len(values)))
    assert all(min(abs(r - v) for v in values) < 1e-10 for r in roots)


@pytest.mark.parametrize("delta_squared", ["1/10^14", "1/10^16"], ids=["delta-1e-7", "delta-1e-8"])
def test_two_close_branch_points_are_not_refused_as_reducible(delta_squared):
    # W^2 - (z^2 - delta^2) is irreducible: a refusal may name the close
    # pair, but not reducibility
    eq = DefiningEquation.from_strings(["0", f"-(z^2-{delta_squared})"])
    base = SurfacePoint(1 + 1j, fiber_at(eq, 1 + 1j).roots[0])
    try:
        build_antiderivative(eq, base)
    except RefusedReducible as exc:
        pytest.fail(f"refused as reducible: {exc}")
    except AlgebroidError:
        pass


# --- branch integrals ---------------------------------------------------------


def test_branch_integrals_sqrt_z(sqrt_z):
    vals = branch_integrals_at(sqrt_z, SurfacePoint(1, 1), 4.0 + 0j)
    # canonical fiber at 4 is (-2, 2): sheet for -2 carries -6, sheet for 2 carries 14/3
    assert vals[0] == pytest.approx(-6.0, abs=1e-8)
    assert vals[1] == pytest.approx(14.0 / 3.0, abs=1e-8)


def test_branch_integrals_cube_root_closed_form():
    # W^3 - z: the integral of w dz is (3/4) z w, so entry j over z is
    # (3/4)(z w_j - w_b) for the j-th root w_j of the canonical fiber
    eq = DefiningEquation.from_strings(["0", "0", "-z"])
    for w_b in fiber_at(eq, 1.0 + 0j).roots:
        base = SurfacePoint(1.0 + 0j, w_b)
        router = SheetRouter(eq, base)
        for z in (2 + 1j, -3 + 0.2j, 0.5 - 2j):
            vals = branch_integrals_at(eq, base, z, router)
            for w_j, v in zip(fiber_at(eq, z).roots, vals):
                assert abs(v - 0.75 * (z * w_j - w_b)) < 1e-9


def test_branch_integrals_at_base_point(sqrt_z):
    vals = branch_integrals_at(sqrt_z, SurfacePoint(1, 1), 1.0 + 0j)
    assert vals[1] == 0  # own sheet: empty word, empty connector
    assert vals[0] == pytest.approx(-4.0 / 3.0, abs=1e-9)


def test_branch_integrals_unreachable_sheet(split_eq):
    with pytest.raises(UnreachableSheet):
        branch_integrals_at(split_eq, SurfacePoint(1, 1), 2.0 + 0j)


@pytest.mark.parametrize("coeffs", [["0", "0", "-z"], ["0", "-(z^2-1)"]],
                         ids=["cube-root", "two-branch-points"])
def test_router_generators_are_the_monodromy_generators(coeffs):
    eq = DefiningEquation.from_strings(coeffs)
    base = SurfacePoint(1.5 + 0.5j, fiber_at(eq, 1.5 + 0.5j).roots[0])
    router = SheetRouter(eq, base)
    assert tuple(router.gens) == irreducibility_check(eq, base.z).generators
    assert sorted(router.values) == list(range(eq.k))


def test_router_periods_cube_root_closed_form():
    # W^3 - z: the loop integral from sheet s is (3/4) z (w_{g(s)} - w_s)
    eq = DefiningEquation.from_strings(["0", "0", "-z"])
    z = 1.0 + 0j
    w = fiber_at(eq, z).roots
    router = SheetRouter(eq, SurfacePoint(z, w[0]))
    assert router.gens and all(not g.is_identity() for g in router.gens)
    for g, periods in zip(router.gens, router.periods):
        for s in range(3):
            assert abs(periods[s] - 0.75 * z * (w[g(s)] - w[s])) < 1e-9


def _assert_router_reads_the_whole_loops(eq, base, loops):
    """router.periods against each whole loop's _fiber_integrals (the return
    spoke walked), and router.gens against monodromy."""
    from algebroid.quad import _fiber_integrals

    router = SheetRouter(eq, base)
    assert len(router.gens) == len(loops)
    for loop, sigma, periods in zip(loops, router.gens, router.periods):
        ((whole, _, _),) = _fiber_integrals(eq, [(router.germs, loop)], DEFAULT)
        assert sigma == monodromy(eq, loop)
        scale = max(map(abs, whole))
        assert max(abs(p - w) for p, w in zip(periods, whole)) <= 1e-12 * scale


@pytest.mark.parametrize("coeffs, z0, spoke_segments", [
    (["0", "0", "-z"], 1.5 + 0.5j, 1),
    # the spoke to the circle about -1 passes through 1 and detours
    (["0", "-(z^2-1)"], 3.0 + 0j, 2),
], ids=["straight-spoke", "detoured-spoke"])
def test_router_periods_are_the_whole_loop_integrals(coeffs, z0, spoke_segments):
    eq = DefiningEquation.from_strings(coeffs)
    loops = [loop for _, loop in generator_loops(eq, z0)]
    assert len(loops[0].segments) == 2 * spoke_segments + 1
    _assert_router_reads_the_whole_loops(eq, SurfacePoint(z0, fiber_at(eq, z0).roots[0]), loops)


def test_router_period_of_a_loop_that_starts_on_its_circle(sqrt_z, monkeypatch):
    # the loop is the arc alone, so the spoke is empty
    import algebroid.antideriv as antideriv

    (cp,) = sqrt_z.critical(DEFAULT).points
    loop = loop_path(0, 1.0, 1, anchor=1.0)
    assert len(loop.segments) == 1
    monkeypatch.setattr(antideriv, "generator_loops", lambda *args: [(cp, loop)])
    _assert_router_reads_the_whole_loops(sqrt_z, SurfacePoint(1, 1), [loop])


# --- rational fitting ---------------------------------------------------------


def _circle_samples(fn, radii=(1.0, 2.0), n=20):
    samples = []
    for r in radii:
        for j in range(n):
            z = r * complex(math.cos(2 * math.pi * (j + 0.3) / n),
                            math.sin(2 * math.pi * (j + 0.3) / n))
            samples.append((z, fn(z)))
    return samples


def test_fit_exact_cubic():
    target = rf("-(4/9)*z^3")
    fitted, resid = fit_rational(_circle_samples(target.eval_complex), (6, 6))
    assert fitted == target
    assert resid < 1e-8


def test_fit_all_zero_samples():
    fitted, resid = fit_rational(_circle_samples(lambda z: 0j), (4, 4))
    assert fitted == RatFunc.zero()


def test_fit_simple_pole():
    target = rf("1/z")
    fitted, _ = fit_rational(_circle_samples(target.eval_complex, radii=(2.0, 3.0)), (4, 4))
    assert fitted == target


def test_fit_mixed_rational():
    target = rf("(z^2-1)/(z^2+4)")
    fitted, resid = fit_rational(_circle_samples(target.eval_complex), (5, 5))
    assert fitted == target


# --- model construction -------------------------------------------------------


def test_build_antiderivative_sqrt_z(sqrt_z):
    model = build_antiderivative(sqrt_z, SurfacePoint(1, 1), c=2.0 / 3.0)
    b1, b2 = model.coeffs
    # B1 = 0, B2 = -(4/9) z^3
    assert all(abs(complex(co)) < 1e-6 for co in b1.num._float_coeffs())
    target = rf("-(4/9)*z^3")
    diff = b2 - target
    assert all(abs(complex(co)) < 1e-6 for co in diff.num._float_coeffs())
    assert model.diagnostics.derivative_defect < 1e-7


def test_build_antiderivative_k1_meromorphic():
    # W = z^2, base germ (0, 0): antiderivative coefficient is -z^3/3
    eq = DefiningEquation.from_strings(["-z^2"])
    model = build_antiderivative(eq, SurfacePoint(0, 0))
    assert model.coeffs[0] == rf("-z^3/3")
    assert model.diagnostics.derivative_defect < 1e-8


def test_build_refuses_reducible(split_eq):
    with pytest.raises(RefusedReducible):
        build_antiderivative(split_eq, SurfacePoint(1, 1))


def test_build_refuses_nonzero_residue(recip_z):
    with pytest.raises(RefusedNonzeroResidue):
        build_antiderivative(recip_z, SurfacePoint(1, 1))


def test_build_refuses_the_residue_of_a_pole_near_other_critical_points():
    # W^2 + ((-2+2i)/(3i - 2iz)) W + ((1-2i) + iz + (-2+2i)z^2): residue 1 + i
    # at the pole 1.5, whose nearest other critical point is 0.25 away
    eq = DefiningEquation.from_strings(["(-2+2*i)/(3*i - 2*i*z)", "(1-2*i) + i*z + (-2+2*i)*z^2"])
    z0 = 3 + 1j
    with pytest.raises(RefusedNonzeroResidue, match=r"center \(1\.5\+0j\)") as info:
        build_antiderivative(eq, SurfacePoint(z0, fiber_at(eq, z0).roots[0]))
    ((center, _, residue),) = info.value.offenders
    assert center == 1.5 and residue == pytest.approx(1 + 1j, abs=1e-9)


def test_build_refuses_reducible_before_nonzero_residue():
    # sheets 1/z and 1/z + 1: each has residue 1 at the pole, but the
    # equation is reducible, and that refusal comes first
    eq = DefiningEquation.from_strings(["-(2/z + 1)", "(1+z)/z^2"])
    with pytest.raises(RefusedReducible) as info:
        build_antiderivative(eq, SurfacePoint(1, 1))
    assert info.value.orbits == ((0,), (1,))


def test_residue_gate_skips_points_where_no_coefficient_has_a_pole(sqrt_z):
    # W^2 - z has only a discriminant zero: its residue is exactly 0, so the
    # gate reads no loop period there; at residue_tol -1 any it read would refuse
    model = build_antiderivative(sqrt_z, SurfacePoint(1, 1), c=2.0 / 3.0,
                                 tol=DEFAULT.replace(residue_tol=-1.0))
    assert model.diagnostics.derivative_defect < 1e-7


def test_build_antiderivative_reaches_no_puiseux_code(monkeypatch):
    # the residue gate reads the router's loop periods: W^2 - 1/z (residue 0
    # at its pole 0) builds, and the pole 1.5 still has residue 1 + i
    from algebroid import puiseux

    def refuse(*args, **kwargs):
        raise AssertionError("Puiseux code called")

    monkeypatch.setattr(puiseux, "_walk_turns", refuse)
    monkeypatch.setattr(puiseux, "singular_elements", refuse)
    recip_sqrt = DefiningEquation.from_strings(["0", "-1/z"])
    model = build_antiderivative(recip_sqrt, SurfacePoint(1, 1))
    assert model.diagnostics.derivative_defect < 1e-7
    eq = DefiningEquation.from_strings(["(-2+2*i)/(3*i - 2*i*z)", "(1-2*i) + i*z + (-2+2*i)*z^2"])
    z0 = 3 + 1j
    with pytest.raises(RefusedNonzeroResidue) as info:
        build_antiderivative(eq, SurfacePoint(z0, fiber_at(eq, z0).roots[0]))
    ((center, _, residue),) = info.value.offenders
    assert center == 1.5 and residue == pytest.approx(1 + 1j, abs=1e-9)


def test_residue_at_a_pole_far_from_the_base_survives_its_long_spokes():
    # W = z^3 + 1/z^2 from base 100: each spoke of the loop about the pole 0
    # integrates to about 2.5e7, yet the loop gives residue 0, and
    # M = z^4/4 - 1/z, so B_1 = -M
    eq = DefiningEquation.from_strings(["-(z^3 + 1/z^2)"])
    model = build_antiderivative(eq, SurfacePoint(100, 100**3 + 100**-2), c=100**4 / 4 - 1 / 100)
    assert model.coeffs == (rf("((-1/4)*z^5 + 1)/z"),)


@pytest.mark.xfail(strict=True, raises=RefusedNonzeroResidue, reason=(
    "the loop about the pole 0, alone, has radius 0.5 * |base - 0| = 500, and the "
    "circle's own quadrature rounding reads a residue of about 5e-6 from the circle "
    "integral alone, above residue_tol 1e-8; walking the loop as spoke + circle "
    "does not remove it"))
def test_a_zero_residue_far_from_the_base_is_not_refused():
    # W = z^3 + 1/z^2 has residue 0 at its pole 0
    eq = DefiningEquation.from_strings(["-(z^5 + 1)/z^2"])
    try:
        build_antiderivative(eq, SurfacePoint(1000, 1000**3 + 1e-6))
    except RefusedNonzeroResidue:
        raise
    except AlgebroidError:
        pass  # the edge-period gate reads the same circle; this test pins the residue gate


def test_build_flags_period_at_infinity(circle_eq):
    with pytest.raises(SingleValuednessViolation):
        build_antiderivative(circle_eq, SurfacePoint(0, 1))


def test_period_at_infinity_is_named_by_generator_sheet_and_period(circle_eq):
    # criterion 9: the residues at +-i are 0, but a closed lift around both
    # branch points has the period +-pi i of the loop at infinity
    with pytest.raises(SingleValuednessViolation) as info:
        build_antiderivative(circle_eq, SurfacePoint(0, 1))
    exc = info.value
    assert abs(exc.period) == pytest.approx(math.pi, abs=1e-9)
    center = SheetRouter(circle_eq, SurfacePoint(0, 1)).centers[exc.generator].location
    assert f"sheet {exc.sheet} around monodromy generator {exc.generator}" in str(exc)
    assert f"critical point {center}" in str(exc) and f"period {exc.period}" in str(exc)


def test_sv_audit_refuses_a_loop_that_only_permutes_the_values():
    # k = 2, sigma the identity, and a loop that carries sheet 0 onto sheet
    # 1's value and back: the symmetric functions of the values close up,
    # but the edges (0, 0) and (1, 0) have periods 1 and -1
    router = SimpleNamespace(eq=SimpleNamespace(k=2), gens=[SheetPermutation((0, 1))],
                             periods=[[1 + 0j, -1 + 0j]], values={0: 0j, 1: 1 + 0j},
                             centers=[CriticalPoint(0j, KIND_DISC)])
    after = [router.values[s] + router.periods[0][s] for s in range(2)]
    assert symmetric_coeffs(after) == pytest.approx(symmetric_coeffs([0j, 1 + 0j]))
    with pytest.raises(SingleValuednessViolation) as info:
        _sv_audit(router, DEFAULT)
    exc = info.value
    assert (exc.defect, exc.generator, exc.sheet, exc.period) == (1.0, 0, 0, 1)


@pytest.mark.parametrize("direction", [math.inf, -math.inf], ids=["second-larger", "first-larger"])
def test_sv_audit_names_the_first_of_two_equal_periods(direction):
    # conjugate periods whose moduli differ in the last bit, as rounding
    # leaves those of a real equation: the refusal names generator 0 whichever
    # is larger, and its defect is the larger
    period = 11.561670942517242 + 3.25j
    other = complex(math.nextafter(period.real, direction), -period.imag)
    assert (abs(other) > abs(period)) == (direction > 0)
    router = SimpleNamespace(eq=SimpleNamespace(k=1), gens=[SheetPermutation((0,))] * 2,
                             periods=[[period], [other]], values={0: 0j},
                             centers=[CriticalPoint(1 + 1j, KIND_DISC),
                                      CriticalPoint(1 - 1j, KIND_DISC)])
    with pytest.raises(SingleValuednessViolation) as info:
        _sv_audit(router, DEFAULT)
    exc = info.value
    assert (exc.generator, exc.sheet, exc.period) == (0, 0, period)
    assert exc.defect == max(abs(period), abs(other))


def test_uniqueness_under_grid_change(sqrt_z):
    model_a = build_antiderivative(sqrt_z, SurfacePoint(1, 1), c=2.0 / 3.0, verify=False)
    grid = [1.3 * np.exp(2j * math.pi * j / 23) for j in range(23)]
    grid += [2.6 * np.exp(2j * math.pi * (j + 0.5) / 23) for j in range(23)]
    model_b = build_antiderivative(sqrt_z, SurfacePoint(1, 1), c=2.0 / 3.0,
                                   grid=grid, verify=False)
    for ca, cb in zip(model_a.coeffs, model_b.coeffs):
        diff = ca - cb
        assert all(abs(complex(co)) < 1e-6 for co in diff.num._float_coeffs())


def test_verify_catches_sign_error(sqrt_z):
    model = build_antiderivative(sqrt_z, SurfacePoint(1, 1), c=2.0 / 3.0, verify=False)
    # correct model passes
    assert verify_antiderivative(model, sqrt_z) < 1e-7
    # flipping B2's sign breaks the derivative identity
    from algebroid.antideriv import AntiderivativeModel

    broken = AntiderivativeModel(
        model.k, model.base, model.c,
        (model.coeffs[0], -model.coeffs[1]), model.r, model.diagnostics,
    )
    assert verify_antiderivative(broken, sqrt_z) > 1e-3


def test_verify_k1_sign_sanity():
    # model M - z^3/3 = 0 (B1 = -z^3/3) has derivative z^2 matching W = z^2;
    # model M + z^3/3 = 0 has derivative -z^2 and must fail
    eq = DefiningEquation.from_strings(["-z^2"])
    model = build_antiderivative(eq, SurfacePoint(0, 0), verify=False)
    assert verify_antiderivative(model, eq) < 1e-8
    from algebroid.antideriv import AntiderivativeModel

    wrong = AntiderivativeModel(1, model.base, model.c, (-model.coeffs[0],), model.r,
                                model.diagnostics)
    assert verify_antiderivative(wrong, eq) > 1e-2


@pytest.mark.parametrize("coeffs, base", [(["-z^2"], SurfacePoint(0, 0)),
                                          (["0", "-z"], SurfacePoint(1, 1))], ids=["k1", "k2"])
def test_verify_catches_a_shifted_constant(coeffs, base):
    # B_k + 1 leaves Psi_M,z and Psi_M,W as they are, so the derivative
    # identity alone misses it: the B_j must also annihilate R
    from dataclasses import replace

    eq = DefiningEquation.from_strings(coeffs)
    model = build_antiderivative(eq, base, verify=False)
    shifted = replace(model, coeffs=model.coeffs[:-1] + (model.coeffs[-1] + RatFunc.one(),))
    assert verify_antiderivative(model, eq) < 1e-8
    assert verify_antiderivative(shifted, eq) > 1e-3


def test_fit_not_converged_on_transcendental():
    import cmath

    samples = _circle_samples(cmath.exp)
    from algebroid.errors import FitNotConverged

    with pytest.raises(FitNotConverged):
        fit_rational(samples, (3, 3))


def test_build_antiderivative_cube_root():
    # W^3 - z: branch integrals are the rotations of (3/4) z^(4/3), so
    # B1 = B2 = 0 and B3 = -(27/64) z^4
    eq = DefiningEquation.from_strings(["0", "0", "-z"])
    model = build_antiderivative(eq, SurfacePoint(1, 1), c=3.0 / 4.0)
    b1, b2, b3 = model.coeffs
    target = rf("-(27/64)*z^4")
    for small in (b1, b2):
        assert small.is_zero() or all(
            abs(complex(co)) < 1e-6 for co in small.num.coeffs
        )
    diff = b3 - target
    assert diff.is_zero() or all(abs(complex(co)) < 1e-6 for co in diff.num.coeffs)
    assert model.diagnostics.derivative_defect < 1e-7


def test_build_antiderivative_shifted_cube_root():
    # W^3 - (2+i)(z-1-i): the discriminant has a double root at 1+i, and
    # B3 = -(2+i)(3/4)^3 (z-1-i)^4 when M(2+i) = (3/4) w0 (z0 - 1 - i)
    eq = DefiningEquation.from_strings(["0", "0", "-(2+i)*(z-1-i)"])
    w0 = (2 + 1j) ** (1 / 3)
    model = build_antiderivative(eq, SurfacePoint(2 + 1j, w0), c=0.75 * w0)
    want = [0, 0, rf("-(2+i)*(27/64)*(z-1-i)^4")]
    for got, b in zip(model.coeffs, want):
        diff = got - b
        assert diff.is_zero() or all(abs(complex(co)) < 1e-6 for co in diff.num.coeffs)
    assert model.diagnostics.derivative_defect < 1e-7


def test_build_antiderivative_through_a_node():
    # W^2 - (2z^2-1)^2/(z^2-1) is the derivative of z sqrt(z^2-1); its
    # discriminant has double roots at +-1/sqrt(2), where no sheet branches
    z0 = 2 + 1j
    w0 = (2 * z0 ** 2 - 1) / cmath.sqrt(z0 ** 2 - 1)
    eq = DefiningEquation.from_strings(["0", "-(2*z^2-1)^2/(z^2-1)"])
    model = build_antiderivative(eq, SurfacePoint(z0, w0), c=z0 * cmath.sqrt(z0 ** 2 - 1))
    b1, b2 = model.coeffs
    assert b1.is_zero() or all(abs(complex(co)) < 1e-6 for co in b1.num.coeffs)
    diff = b2 - rf("z^2 - z^4")
    assert diff.is_zero() or all(abs(complex(co)) < 1e-6 for co in diff.num.coeffs)
    assert model.diagnostics.derivative_defect < 1e-7


def test_build_antiderivative_pole_branch_point():
    # W^2 - 1/z: the branch point at 0 is also a coefficient pole; residue
    # is still zero, and the branch integrals from (1,1) are +-2 sqrt(z) - 2
    # shifted by the -4 loop period, giving M^2 + 4M + (4 - 4z) = 0
    eq = DefiningEquation.from_strings(["0", "-1/z"])
    model = build_antiderivative(eq, SurfacePoint(1, 1))
    assert model.coeffs[0] == rf("4")
    assert model.coeffs[1] == rf("4 - 4*z")
    assert model.diagnostics.derivative_defect < 1e-7


def test_float_base_coefficients_are_exactly_consistent_k2():
    # W^2 + L with L = 4 + (-1+i) z: M = C + r_1 W with r_1 = -(1+i) L / 3, so
    # B_2 - B_1^2 / 4 = r_1^2 L = (2i/9) L^3 whatever the float constant C
    eq = DefiningEquation.from_strings(["0", "4 + (-1+i)*z"])
    z0 = 1.3 + 0.2j
    model = build_antiderivative(eq, SurfacePoint(z0, cmath.sqrt(-(4 + (-1 + 1j) * z0))))
    b1, b2 = model.coeffs
    assert b2 - b1 * b1 / RatFunc.constant(4) == rf("(2*i/9)*(4 + (-1+i)*z)^3")


def test_float_base_coefficients_are_exactly_consistent_k3():
    # W^3 - 2z: M = C + (3/4) z W with C = -(3/4) 2^(1/3) from (1, 2^(1/3)),
    # so (M - C)^3 = (27/32) z^4 ties every B_j to B_1 = -3C
    eq = DefiningEquation.from_strings(["0", "0", "-2*z"])
    model = build_antiderivative(eq, SurfacePoint(1, 2 ** (1 / 3)))
    b1, b2, b3 = model.coeffs
    assert b2 == b1 * b1 / RatFunc.constant(3)
    assert b3 == b1 * b1 * b1 / RatFunc.constant(27) - rf("(27/32)*z^4")
    assert abs(b1.eval_complex(0) - 2.25 * 2 ** (1 / 3)) < 1e-14
    # C is irrational: no small-denominator fraction lies within its noise
    assert model.diagnostics.constant_fine_den
    assert model.diagnostics.constant_snap < 1e-15


def test_constant_is_taken_out_of_a_fitted_denominator():
    # W = -1/z^2 from (1.3, -1/1.3^2): r_0 = C + 1/z = (C z + 1)/z is fitted
    # with C spread over its numerator; only the 1/z is kept, and C = -10/13
    # is read at the base germ
    eq = DefiningEquation.from_strings(["1/z^2"])
    model = build_antiderivative(eq, SurfacePoint(1.3, -1 / 1.3**2))
    assert model.coeffs == (rf("10/13 - 1/z"),)
    assert not model.diagnostics.constant_fine_den


def test_r_i_above_the_degree_bounds_is_refused_by_name(sqrt_z):
    # r_0 = C is a constant, but r_1 = (2/3) z has degree 1
    with pytest.raises(FitNotConverged, match=r"^r_1: "):
        build_antiderivative(sqrt_z, SurfacePoint(1, 1), c=2.0 / 3.0, bounds=(0, 0))


def _count_connectors(monkeypatch):
    """One entry per path handed to the batched fiber integral: loops and connectors."""
    import algebroid.antideriv as antideriv

    calls = []
    real = antideriv._fiber_integrals

    def counted(eq, starts, tol):
        calls.extend(1 for _ in starts)
        return real(eq, starts, tol)

    monkeypatch.setattr(antideriv, "_fiber_integrals", counted)
    return calls


def _certify_failing(monkeypatch, times):
    import algebroid.antideriv as antideriv

    calls = []
    real = antideriv._certify

    def certify(eq, r):
        calls.append(1)
        return len(calls) > times and real(eq, r)

    monkeypatch.setattr(antideriv, "_certify", certify)
    return calls


def test_default_grid_has_eight_connectors(sqrt_z, monkeypatch):
    connectors = _count_connectors(monkeypatch)
    model = build_antiderivative(sqrt_z, SurfacePoint(1, 1), c=2.0 / 3.0)
    # two paths are the spoke and the circle of the router's loop about the
    # one critical point
    assert len(connectors) - 2 == len(model.diagnostics.sample_grid) == 8


def test_loops_and_connectors_are_read_in_few_batches(sqrt_z, monkeypatch):
    # one Newton pass over the spoke and circle of all the router's loops,
    # then one over all connectors: 2 loop segments and 8 connectors, each
    # walked in fewer than 8 steps and passing at its first test, so its one
    # read takes its whole and halves (3 pieces of 16 nodes); one pass per
    # segment per level took 26
    from algebroid import tracker

    passes = []
    correct = tracker._correct

    def counting_correct(eq, zs, pred, tol):
        passes.append(len(pred))
        return correct(eq, zs, pred, tol)

    monkeypatch.setattr(tracker, "_correct", counting_correct)
    build_antiderivative(sqrt_z, SurfacePoint(1, 1), c=2.0 / 3.0)
    assert passes == [2 * 3 * 16, 8 * 3 * 16]


def test_build_walks_each_stretch_of_its_paths_once(sqrt_z, monkeypatch):
    # 27 tracker steps: 2 on the router's spoke, 7 on its circle and 18 on
    # the grid's connector tree; walking the return spoke again takes 2 more
    # and star connectors from the base 6 more
    from algebroid import tracker

    steps = []
    step = tracker.SegmentTracker._step

    def counting_step(self, t_target):
        steps.append(1)
        return step(self, t_target)

    monkeypatch.setattr(tracker.SegmentTracker, "_step", counting_step)
    build_antiderivative(sqrt_z, SurfacePoint(1, 1), c=2.0 / 3.0)
    assert len(steps) <= 27


def test_default_grid_solves_each_grid_fiber_once(sqrt_z, monkeypatch):
    # the Vandermonde solve reads the fiber each connector's walk ended on,
    # so no grid fiber is solved by fiber_at
    import algebroid.antideriv as antideriv

    zs = []
    real = antideriv.fiber_at

    def counted(eq, z, *args, **kwargs):
        zs.append(z)
        return real(eq, z, *args, **kwargs)

    monkeypatch.setattr(antideriv, "fiber_at", counted)
    model = build_antiderivative(sqrt_z, SurfacePoint(1, 1), c=2.0 / 3.0, verify=False)
    grid = model.diagnostics.sample_grid
    assert len(grid) == 8
    assert [zs.count(z) for z in grid] == [0] * 8


def test_build_polishes_its_base_once(sqrt_z, count_calls):
    zs = count_calls("germ_at")
    build_antiderivative(sqrt_z, SurfacePoint(1, 1), c=2.0 / 3.0, verify=False)
    assert zs == [1]


def test_verify_reuses_the_grid_fibers(sqrt_z, count_calls, monkeypatch):
    zs = count_calls("fiber_at")
    discriminants = count_calls("discriminant")
    eq = DefiningEquation.from_strings(["0", "-z"])
    model = build_antiderivative(eq, SurfacePoint(1, 1), c=2.0 / 3.0)
    # the base fiber only: W's roots at a probe are the end fiber of the grid
    # connector _fit_r walked, and M's values there come from them, so no
    # equation of M is built or solved and W's is the one discriminant
    assert len(zs) == 1
    assert len(discriminants) == 1
    monkeypatch.undo()
    plain = build_antiderivative(sqrt_z, SurfacePoint(1, 1), c=2.0 / 3.0, verify=False)
    assert model.coeffs == plain.coeffs
    # walked and freshly solved roots agree to rounding, not bit for bit
    assert model.diagnostics.derivative_defect == pytest.approx(
        verify_antiderivative(plain, sqrt_z), rel=0, abs=1e-15)


@pytest.mark.parametrize("coeffs", [["0", "0", "-z"], ["0", "-1/z"]],
                         ids=["cube-root", "sqrt-of-inverse"])
def test_walked_pairs_are_the_canonical_pairs(coeffs):
    # the fit reads (end root, integral) in lift order; as a set of pairs it
    # is branch_integrals_at's canonical order
    from algebroid.antideriv import _walked_branch_integrals

    eq = DefiningEquation.from_strings(coeffs)
    base = SurfacePoint(1.5 + 0.5j, fiber_at(eq, 1.5 + 0.5j).roots[0])
    router = SheetRouter(eq, base)
    zs = [2 + 1j, -3 + 0.2j, 0.5 - 2j, base.z]
    for z, (ends, values) in zip(zs, _walked_branch_integrals(eq, zs, router, DEFAULT, None)):
        canonical = dict(zip(fiber_at(eq, z).roots, branch_integrals_at(eq, base, z, router)))
        assert len(ends) == len(values) == eq.k
        for w, v in zip(ends, values):
            nearest = min(canonical, key=lambda r: abs(r - w))
            assert abs(nearest - w) < 1e-12
            assert abs(canonical[nearest] - v) < 1e-12


@pytest.mark.parametrize("per_circle", [4, 24], ids=["default-grid", "retry-grid"])
def test_grid_connectors_are_a_nearest_point_tree(sqrt_z, per_circle, monkeypatch):
    # each grid point is reached from the nearest of the base and the points
    # before it, and its (end root, value) pairs are still the canonical ones
    import algebroid.antideriv as antideriv
    from algebroid.antideriv import _default_grid, _walked_branch_integrals

    legs = []
    route = antideriv.safe_line

    def recording_route(z0, z1, *args):
        legs.append((z0, z1))
        return route(z0, z1, *args)

    base = SurfacePoint(1, 1)
    router = SheetRouter(sqrt_z, base)
    grid = _default_grid(sqrt_z, per_circle, DEFAULT)
    monkeypatch.setattr(antideriv, "safe_line", recording_route)
    walked = _walked_branch_integrals(sqrt_z, grid, router, DEFAULT, None)
    monkeypatch.undo()
    assert [z1 for _, z1 in legs] == grid
    reached = [base.z]
    for z0, z1 in legs:
        assert z0 in reached and abs(z1 - z0) == min(abs(z1 - z) for z in reached)
        reached.append(z1)
    if per_circle == 4:  # each outer point by a radial leg from the inner point on its ray
        assert legs[4:] == [(grid[j], grid[4 + j]) for j in range(4)]
    for z, (ends, values) in zip(grid, walked):
        canonical = dict(zip(fiber_at(sqrt_z, z).roots, branch_integrals_at(sqrt_z, base, z, router)))
        for w, v in zip(ends, values):
            nearest = min(canonical, key=lambda r: abs(r - w))
            assert abs(nearest - w) < 1e-12
            assert abs(canonical[nearest] - v) < 1e-12


def test_failed_certificate_retries_once_on_the_full_grid(sqrt_z, monkeypatch):
    connectors = _count_connectors(monkeypatch)
    certified = _certify_failing(monkeypatch, times=1)
    model = build_antiderivative(sqrt_z, SurfacePoint(1, 1), c=2.0 / 3.0)
    # default bounds (6, 6): 4 * 6 points on each of the two circles
    assert len(model.diagnostics.sample_grid) == 48
    assert len(certified) == 2
    assert len(connectors) - 2 == 8 + 48
    assert model.coeffs[1] == rf("-(4/9)*z^3")


def test_given_grid_is_not_retried(sqrt_z, monkeypatch):
    _certify_failing(monkeypatch, times=1)
    grid = [2.0 * np.exp(2j * math.pi * (j + 0.5) / 10) for j in range(10)]
    with pytest.raises(FitNotConverged):
        build_antiderivative(sqrt_z, SurfacePoint(1, 1), c=2.0 / 3.0, grid=grid)


def test_failed_certificate_is_refused_naming_the_r_i(sqrt_z, monkeypatch):
    certified = _certify_failing(monkeypatch, times=2)
    with pytest.raises(FitNotConverged, match="exact certificate") as info:
        build_antiderivative(sqrt_z, SurfacePoint(1, 1), c=2.0 / 3.0)
    # c = 2/3 is M at the base germ (1, 1), so C = 0
    assert "r_0 = 0, r_1 = (2/3)*z" in str(info.value)
    assert len(certified) == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=5),
       st.randoms(use_true_random=False))
def test_interpolate_is_the_vandermonde_solve(k, n, rand):
    # one batched call over n rows of k roots each, every row against its own solve
    from algebroid.antideriv import _interpolate

    rows = []
    while len(rows) < n:
        ws = [complex(rand.uniform(-3, 3), rand.uniform(-3, 3)) for _ in range(k)]
        if all(abs(a - b) > 0.3 for i, a in enumerate(ws) for b in ws[i + 1:]):
            rows.append(ws)
    fs = [[complex(rand.uniform(-2, 2), rand.uniform(-2, 2)) for _ in range(k)] for _ in rows]
    out = _interpolate(rows, fs)
    assert out.shape == (n, k)
    for ws, f, r in zip(rows, fs, out):
        vander = np.vander(ws, k, increasing=True)
        reference = np.linalg.solve(vander, f)
        # two backward-stable solves agree to eps times the conditioning and size
        atol = 8 * np.finfo(float).eps * np.linalg.cond(vander) * max(1.0, np.abs(reference).max())
        assert np.allclose(r, reference, rtol=0, atol=atol)


# --- the exact certificate R' = W ---------------------------------------------

_small = st.integers(min_value=-3, max_value=3)
_gaussian = st.builds(lambda re, im, den: GaussianRational.of(complex(re, im)) / den,
                      _small, _small, st.integers(min_value=1, max_value=4))
_nonzero = _gaussian.filter(bool)


@st.composite
def _planted(draw):
    """(eq, r) with R' = W exactly, r ascending in W."""
    family = draw(st.sampled_from([(2, -1), (2, 1), (3, -1), (3, 1), (3, 2), "quadratic"]))
    if family == "quadratic":
        # W = 2z + sqrt(z): M = -z^2/3 + (2/3) z W
        return (DefiningEquation.from_strings(["-4*z", "4*z^2 - z"]),
                [rf("-z^2/3"), rf("(2/3)*z")])
    k, j = family
    c, a = draw(_nonzero), draw(_gaussian)
    z_less_a = RatFunc(Poly([-a, 1]))
    eq = DefiningEquation(k, [RatFunc.zero()] * (k - 1) + [-RatFunc.constant(c) * z_less_a**j])
    r1 = RatFunc.constant(GaussianRational.of(k) / (j + k)) * z_less_a
    return eq, [RatFunc.zero(), r1] + [RatFunc.zero()] * (k - 2)


@settings(max_examples=40, deadline=None)
@given(_planted(), st.data())
def test_certificate_accepts_planted_and_rejects_shifted(planted, data):
    from algebroid.antideriv import _certify

    eq, r = planted
    assert _certify(eq, r)
    # a constant C in r_0 is invisible to R' = W
    assert _certify(eq, [r[0] + RatFunc.constant(data.draw(_gaussian))] + r[1:])
    i = data.draw(st.integers(min_value=0, max_value=eq.k - 1))
    ri = r[i]
    if ri.is_zero() or data.draw(st.booleans()):
        power = data.draw(st.integers(min_value=1 if i == 0 else 0,
                                      max_value=max(ri.num.degree, 0) + 1))
        coeffs = list(ri.num.coeffs) + [GaussianRational()] * (power + 1 - len(ri.num.coeffs))
        coeffs[power] = coeffs[power] + data.draw(_nonzero)
        shifted = RatFunc(Poly(coeffs), ri.den)
    else:
        # the denominator 1 becomes 1 + s, for s != -1
        s = data.draw(_nonzero.filter(lambda g: g != GaussianRational.of(-1)))
        shifted = RatFunc(ri.num, Poly([GaussianRational.of(1) + s]))
    assert not _certify(eq, r[:i] + [shifted] + r[i + 1:])


def test_certificate_skips_a_check_point_at_a_pole_of_r():
    from algebroid.antideriv import _CHECK_POINTS, _certify

    # M = sqrt(z) / (z - a) has M' = W for W^2 = z g^2, g = -(z + a) / (2 z (z - a)^2),
    # and M = r_1 W with r_1 = -2 z (z - a) / (z + a): a pole at the first point
    z, z0 = RatFunc.z(), _CHECK_POINTS[0]
    a = RatFunc.constant(-z0)
    g = -(z + a) / (2 * z * (z - a) ** 2)
    eq = DefiningEquation(2, [RatFunc.zero(), -z * g * g])
    r1 = 1 / (g * (z - a))
    with pytest.raises(ZeroDivisionError):
        r1.eval_exact(z0)
    assert _certify(eq, [RatFunc.zero(), r1])
    assert not _certify(eq, [RatFunc.zero(), r1 + z])


def test_point_defect_over_gaussian_rationals_is_the_ratfunc_one():
    from algebroid.antideriv import _CHECK_POINTS, _defect, _psi
    from algebroid.exactalg import _trim_w

    # W = 2z + sqrt(z), M = -z^2/3 + (2/3) z W; the shifted fit adds z^2 W
    eq = DefiningEquation.from_strings(["-4*z", "4*z^2 - z"])
    psi = _psi(eq)
    fits = [([rf("-z^2/3"), rf("(2/3)*z")], True), ([rf("-z^2/3"), rf("(2/3)*z + z^2")], False)]
    for r, right in fits:
        forms = (psi, [a.derivative() for a in psi], r, [ri.derivative() for ri in r])
        for z0 in _CHECK_POINTS:
            values = [[c.eval_exact(z0) for c in cs] for cs in forms]
            at_point = _trim_w(_defect(*values))
            as_constants = _defect(*[[RatFunc.constant(v) for v in vs] for vs in values])
            assert all(type(d) is GaussianRational for d in at_point)
            assert at_point == _trim_w([d.eval_exact(z0) for d in as_constants])
            assert at_point == _trim_w([d.eval_exact(z0) for d in _defect(*forms)])
            assert (at_point == []) == right


def test_draw_whose_exact_certificate_ran_for_minutes_ends_in_time(time_limit):
    # W = M' for M = sum r_i W0^i, W0^3 = p = -2 z^2, so W = sum s_i W0^i with
    # s_i = r_i' + (i/3) r_i p'/p. The retry's fit snaps r_i of degrees near
    # (9, 7), and their exact certificate spent minutes in one gcd: the
    # defect at a fixed point refuses them in milliseconds
    from algebroid.antideriv import _coeffs_from_power_sums

    time_limit(30)
    psi0 = DefiningEquation.from_strings(["0", "0", "2*z^2"])
    p = rf("-2*z^2")
    r = [rf("(2+2*i)*z^2 - 2*i*z - 1 - i"), rf("(2+2*i)*z^2 + (1-i)*z - 1 + 2*i"),
         rf("(-2+i)*z^2 + (-2+i)*z - 2")]
    s = [ri.derivative() + RatFunc.constant(GaussianRational.of(i) / 3) * ri * p.derivative() / p
         for i, ri in enumerate(r)]
    eq = DefiningEquation(3, _coeffs_from_power_sums(psi0, s))
    z0 = 3 - 1j
    w0 = (-2 * z0**2) ** (1 / 3)  # the principal branch of W0
    w = sum(si.eval_complex(z0) * w0**i for i, si in enumerate(s))
    c = sum(ri.eval_complex(z0) * w0**i for i, ri in enumerate(r))
    try:
        model = build_antiderivative(eq, SurfacePoint(z0, w), c=c)
    except FitNotConverged:
        return
    assert list(model.coeffs) == _coeffs_from_power_sums(psi0, r)


# --- the constant family ------------------------------------------------------


def test_constant_family_identity_shift(sqrt_z):
    model = build_antiderivative(sqrt_z, SurfacePoint(1, 1), c=2.0 / 3.0, verify=False)
    assert constant_family(model, 0) == list(model.coeffs)


def test_constant_family_k2_formula(sqrt_z):
    model = build_antiderivative(sqrt_z, SurfacePoint(1, 1), c=2.0 / 3.0, verify=False)
    b1, b2 = model.coeffs
    one = RatFunc.one()
    c = RatFunc.constant(1)
    shifted = constant_family(model, 1.0)
    # k=2: B1^c = B1 - 2c, B2^c = B2 - c B1 + c^2
    assert shifted[0] == b1 - 2 * c
    assert shifted[1] == b2 - c * b1 + c * c
    # with B1 = 0, B2 = -(4/9) z^3: B1^c = -2, B2^c = 1 - (4/9) z^3
    assert shifted[0] == rf("-2")
    assert shifted[1] == rf("1 - (4/9)*z^3")


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
    st.randoms(use_true_random=False),
)
def test_constant_family_matches_direct_expansion(k, c, rand):
    values = [complex(rand.uniform(-2, 2), rand.uniform(-2, 2)) for _ in range(k)]
    base = symmetric_coeffs(values)
    shifted = shifted_coeffs(base, c, 1.0 + 0j)
    direct = symmetric_coeffs([c + v for v in values])
    for a, b in zip(shifted, direct):
        assert abs(a - b) < 1e-12 * max(1.0, abs(b))
