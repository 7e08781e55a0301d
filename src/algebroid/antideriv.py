"""Antiderivative reconstruction in the function field of the equation.

The antiderivative M of an irreducible equation with all-zero residues and
periods is a meromorphic function on the same Riemann surface, so it lies in
the function field: M = C + sum_{i<k} r_i(z) W^i with every r_i in Q(i)(z)
(Trager 1984). build_antiderivative samples the k branch integrals
F_s(z) = c + integral from the base germ to the s-th germ over z on a small
grid, solves the k x k Vandermonde system sum_i r_i W_s^i = F_s at each grid
point, and fits each r_i as a rational function. The fit is then certified
exactly in Q(i)(z)[W]/(Psi): R' = W holds for R = sum r_i W^i if and only if

    Psi_W * sum r_i' W^i - Psi_z * sum i r_i W^(i-1) - W * Psi_W = 0 mod Psi,

so a certified fit is right whatever the grid. The constant C (the constant
term of r_0's polynomial part) is fixed once by M = c at the base germ and is
the only number snapped from a float. The defining coefficients B_j of M,
prod_s (M - F_s) = M^k + sum B_j M^(k-j), follow exactly from the power sums
Tr((C + R)^n) and Newton's identities.

build_antiderivative reads irreducibility, the sheet values and the
single-valuedness audit from SheetRouter's one whole-fiber integral per
monodromy generator, and expands residues only where a coefficient has a
pole. The router integrates all its loops in one batch (quad._integrate,
one batched fiber read per bisection level), and the fit all its grid
connectors in one more.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (
    FitNotConverged,
    NearCriticalPoint,
    RefusedNonzeroResidue,
    RefusedReducible,
    SingleValuednessViolation,
    UnreachableSheet,
    held,
    settle,
    then,
)
from .exactalg import GaussianRational, Poly, RatFunc, snap_to_gaussian
from .exactalg import w_poly_derivative, w_poly_mul
from .puiseux import singular_elements
# surface_integral: read here by benchmark/test_benchmark.py::test_tracer_rebinds_names_imported_elsewhere
from .quad import _fiber_integrals, surface_integral  # noqa: F401
from .surface import KIND_DISC, DefiningEquation, SheetPermutation, fiber_at, match_to_fiber
from .surface import _orbits, _sheet_permutation, generator_loops
from .tracker import BasePath, SurfacePoint, germ_at, safe_line
from .tracker import _path_margin

__all__ = [
    "AntiderivativeModel",
    "FitDiagnostics",
    "SheetRouter",
    "branch_integrals_at",
    "symmetric_coeffs",
    "fit_rational",
    "build_antiderivative",
    "verify_antiderivative",
    "constant_family",
    "shifted_coeffs",
]


@dataclass(frozen=True)
class FitDiagnostics:
    """residuals: the fit residual of each r_i; degrees: (num, den) of each
    exact B_j; sample_grid: the grid the certified fit came from;
    constant_snap: |C - snapped C| for the float constant C, and
    constant_fine_den whether C needed a denominator above 10**6.
    """

    residuals: tuple[float, ...]
    sample_grid: tuple[complex, ...]
    degrees: tuple[tuple[int, int], ...]
    single_valuedness_defect: float
    derivative_defect: Optional[float] = None
    constant_snap: float = 0.0
    constant_fine_den: bool = False


@dataclass(frozen=True)
class AntiderivativeModel:
    k: int
    base: SurfacePoint
    c: complex
    coeffs: tuple[RatFunc, ...]
    diagnostics: FitDiagnostics

    def as_equation(self) -> DefiningEquation:
        return DefiningEquation(self.k, self.coeffs)


class SheetRouter:
    """Every sheet over the base point, from one whole-fiber pass per
    monodromy generator loop g: gens[g] is its sheet permutation and
    periods[g][s] its loop integral from germs[s], the base fiber with base.w
    at the base sheet. Breadth-first search over gens, shortest word first
    with ties broken by generator index, sums periods into values[s], the
    c-value of sheet s's germ.
    """

    def __init__(self, eq: DefiningEquation, base: SurfacePoint,
                 tol: Tolerances = DEFAULT, rng=None):
        base = germ_at(eq, base.z, base.w, tol)
        self.eq = eq
        self.base = base
        fiber = fiber_at(eq, base.z, tol)
        self.base_sheet = match_to_fiber(base.w, fiber, tol)
        self.germs = list(fiber.roots)
        self.germs[self.base_sheet] = base.w

        def generator(integral):
            periods, _, ends = integral
            return _sheet_permutation(ends, fiber, tol), periods

        loops = generator_loops(eq, base.z, tol, rng)  # every loop integrated in one batch
        gens = settle(then(generator, _fiber_integrals(eq, [(self.germs, g) for g in loops], tol)))
        self.gens: list[SheetPermutation] = [sigma for sigma, _ in gens]
        self.periods: list[list[complex]] = [periods for _, periods in gens]
        self.values: dict[int, complex] = {self.base_sheet: 0j}
        queue = [self.base_sheet]
        while queue:
            frontier = []
            for s in queue:
                for sigma, periods in zip(self.gens, self.periods):
                    s2 = sigma(s)
                    if s2 not in self.values:
                        self.values[s2] = self.values[s] + periods[s]
                        frontier.append(s2)
            queue = frontier


def branch_integrals_at(eq: DefiningEquation, base: SurfacePoint, z: complex,
                        router: Optional[SheetRouter] = None,
                        tol: Tolerances = DEFAULT, rng=None) -> list[complex]:
    """The k branch-integral values over z, ordered by the canonical fiber.

    Entry j is c_{a, b_j} for the j-th germ of fiber_at(eq, z), reached by
    the router's loop word followed by a straight (detoured if necessary)
    connector from the base point; one whole-fiber integral carries all k
    sheets along the connector.
    """
    if router is None:
        router = SheetRouter(eq, base, tol, rng)
    return _fiber_and_branch_integrals(eq, [z], router, tol, rng)[0][1]


def _fiber_and_branch_integrals(eq: DefiningEquation, zs: Sequence[complex],
                                router: SheetRouter, tol: Tolerances, rng) -> list:
    """Per z of zs: (fiber_at(eq, z), the branch integrals of branch_integrals_at
    over it). The connectors of all z are integrated in one batch, and the
    first refusal in the order of zs is raised."""
    missing = [s for s in range(eq.k) if s not in router.values]
    if missing:
        raise UnreachableSheet(
            f"sheets {missing} are not reachable from the base sheet; "
            "the defining equation is reducible"
        )
    margin = _path_margin(eq, tol)
    locations = eq.critical(tol).locations

    def connector(z):
        if abs(z - router.base.z) <= 1e-12 * (1.0 + abs(z)):
            return BasePath(()), fiber_at(eq, z, tol)
        path = safe_line(router.base.z, z, locations, margin, rng)
        return path, fiber_at(eq, z, tol)

    def branch_integrals(integral, start):
        path, fiber_t = start
        if not path.segments:
            return fiber_t, [router.values[s] for s in range(eq.k)]
        values, _, ends = integral
        inverse = _sheet_permutation(ends, fiber_t, tol).inverse()
        return fiber_t, [router.values[s] + values[s] for s in inverse.image]

    starts = [held(connector, z) for z in zs]
    integrals = _fiber_integrals(eq, then(lambda start: (router.germs, start[0]), starts), tol)
    return settle(then(branch_integrals, integrals, starts))


def symmetric_coeffs(values: Sequence[complex]) -> list[complex]:
    """Coefficients B_j with prod(M - F_j) = M^k + sum B_j M^(k-j)."""
    desc = [1.0 + 0j]
    for v in values:
        nxt = desc + [0j]
        for idx in range(len(desc), 0, -1):
            nxt[idx] = nxt[idx] - v * desc[idx - 1]
        desc = nxt
    return desc[1:]


def shifted_coeffs(coeffs: Sequence, c, one):
    """Defining coefficients of M(z) + c from those of M(z).

    Works over any commutative ring: pass one = 1.0 for floats or
    RatFunc.one() for exact coefficients.
    """
    k = len(coeffs)
    b = [one] + list(coeffs)
    out = []
    for j in range(1, k + 1):
        acc = None
        for i in range(0, j + 1):
            term = math.comb(k - j + i, i) * ((-c) ** i) * b[j - i]
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def fit_rational(samples: Sequence[tuple[complex, complex]],
                 bounds: tuple[int, int],
                 tol: Tolerances = DEFAULT) -> tuple[RatFunc, float]:
    """Least-squares rational fit value ~ p(z)/q(z) with monic q.

    Degrees are selected by scanning increasing total degree until the
    relative residual drops below fit_tol; fitted coefficients snap to
    Gaussian rationals. Raises FitNotConverged when the scan is exhausted.
    """
    d_num, d_den = bounds
    zs = np.array([z for z, _ in samples], dtype=complex)
    vs = np.array([v for _, v in samples], dtype=complex)
    vmax = float(np.max(np.abs(vs))) if len(vs) else 0.0
    scale = max(1.0, vmax)
    weights = 1.0 / (1.0 + np.abs(vs))

    best: Optional[tuple[RatFunc, float]] = None
    for total in range(d_num + d_den + 1):
        for dn in range(min(total, d_num) + 1):
            dd = total - dn
            if dd > d_den:
                continue
            if len(samples) < dn + dd + 2:
                continue
            fitted = _solve_linear_fit(zs, vs, weights, dn, dd)
            if fitted is None:
                continue
            rf = _snap_fit(fitted, dn, dd)
            resid = _fit_residual(rf, zs, vs, scale)
            if resid < tol.fit_tol:
                return rf, resid
            if best is None or resid < best[1]:
                best = (rf, resid)
    if best is not None:
        raise FitNotConverged(
            f"rational fit residual {best[1]:.3e} above tolerance {tol.fit_tol:.1e} "
            f"at degree bounds {bounds}"
        )
    raise FitNotConverged("not enough samples for the requested degree bounds")


def _solve_linear_fit(zs, vs, weights, dn: int, dd: int):
    n = len(zs)
    cols = dn + 1 + dd
    a = np.zeros((n, cols), dtype=complex)
    for p in range(dn + 1):
        a[:, p] = zs**p
    for l in range(dd):
        a[:, dn + 1 + l] = -vs * zs**l
    rhs = vs * zs**dd
    a = a * weights[:, None]
    rhs = rhs * weights
    try:
        sol, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    except np.linalg.LinAlgError:  # pragma: no cover - lstsq rarely fails
        return None
    return sol


def _snap_fit(sol, dn: int, dd: int) -> RatFunc:
    p_coeffs = [snap_to_gaussian(complex(sol[p])) for p in range(dn + 1)]
    q_coeffs = [snap_to_gaussian(complex(sol[dn + 1 + l])) for l in range(dd)]
    num = Poly(p_coeffs)
    den = Poly(q_coeffs + [GaussianRational.of(1)])
    return RatFunc(num, den)


def _fit_residual(rf: RatFunc, zs, vs, scale: float) -> float:
    worst = 0.0
    for z, v in zip(zs, vs):
        den = rf.den.eval_complex(complex(z))
        if den == 0:
            return float("inf")
        worst = max(worst, abs(rf.num.eval_complex(complex(z)) / den - v))
    return worst / scale


def _default_grid(eq: DefiningEquation, points_per_circle: int,
                  tol: Tolerances) -> list[complex]:
    crit = eq.critical(tol)
    locs = crit.locations
    centroid = sum(locs) / len(locs) if locs else 0j
    reach = max((abs(c - centroid) for c in locs), default=0.0)
    margin = 2.0 * _path_margin(eq, tol)
    radii = [max(1.5 * reach, 1.0), max(3.0 * reach, 2.0)]
    grid = []
    for r in radii:
        while any(abs(abs(c - centroid) - r) < margin for c in locs):
            r *= 1.07
        for j in range(points_per_circle):
            grid.append(centroid + r * np.exp(2j * math.pi * (j + 0.5) / points_per_circle))
    return [complex(z) for z in grid]


def _sv_audit(router: SheetRouter, c: complex, tol: Tolerances) -> float:
    """Largest relative drift of the symmetric values around any generator."""
    k = router.eq.k
    values = [c + router.values[s] for s in range(k)]
    e_ref = symmetric_coeffs(values)
    worst = 0.0
    worst_gen = -1
    for gi, (sigma, periods) in enumerate(zip(router.gens, router.periods)):
        e_new = symmetric_coeffs([values[s] + periods[s] for s in sigma.inverse().image])
        defect = max(
            abs(a - b) / max(1.0, abs(b)) for a, b in zip(e_new, e_ref)
        )
        if defect > worst:
            worst, worst_gen = defect, gi
    if worst > tol.sv_tol:
        raise SingleValuednessViolation(
            f"symmetric coefficient functions drift by {worst:.3e} around "
            f"monodromy generator {worst_gen}; the branch integrals do not "
            "define single-valued coefficients",
            defect=worst,
            generator=worst_gen,
        )
    return worst


def _coarse(x) -> GaussianRational:
    """x snapped to a denominator of at most 10**6, never the fine branch."""
    return snap_to_gaussian(complex(x), fine_den=10**6)


def _without_constant(r0: RatFunc) -> RatFunc:
    """r0 less the constant term of its polynomial part, every other
    coefficient snapped to a small denominator: an irrational constant that
    a fitted denominator has spread over the numerator is taken out here."""
    quo, rem = r0.num.divmod(r0.den)
    poly = Poly([GaussianRational()] + [_coarse(x) for x in quo.coeffs[1:]])
    return RatFunc(poly) + RatFunc(Poly([_coarse(x) for x in rem.coeffs]), r0.den)


def _interpolate(ws: Sequence[complex], fs: Sequence[complex]) -> np.ndarray:
    """Coefficients r, ascending, of the polynomial with sum_i r_i w^i = f at
    each (w, f). This is the Vandermonde solve in Lagrange form, because
    np.linalg.solve maps LAPACK code that nothing else here touches: about
    0.4 MB more peak resident memory per process."""
    ws = np.asarray(ws)
    out = np.zeros(len(ws), dtype=complex)
    for s, f in enumerate(fs):
        others = np.delete(ws, s)
        out += f * np.atleast_1d(np.poly(others))[::-1] / np.prod(ws[s] - others)
    return out


def _fit_r(eq: DefiningEquation, router: SheetRouter, c: complex,
           grid: Sequence[complex], bounds: tuple[int, int], tol: Tolerances,
           rng) -> tuple[list[RatFunc], list[float], float, bool, dict]:
    """The r_i of M = sum r_i W^i from the branch integrals on the grid (C in
    r_0), each r_i's fit residual, |C - snapped C|, whether C needed the fine
    denominator and each grid point's fiber. Raises FitNotConverged naming
    the r_i whose scan failed, or all of them when the certificate fails."""
    samples, fibers = [], {}
    for z, (fiber, values) in zip(grid, _fiber_and_branch_integrals(eq, grid, router, tol, rng)):
        fibers[z] = fiber
        samples.append(_interpolate(fiber.roots, [c + v for v in values]))
    r, residuals = [], []
    for i, column in enumerate(np.asarray(samples).T):
        try:
            rf, resid = fit_rational(list(zip(grid, column)), bounds, tol)
        except FitNotConverged as exc:
            raise FitNotConverged(f"r_{i}: {exc}") from None
        r.append(rf)
        residuals.append(resid)
    r[0] = _without_constant(r[0])
    # C = c - R(z0, w0), summed exactly from the float base germ
    z0, w0 = GaussianRational.of(router.base.z), GaussianRational.of(router.base.w)
    terms, power = [], GaussianRational.of(1)
    for ri in r:
        terms.append(ri.eval_exact(z0) * power)
        power = power * w0
    exact = GaussianRational.of(c) - sum(terms, GaussianRational())
    # C is then known to a few rounding errors of the germ: a small-denominator
    # fraction farther away than that is not C, which snaps on the fine branch
    noise = 64 * float(np.finfo(float).eps) * (abs(c) + sum(abs(complex(t)) for t in terms))
    constant = snap_to_gaussian(complex(exact), rel_tol=noise)
    r[0] = r[0] + RatFunc.constant(constant)
    if not _certify(eq, r):
        raise FitNotConverged(
            "fitted " + ", ".join(f"r_{i} = {ri}" for i, ri in enumerate(r))
            + " fail the exact certificate R' = W"
        )
    fine = constant != _coarse(complex(exact))
    return r, residuals, abs(complex(exact - constant)), fine, fibers


def _psi(eq: DefiningEquation) -> list[RatFunc]:
    """Psi ascending in W: A_k, ..., A_1, 1."""
    return list(reversed(eq.coeffs)) + [RatFunc.one()]


def _mod_psi(f: Sequence[RatFunc], psi: Sequence[RatFunc]) -> list[RatFunc]:
    """f reduced modulo the monic Psi: ascending in W, at most k terms."""
    k = len(psi) - 1
    f = list(f)
    for top in range(len(f) - 1, k - 1, -1):
        lead = f.pop()
        if not lead.is_zero():
            for j in range(k):
                f[top - k + j] = f[top - k + j] - lead * psi[j]
    return f


def _certify(eq: DefiningEquation, r: Sequence[RatFunc]) -> bool:
    """Exactly whether R = sum r_i W^i has R' = W on the surface of Psi:
    Psi_W (sum r_i' W^i - W) - Psi_z sum i r_i W^(i-1) = 0 mod Psi."""
    psi = _psi(eq)
    zero = RatFunc.zero()
    r_z_less_w = [a - b for a, b in itertools.zip_longest(
        [ri.derivative() for ri in r], [zero, RatFunc.one()], fillvalue=zero)]
    left = w_poly_mul(w_poly_derivative(psi), r_z_less_w)
    right = w_poly_mul([a.derivative() for a in psi], w_poly_derivative(r))
    defect = [a - b for a, b in itertools.zip_longest(left, right, fillvalue=zero)]
    return all(d.is_zero() for d in _mod_psi(defect, psi))


def _coeffs_from_power_sums(eq: DefiningEquation, r: Sequence[RatFunc]) -> list[RatFunc]:
    """The B_j of prod_s (M - M_s) = M^k + sum B_j M^(k-j) for M = sum r_i W^i,
    from the traces Tr(M^n), n = 1..k, and Newton's identities."""
    k, psi = eq.k, _psi(eq)
    a = [RatFunc.one()] + list(eq.coeffs)
    traces_w = [RatFunc.constant(k)]  # Tr(W^i), from Newton's identities on Psi
    for i in range(1, k):
        acc = RatFunc.constant(i) * a[i]
        for j in range(1, i):
            acc = acc + a[j] * traces_w[i - j]
        traces_w.append(-acc)
    traces, power = [], [RatFunc.one()]
    for _ in range(k):
        power = _mod_psi(w_poly_mul(power, r), psi)
        traces.append(sum((p * t for p, t in zip(power, traces_w)), RatFunc.zero()))
    e = [RatFunc.one()]
    for n in range(1, k + 1):
        acc = RatFunc.zero()
        for i in range(1, n + 1):
            term = e[n - i] * traces[i - 1]
            acc = acc + term if i % 2 else acc - term
        e.append(acc / RatFunc.constant(n))
    return [e[j] if j % 2 == 0 else -e[j] for j in range(1, k + 1)]


def build_antiderivative(eq: DefiningEquation, base: SurfacePoint,
                         c: complex = 0j,
                         grid: Optional[Sequence[complex]] = None,
                         bounds: Optional[tuple[int, int]] = None,
                         tol: Tolerances = DEFAULT, rng=None,
                         verify: bool = True) -> AntiderivativeModel:
    """Build the defining equation of the antiderivative of W(z).

    Refuses reducible equations and nonzero residues, audits single-
    valuedness of the symmetric values around every monodromy generator,
    then fits the r_i of M = C + sum r_i W^i on a grid and certifies
    R' = W exactly. The default grid has 8 points, with one retry on
    4 * max(bounds) points per circle; a given grid is used as is.
    """
    base = germ_at(eq, base.z, base.w, tol)
    router = SheetRouter(eq, base, tol, rng)
    orbits = _orbits(eq.k, router.gens)
    if len(orbits) > 1:
        raise RefusedReducible(
            f"monodromy orbits {orbits} are intransitive; the defining "
            "equation is reducible and the theorem does not apply",
            orbits=orbits,
        )
    offenders = []
    for cp in eq.critical(tol).points:
        if cp.kind == KIND_DISC:
            continue  # no A_j has a pole: the branches are bounded, the residue is 0
        for cyc in singular_elements(eq, cp.location, tol=tol).cycles:
            if abs(cyc.residue) > tol.residue_tol:
                offenders.append((cp.location, cyc.sheets, cyc.residue))
    if offenders:
        raise RefusedNonzeroResidue(
            "singular elements with nonzero residue: "
            + ", ".join(f"center {z}, cycle {cyc}, residue {r}" for z, cyc, r in offenders),
            offenders=offenders,
        )
    sv_defect = _sv_audit(router, c, tol)

    if bounds is None:
        d = eq.k * max(eq.max_coeff_degree, 1) + 4
        bounds = (d, d)
    if grid is not None:
        grid = [complex(z) for z in grid]
        r, residuals, snap, fine, fibers = _fit_r(eq, router, c, grid, bounds, tol, rng)
    else:
        grid = _default_grid(eq, 4, tol)
        try:
            r, residuals, snap, fine, fibers = _fit_r(eq, router, c, grid, bounds, tol, rng)
        except FitNotConverged:
            grid = _default_grid(eq, max(4, 4 * max(bounds)), tol)
            r, residuals, snap, fine, fibers = _fit_r(eq, router, c, grid, bounds, tol, rng)
    coeffs = _coeffs_from_power_sums(eq, r)

    diag = FitDiagnostics(
        residuals=tuple(residuals),
        sample_grid=tuple(grid),
        degrees=tuple((b.num.degree, b.den.degree) for b in coeffs),
        single_valuedness_defect=sv_defect,
        constant_snap=snap,
        constant_fine_den=fine,
    )
    model = AntiderivativeModel(eq.k, base, c, tuple(coeffs), diag)
    if verify:
        defect = verify_antiderivative(model, eq, tol=tol, fibers=fibers)
        model = replace(model, diagnostics=replace(diag, derivative_defect=defect))
    return model


def _multiset_defect(left: Sequence[complex], right: Sequence[complex]) -> float:
    """min over pairings of the max pointwise distance (k is small)."""
    k = len(left)
    if k <= 6:
        best = float("inf")
        for perm in itertools.permutations(range(k)):
            d = max(abs(left[i] - right[perm[i]]) for i in range(k))
            best = min(best, d)
        return best
    ls = sorted(left, key=lambda w: (w.real, w.imag))
    rs = sorted(right, key=lambda w: (w.real, w.imag))
    return max(abs(a - b) for a, b in zip(ls, rs))


def verify_antiderivative(model: AntiderivativeModel, eq: DefiningEquation,
                          probes: Optional[Sequence[complex]] = None,
                          tol: Tolerances = DEFAULT, fibers: Optional[dict] = None) -> float:
    """Max defect of the implicit derivative identity M'(z) = W(z); fibers
    may map probes to their fiber_at(eq, z, tol), already solved."""
    meq = model.as_equation()
    if probes is None:
        grid = model.diagnostics.sample_grid
        step = max(1, len(grid) // 5)
        probes = grid[::step][:6]
    worst = 0.0
    used = 0
    for z in probes:
        try:
            mf = fiber_at(meq, z, tol)
            wf = fibers[z] if fibers and z in fibers else fiber_at(eq, z, tol)
        except NearCriticalPoint:
            continue
        derivs = [-meq.psi_z(m, z) / meq.psi_w(m, z) for m in mf.roots]
        worst = max(worst, _multiset_defect(derivs, list(wf.roots)))
        used += 1
    if used == 0:
        raise ValueError("no probe was regular for both equations")
    return worst


def constant_family(model: AntiderivativeModel, c_new) -> list[RatFunc]:
    """Defining coefficients of the antiderivative family member M(z) + c_new.

    The shift is computed exactly over RatFunc; complex floats embed
    exactly as Gaussian rationals.
    """
    c_exact = RatFunc.constant(GaussianRational.of(c_new))
    return shifted_coeffs(list(model.coeffs), c_exact, RatFunc.one())
