"""Antiderivative reconstruction in the function field of the equation.

The antiderivative M of an irreducible equation with all-zero residues and
periods is a meromorphic function on the same Riemann surface, so it lies in
the function field: M = C + sum_{i<k} r_i(z) W^i with every r_i in Q(i)(z)
(Trager 1984). build_antiderivative samples the k branch integrals
F_s(z) = c + integral from the base germ to the s-th germ over z on a small
grid, each with the root W_s that its connector's walk ends on, solves the
k x k Vandermonde systems sum_i r_i W_s^i = F_s of every grid point in one
batched pass, and fits each r_i as a rational function. No grid fiber is
solved apart from its walk. The fit is then certified
exactly in Q(i)(z)[W]/(Psi): R' = W holds for R = sum r_i W^i if and only if

    Psi_W * sum r_i' W^i - Psi_z * sum i r_i W^(i-1) - W * Psi_W = 0 mod Psi,

so a certified fit is right whatever the grid. The identity is first taken
at one fixed Gaussian-rational point where nothing has a pole: a wrong fit
is refused there in milliseconds, before the exact check over Q(i)(z),
whose gcds have no cost bound. The constant C (the constant term of r_0's
polynomial part) is fixed once by M = c at the base germ and is the only
number snapped from a float. The defining coefficients B_j of M,
prod_s (M - F_s) = M^k + sum B_j M^(k-j), follow exactly from the power sums
Tr((C + R)^n) and Newton's identities. verify_antiderivative checks them at
the roots the fit walked: each w_i over a grid point z gives M's value
m_i = sum r_i(z) w_i^i, which the B_j must annihilate with slope dM/dz = w_i.

build_antiderivative reads its three refusals off SheetRouter's sheet graph
(Tretkoff & Tretkoff 1984), with no Puiseux expansion: transitivity,
loop-orbit residues at poles and edge periods. The router integrates all its
loops in one batch (quad._integrate, one batched fiber read per bisection
level), each as spoke + circle: the circle is lifted from the spoke's end
fiber, and the return spoke's integral is taken from the spoke, never
walked. The fit integrates its grid connectors in one more batch, whose end
fibers are its W roots. The connectors form a tree, as the router's search
does over the sheets: each grid point is reached from the nearest of the
base and the points before it, its lift continuing its parent's, so no
stretch of the base paths is walked twice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
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
    in_order,
)
from .exactalg import GaussianRational, Poly, RatFunc, snap_to_gaussian
from .exactalg import w_poly_derivative, w_poly_mul
from .paths import Arc, BasePath, SurfacePoint
# surface_integral: read here by benchmark/test_benchmark.py::test_tracer_rebinds_names_imported_elsewhere
from .quad import _fiber_integrals, surface_integral  # noqa: F401
from .rootfind import poly_eval, poly_eval_pair, residual_scale
from .surface import KIND_DISC, DefiningEquation, Fiber, SheetPermutation, fiber_at
from .surface import _orbits, _sheet_permutation, generator_loops
from .tracker import germ_at, safe_line
from .tracker import _path_margin, _start_fiber

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
    constant_fine_den whether C needed a denominator above 10**6;
    single_valuedness_defect: _sv_audit's largest relative edge period.
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
    """coeffs: the B_j of M's equation; r: the certified r_i, C in r_0."""

    k: int
    base: SurfacePoint
    c: complex
    coeffs: tuple[RatFunc, ...]
    r: tuple[RatFunc, ...]
    diagnostics: FitDiagnostics


class SheetRouter:
    """Every sheet over the base point, from one whole-fiber pass per
    monodromy generator loop g: centers[g] is the critical point it
    encircles, gens[g] its sheet permutation and periods[g][s] its loop
    integral from germs[s], the base fiber with base.w at the base sheet,
    the start of every walk from the germ base, polished once
    (tracker._start_fiber). Each loop is walked and integrated as a spoke
    and a circle: the spoke's lift from germs, then the circle's from the
    spoke's end fiber. The return spoke retraces the spoke, so it is never
    walked: sigma_g matches the circle's end fiber to the spoke's, and
    periods[g][s] = spoke[s] + circle[s] - spoke[sigma_g(s)], the return
    spoke's integral taken from the spoke (_loop_periods). Breadth-first
    search over gens, shortest word first with ties broken by generator
    index, sums periods into values[s], the c-value of sheet s's germ. Its
    tree spans the sheet graph of _sv_audit.
    """

    def __init__(self, eq: DefiningEquation, base: SurfacePoint,
                 tol: Tolerances = DEFAULT, rng=None):
        self.eq, self.base = eq, germ_at(eq, base.z, base.w, tol)
        _, self.base_sheet, self.germs = _start_fiber(eq, self.base, [], tol)

        loops = generator_loops(eq, self.base.z, tol, rng)  # every loop integrated in one batch
        self.centers = [cp for cp, _ in loops]
        gens = in_order(lambda gs: _loop_periods(eq, self.germs, gs, tol),
                        [loop for _, loop in loops])
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


def _loop_periods(eq: DefiningEquation, germs: Sequence[complex], loops: Sequence[BasePath],
                  tol: Tolerances) -> list:
    """Per loop of loops (tracker.anchored_loop: a spoke, the circle and the
    spoke back, or the circle alone): its sheet permutation and its integral
    from each of germs, read as SheetRouter says. The spokes and circles are
    integrated in one batch, each circle continuing its spoke's lift
    (quad._Lift), so its values are spoke[s] + circle[s]."""
    starts = []
    for loop in loops:
        i = next(n for n, seg in enumerate(loop.segments) if isinstance(seg, Arc))
        starts.append((germs, BasePath(loop.segments[:i])))
        starts.append((len(starts) - 1, BasePath(loop.segments[i:i + 1])))
    integrals = _fiber_integrals(eq, starts, tol)
    out = []
    for (_, circle), (spoke, _, spoke_end), (values, _, ends) in zip(
            starts[1::2], integrals[::2], integrals[1::2]):
        sigma = _sheet_permutation(ends, Fiber(circle.start_z, tuple(spoke_end)), tol)
        out.append((sigma, [v - spoke[sigma(s)] for s, v in enumerate(values)]))
    return out


def branch_integrals_at(eq: DefiningEquation, base: SurfacePoint, z: complex,
                        router: Optional[SheetRouter] = None,
                        tol: Tolerances = DEFAULT, rng=None) -> list[complex]:
    """The k branch-integral values over z, ordered by the canonical fiber.

    Entry j is c_{a, b_j} for the j-th germ of fiber_at(eq, z), reached by
    the router's loop word followed by a straight (detoured if necessary)
    connector from the base point: the connector tree of
    _walked_branch_integrals with z its one node. One whole-fiber integral
    carries all k sheets along the connector.
    """
    if router is None:
        router = SheetRouter(eq, base, tol, rng)
    ((ends, values),) = _walked_branch_integrals(eq, [z], router, tol, rng)
    inverse = _sheet_permutation(ends, fiber_at(eq, z, tol), tol).inverse()
    return [values[s] for s in inverse.image]


def _walked_branch_integrals(eq: DefiningEquation, zs: Sequence[complex],
                             router: SheetRouter, tol: Tolerances, rng) -> list:
    """Per z of zs: the end fiber of its connector and the branch integrals
    over it, both in lift order (_branch_integrals). The connectors form a
    tree: each z is reached from its parent, the nearest of the base and the
    z listed before it (the first of them on a tie), by a safe_line, or by
    no path when it sits there. On the default grid each outer point is so
    reached by a radial leg from the inner point on its ray. The connectors
    are routed first, in the order of zs, since routing may draw from rng,
    then integrated in one batch, which raises the first refusal in the
    order of zs (errors.in_order). A grid point's pair of end root and value
    does not depend on its path's homotopy class once the router's audits
    have passed, so the tree gives the pairs of straight connectors."""
    missing = [s for s in range(eq.k) if s not in router.values]
    if missing:
        raise UnreachableSheet(
            f"sheets {missing} are not reachable from the base sheet; "
            "the defining equation is reducible"
        )
    margin = _path_margin(eq, tol)
    locations = eq.critical(tol).locations
    reached, parents, paths = [router.base.z], [], []
    for z in zs:
        n = min(range(len(reached)), key=lambda m: abs(z - reached[m]))
        parents.append(n - 1 if n else None)  # None for the base, else an index in zs
        paths.append(BasePath(()) if abs(z - reached[n]) <= 1e-12 * (1.0 + abs(z))
                     else safe_line(reached[n], z, locations, margin, rng))
        reached.append(z)
    return in_order(lambda jobs: _branch_integrals(eq, jobs, parents, paths, router, tol),
                    range(len(zs)))


def _branch_integrals(eq: DefiningEquation, jobs: Sequence[int], parents: Sequence,
                      paths: Sequence[BasePath], router: SheetRouter, tol: Tolerances) -> list:
    """For the connector paths[n] of each n of jobs, the tree edge from its
    parent (parents[n], an index in paths or None for the base): the roots
    its lift ends on and the branch integrals there, entry j reached from
    router.germs[j]. The connectors of jobs and of all their ancestors are
    integrated in one batch, parents first, each lift continuing its
    parent's from its end fiber and adding to its integrals (quad._Lift).
    The walk's collision and residual gates and its path margin make the end
    roots k distinct polished roots of Psi over the end."""
    needed = set()
    for n in jobs:
        while n is not None and n not in needed:
            needed.add(n)
            n = parents[n]
    order = sorted(needed)
    at = {n: i for i, n in enumerate(order)}
    integrals = _fiber_integrals(eq, [(router.germs if parents[n] is None else at[parents[n]],
                                       paths[n]) for n in order], tol)
    out = []
    for n in jobs:
        values, _, ends = integrals[at[n]]
        out.append((list(ends), [router.values[s] + v for s, v in enumerate(values)]))
    return out


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


def _sv_audit(router: SheetRouter, tol: Tolerances) -> float:
    """The largest |e(g, s)| = |values[s] + periods[g][s] - values[sigma_g(s)]|
    over the edges (sheet s, generator g) of the router's sheet graph,
    relative to max(1, max_s |values[s]|); a tree edge of the router's
    search gives exactly 0. M takes sheet s to sheet sigma_g(s) around g, so
    it is single-valued just when every edge has period 0. A refusal names
    the first edge in (generator, sheet) order with |e| within 1e-12 relative
    of the largest, so rounding never picks among equal |e| (conjugates)."""
    values = router.values
    scale = max(1.0, max(abs(v) for v in values.values()))
    edges = [(g, s, values[s] + period - values[sigma(s)])
             for g, (sigma, periods) in enumerate(zip(router.gens, router.periods))
             for s, period in enumerate(periods)]
    largest = max((abs(e) for _, _, e in edges), default=0.0)
    worst = largest / scale
    if worst > tol.sv_tol:
        g, s, e = next(edge for edge in edges if abs(edge[2]) >= largest * (1.0 - 1e-12))
        raise SingleValuednessViolation(
            f"the lift of sheet {s} around monodromy generator {g}, which "
            f"encircles the critical point {router.centers[g].location}, has "
            f"period {e}; the branch integrals do not define single-valued "
            "coefficients",
            defect=worst, generator=g, sheet=s, period=e,
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


def _interpolate(ws, fs) -> np.ndarray:
    """Per row of the n x k arrays ws and fs, the coefficients r, ascending,
    of the polynomial with sum_i r_i w^i = f at each (w, f) of the row: the
    Vandermonde solve in Lagrange form, every row at once. Not
    np.linalg.solve, which maps LAPACK code that nothing else here touches:
    about 0.4 MB more peak resident memory per process."""
    ws, fs = np.asarray(ws, dtype=complex), np.asarray(fs, dtype=complex)
    k = ws.shape[1]
    others = ws[:, [[t for t in range(k) if t != s] for s in range(k)]]  # n x k x (k - 1)
    basis = np.zeros(ws.shape + (k,), dtype=complex)  # prod_{t != s} (w - w_t), ascending
    basis[..., 0] = 1.0
    for t in range(k - 1):
        basis[..., 1:] = basis[..., :-1] - others[..., t, None] * basis[..., 1:]
        basis[..., 0] *= -others[..., t]
    weights = fs / np.prod(ws[..., None] - others, axis=-1)
    return (weights[..., None] * basis).sum(axis=1)


def _fit_r(eq: DefiningEquation, router: SheetRouter, c: complex,
           grid: Sequence[complex], bounds: tuple[int, int], tol: Tolerances,
           rng) -> tuple[list[RatFunc], list[float], float, bool, dict]:
    """The r_i of M = sum r_i W^i from the branch integrals on the grid (C in
    r_0), each r_i's fit residual, |C - snapped C|, whether C needed the fine
    denominator and the W roots over each grid point. Each grid point's roots
    are the end fiber its connector walked to, in lift order, so no grid
    fiber is solved again. Raises FitNotConverged naming the r_i whose scan
    failed, or all of them when the certificate fails."""
    ends, values = zip(*_walked_branch_integrals(eq, grid, router, tol, rng))
    samples = _interpolate(ends, c + np.asarray(values, dtype=complex))
    r, residuals = [], []
    for i, column in enumerate(samples.T):
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
    return r, residuals, abs(complex(exact - constant)), fine, dict(zip(grid, ends))


def _psi(eq: DefiningEquation) -> list[RatFunc]:
    """Psi ascending in W: A_k, ..., A_1, 1."""
    return list(reversed(eq.coeffs)) + [RatFunc.one()]


def _mod_psi(f: Sequence, psi: Sequence) -> list:
    """f reduced modulo the monic Psi: ascending in W, at most k terms."""
    k = len(psi) - 1
    f = list(f)
    for top in range(len(f) - 1, k - 1, -1):
        lead = f.pop()
        if not lead.is_zero():
            for j in range(k):
                f[top - k + j] = f[top - k + j] - lead * psi[j]
    return f


# tried in order by _certify; fixed, so that the certificate draws nothing from rng
_CHECK_POINTS = (GaussianRational(Fraction(1, 3), Fraction(2, 7)),
                 GaussianRational(Fraction(-2, 5), Fraction(3, 11)),
                 GaussianRational(Fraction(5, 13), Fraction(-7, 17)))


def _defect(psi: list, psi_z: list, r: list, r_z: list) -> list:
    """Psi_W (sum r_i' W^i - W) - Psi_z sum i r_i W^(i-1) mod Psi, ascending in
    W, from the coefficients ascending in W of the monic Psi, Psi_z, R = sum
    r_i W^i and R_z: as RatFuncs of z, or as their values at one point."""
    one = psi[-1]  # Psi is monic
    zero = one - one
    r_z_less_w = [a - b for a, b in itertools.zip_longest(r_z, [zero, one], fillvalue=zero)]
    left = w_poly_mul(w_poly_derivative(psi), r_z_less_w)
    right = w_poly_mul(psi_z, w_poly_derivative(r))
    defect = [a - b for a, b in itertools.zip_longest(left, right, fillvalue=zero)]
    return _mod_psi(defect, psi)


def _certify(eq: DefiningEquation, r: Sequence[RatFunc]) -> bool:
    """Exactly whether R = sum r_i W^i has R' = W on the surface of Psi: whether
    _defect is 0. Psi is monic, so _defect divides by nothing, and it is
    first taken at the first of _CHECK_POINTS where no A_j, r_i or their
    derivatives has a pole. The defect of a right fit vanishes there, so
    only a zero there leads to the exact check, whose cost has no bound."""
    dpsi = list(reversed(eq._dcoeffs)) + [RatFunc.zero()]  # the derivatives Psi_z reads
    forms = (_psi(eq), dpsi, list(r), [ri.derivative() for ri in r])
    for z0 in _CHECK_POINTS:
        try:
            values = [[c.eval_exact(z0) for c in cs] for cs in forms]
        except ZeroDivisionError:  # a pole at z0
            continue
        if not all(d.is_zero() for d in _defect(*values)):
            return False
        break
    return all(d.is_zero() for d in _defect(*forms))


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

    Refuses, in this order, a reducible equation, a nonzero residue at a
    pole and a nonzero edge period, all read from the router's loops with
    no Puiseux expansion (n_max and tol_coeff do not apply), then fits the
    r_i of M = C + sum r_i W^i on a grid and certifies R' = W exactly. The
    default grid has 8 points, with one retry on 4 * max(bounds) points per
    circle; a given grid is used as is.
    """
    router = SheetRouter(eq, base, tol, rng)
    orbits = _orbits(eq.k, router.gens)
    if len(orbits) > 1:
        raise RefusedReducible(
            f"monodromy orbits {orbits} are intransitive; the defining "
            "equation is reducible and the theorem does not apply",
            orbits=orbits,
        )
    # a cycle's residue: its orbit's loop periods over 2 pi i, since the spokes
    # cancel over the orbit and the loop's circle encloses its pole alone
    offenders = []
    for cp, sigma, periods in zip(router.centers, router.gens, router.periods):
        if cp.kind == KIND_DISC:
            continue  # no A_j has a pole: the branches are bounded, the residue is 0
        for orbit in _orbits(eq.k, [sigma]):
            residue = sum(periods[s] for s in orbit) / (2j * math.pi)
            if abs(residue) > tol.residue_tol:
                offenders.append((cp.location, orbit, residue))
    if offenders:
        raise RefusedNonzeroResidue(
            "singular elements with nonzero residue: "
            + ", ".join(f"center {z}, cycle {cyc}, residue {r}" for z, cyc, r in offenders),
            offenders=offenders,
        )
    sv_defect = _sv_audit(router, tol)

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
    model = AntiderivativeModel(eq.k, router.base, c, tuple(coeffs), tuple(r), diag)
    if verify:
        defect = verify_antiderivative(model, eq, tol=tol, fibers=fibers)
        model = replace(model, diagnostics=replace(diag, derivative_defect=defect))
    return model


def verify_antiderivative(model: AntiderivativeModel, eq: DefiningEquation,
                          probes: Optional[Sequence[complex]] = None,
                          tol: Tolerances = DEFAULT, fibers: Optional[dict] = None) -> float:
    """The largest defect of the B_j at the values of M over the probes (by
    default 6 grid points): each root w_i of Psi over a probe z gives
    m_i = sum r_i(z) w_i^i, and the defect is the larger of
    |Psi_M(m_i)| / residual_scale and |-Psi_M,z(m_i) / Psi_M,W(m_i) - w_i|,
    Psi_M = M^k + sum B_j M^(k-j), so the B_j must annihilate M and give it
    the derivative W. Each m_i comes from its own w_i: nothing is paired.
    fibers may map probes to their k roots (build_antiderivative passes the
    end fibers its grid connectors walked to); fiber_at solves the others.
    A probe is skipped where fiber_at raises NearCriticalPoint or two m_i
    fail its separation gate; ValueError when every probe is."""
    if probes is None:
        grid = model.diagnostics.sample_grid
        step = max(1, len(grid) // 5)
        probes = grid[::step][:6]
    d_coeffs = [b.derivative() for b in model.coeffs]
    defects = []
    for z in probes:
        try:
            ws = fibers[z] if fibers and z in fibers else fiber_at(eq, z, tol).roots
        except NearCriticalPoint:
            continue
        r = [ri.eval_complex(z) for ri in model.r]
        m_fiber = Fiber(z, tuple(poly_eval(r, w) for w in ws))
        if m_fiber.min_separation < tol.delta_sep * m_fiber.scale:
            continue
        psi = [b.eval_complex(z) for b in reversed(model.coeffs)] + [1.0]  # ascending in M
        psi_z = [b.eval_complex(z) for b in reversed(d_coeffs)]
        for m, w in zip(m_fiber.roots, ws):
            value, slope = poly_eval_pair(psi, m)
            defects += [abs(value) / residual_scale(psi, m), abs(-poly_eval(psi_z, m) / slope - w)]
    if not defects:
        raise ValueError("no probe was regular for both equations")
    return float(np.max(defects))  # NaN-safe


def constant_family(model: AntiderivativeModel, c_new) -> list[RatFunc]:
    """Defining coefficients of the antiderivative family member M(z) + c_new.

    The shift is computed exactly over RatFunc; complex floats embed
    exactly as Gaussian rationals.
    """
    c_exact = RatFunc.constant(GaussianRational.of(c_new))
    return shifted_coeffs(list(model.coeffs), c_exact, RatFunc.one())
