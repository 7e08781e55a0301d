"""Antiderivative reconstruction: branch integrals, symmetric coefficients,
rational fitting, and the constant family.

The antiderivative of an irreducible equation with all-zero residues is
again a k-valued algebroid function. Its defining coefficients are the
signed elementary symmetric functions of the k branch integrals
F_j(z) = c + integral from a fixed base germ to the j-th germ over z; they
are sampled on a grid, fitted as rational functions, and verified through
the implicit derivative identity M'(z) = W(z).

build_antiderivative reads irreducibility, the sheet values and the
single-valuedness audit from SheetRouter's one fiber_integral per monodromy
generator, and expands residues only where a coefficient has a pole.
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
)
from .exactalg import GaussianRational, Poly, RatFunc, snap_to_gaussian
from .puiseux import singular_elements
# surface_integral: read here by benchmark/test_benchmark.py::test_tracer_rebinds_names_imported_elsewhere
from .quad import fiber_integral, surface_integral  # noqa: F401
from .surface import KIND_DISC, DefiningEquation, SheetPermutation, fiber_at, match_to_fiber
from .surface import _orbits, _sheet_permutation, generator_loops
from .tracker import SurfacePoint, germ_at, safe_line
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
    residuals: tuple[float, ...]
    sample_grid: tuple[complex, ...]
    degrees: tuple[tuple[int, int], ...]
    single_valuedness_defect: float
    derivative_defect: Optional[float] = None


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
        self.gens: list[SheetPermutation] = []
        self.periods: list[list[complex]] = []
        for loop in generator_loops(eq, base.z, tol, rng):
            periods, ends = fiber_integral(eq, self.germs, loop, tol)
            self.gens.append(_sheet_permutation(ends, fiber, tol))
            self.periods.append(periods)
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
    connector from the base point; one fiber_integral carries all k sheets
    along the connector.
    """
    if router is None:
        router = SheetRouter(eq, base, tol, rng)
    missing = [s for s in range(eq.k) if s not in router.values]
    if missing:
        raise UnreachableSheet(
            f"sheets {missing} are not reachable from the base sheet; "
            "the defining equation is reducible"
        )
    if abs(z - router.base.z) <= 1e-12 * (1.0 + abs(z)):
        return [router.values[s] for s in range(eq.k)]
    margin = _path_margin(eq, tol, None)
    connector = safe_line(router.base.z, z, eq.critical(tol).locations, margin, rng)
    fiber_t = fiber_at(eq, z, tol)
    values, ends = fiber_integral(eq, router.germs, connector, tol)
    inverse = _sheet_permutation(ends, fiber_t, tol).inverse()
    return [router.values[s] + values[s] for s in inverse.image]


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
    margin = 2.0 * _path_margin(eq, tol, None)
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


def build_antiderivative(eq: DefiningEquation, base: SurfacePoint,
                         c: complex = 0j,
                         grid: Optional[Sequence[complex]] = None,
                         bounds: Optional[tuple[int, int]] = None,
                         tol: Tolerances = DEFAULT, rng=None,
                         verify: bool = True) -> AntiderivativeModel:
    """Fit the defining equation of the antiderivative of W(z).

    Refuses reducible equations and nonzero residues, audits single-
    valuedness of the symmetric values around every monodromy generator,
    then samples branch integrals on the grid and fits each coefficient.
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
    if grid is None:
        grid = _default_grid(eq, 4 * max(bounds), tol)
    grid = [complex(z) for z in grid]

    per_coeff: list[list[tuple[complex, complex]]] = [[] for _ in range(eq.k)]
    for z in grid:
        values = branch_integrals_at(eq, base, z, router, tol, rng)
        bvec = symmetric_coeffs([c + v for v in values])
        for j in range(eq.k):
            per_coeff[j].append((z, bvec[j]))

    coeffs = []
    residuals = []
    degrees = []
    for j in range(eq.k):
        rf, resid = fit_rational(per_coeff[j], bounds, tol)
        coeffs.append(rf)
        residuals.append(resid)
        degrees.append((rf.num.degree, rf.den.degree))

    diag = FitDiagnostics(
        residuals=tuple(residuals),
        sample_grid=tuple(grid),
        degrees=tuple(degrees),
        single_valuedness_defect=sv_defect,
    )
    model = AntiderivativeModel(eq.k, base, c, tuple(coeffs), diag)
    if verify:
        defect = verify_antiderivative(model, eq, tol=tol)
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
                          tol: Tolerances = DEFAULT) -> float:
    """Max defect of the implicit derivative identity M'(z) = W(z)."""
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
            wf = fiber_at(eq, z, tol)
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
