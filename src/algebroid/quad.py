"""Definite integrals on the Riemann surface and path-independence audits.

The integrand w(z) dz is evaluated on the tracked branch; each segment is
integrated by 16-point Gauss-Legendre quadrature with adaptive bisection
until the whole-piece and two-half estimates agree. Bisection runs on
every tracked sheet at once: a piece is split until each sheet passes its
own test, so fiber_integral integrates a whole fiber in one tracking pass
where surface_integral integrates one sheet. Because admissible
paths keep a margin from the critical set, the integrand is analytic and
the per-piece rule converges spectrally; tracker._walk checks that margin
once and walks each segment once, and every piece reads the fiber at its 16
Gauss nodes from that walked segment's rows, so quadrature takes the
tracker's own steps and no step per node. Residue checks read their
cycles from puiseux.singular_elements, the one route to local data, and
share the m-turn loop integrals _cycle_loop_values, one fiber_integral turn
per center, with residue_by_contour and the CLI's contour check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import EndpointGermMismatch, LiftNotClosed, QuadratureStall
from .puiseux import _radius, singular_elements
from .surface import DefiningEquation, _lift_sheets, _sheet_permutation, fiber_at, match_to_fiber
from .tracker import BasePath, SurfacePoint, germ_at, loop_path, safe_line
from .tracker import _WalkedSegment, _path_margin, _walk  # the one walk and its margin policy

__all__ = [
    "SurfaceIntegralResult",
    "IntegralElement",
    "AuditReport",
    "ResidueCheck",
    "surface_integral",
    "fiber_integral",
    "closed_loop_integral",
    "residue_theorem_check",
    "c_ab",
    "path_independence_audit",
    "integral_element_continuation_check",
]

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_GL_X = tuple(float(x) for x in _GL_X)
_GL_W = tuple(float(w) for w in _GL_W)
_MAX_DEPTH = 30


@dataclass(frozen=True)
class SurfaceIntegralResult:
    value: complex
    error_estimate: float
    endpoint: SurfacePoint
    closed_on_surface: bool


@dataclass(frozen=True)
class IntegralElement:
    """Integral function element data: c_ab plus its base and target germs."""

    base: SurfacePoint
    target: SurfacePoint
    c_ab: complex


@dataclass(frozen=True)
class ResidueCheck:
    center: complex
    cycle: tuple[int, ...]
    m: int
    loop_value: complex
    residue: complex
    expected: complex  # 2*pi*i * residue
    discrepancy: float


@dataclass(frozen=True)
class AuditReport:
    c_values: tuple[complex, ...]
    pairs: tuple[tuple[int, int, float], ...]
    max_discrepancy: float
    verdict: str  # "independent" | "dependent"
    enclosed_residue_data: tuple[ResidueCheck, ...]


def _eval_piece(walked: _WalkedSegment, t0: float, t1: float, positions: Sequence[int]):
    """16-point Gauss-Legendre values of w dz on [t0, t1] per position, with
    the fiber at the nodes read from the walked segment."""
    half = 0.5 * (t1 - t0)
    mid = 0.5 * (t1 + t0)
    ts = [mid + half * x for x in _GL_X]
    acc = [0j] * len(positions)
    for tt, wt, fiber in zip(ts, _GL_W, walked.rows(ts).tolist()):
        d = walked.seg.deriv(tt)
        for i, pos in enumerate(positions):
            acc[i] += wt * fiber[pos] * d
    return [a * half for a in acc]


def _bisect(walked: _WalkedSegment, t0: float, t1: float, whole: Sequence[complex],
            positions: Sequence[int], tol_abs: float, tol_rel: float, depth: int):
    """Per-position values and error estimates on [t0, t1]. A piece is split
    until every position passes its own test."""
    tm = 0.5 * (t0 + t1)
    left = _eval_piece(walked, t0, tm, positions)
    right = _eval_piece(walked, tm, t1, positions)
    halves = [l + r for l, r in zip(left, right)]
    errs = [abs(w - h) for w, h in zip(whole, halves)]
    if all(e <= tol_abs * (t1 - t0) + tol_rel * abs(h) for e, h in zip(errs, halves)):
        return halves, errs
    if depth >= _MAX_DEPTH:
        raise QuadratureStall(
            f"adaptive bisection stalled on [{t0}, {t1}] (err {max(errs):.3e})"
        )
    lv, le = _bisect(walked, t0, tm, left, positions, tol_abs, tol_rel, depth + 1)
    rv, re_ = _bisect(walked, tm, t1, right, positions, tol_abs, tol_rel, depth + 1)
    return [a + b for a, b in zip(lv, rv)], [a + b for a, b in zip(le, re_)]


def _integrate(eq: DefiningEquation, fiber: Sequence[complex], path: BasePath,
               tol: Tolerances, delta_path: Optional[float], positions: Sequence[int]):
    """Integrals of w dz on the given fiber positions along a nonempty path:
    (values, error estimates, end fiber in position order)."""
    totals = [0j] * len(positions)
    errs = [0.0] * len(positions)
    for _, share, walked in _walk(eq, fiber, path, tol, delta_path):
        vals, es = _bisect(
            walked, 0.0, 1.0, _eval_piece(walked, 0.0, 1.0, positions), positions,
            tol_abs=tol.quad_tol * max(share, 1e-3),
            tol_rel=tol.quad_tol,
            depth=0,
        )
        totals = [a + b for a, b in zip(totals, vals)]
        errs = [a + b for a, b in zip(errs, es)]
    return totals, errs, walked.end


def surface_integral(eq: DefiningEquation, start: SurfacePoint, path: BasePath,
                     tol: Tolerances = DEFAULT,
                     delta_path: Optional[float] = None) -> SurfaceIntegralResult:
    """Integral of w(z) dz along the lift of the path from the start germ."""
    start = germ_at(eq, start.z, start.w, tol)
    if not path.segments:
        return SurfaceIntegralResult(0j, 0.0, start, True)
    if abs(path.start_z - start.z) > 1e-9 * (1.0 + abs(start.z)):
        raise ValueError(f"path starts at {path.start_z}, germ sits at {start.z}")

    fiber0 = fiber_at(eq, start.z, tol)
    pos = match_to_fiber(start.w, fiber0, tol)
    fiber = list(fiber0.roots)
    fiber[pos] = start.w
    (total,), (err,), fiber = _integrate(eq, fiber, path, tol, delta_path, (pos,))

    end_w = fiber[pos]
    endpoint = SurfacePoint(path.end_z, end_w)
    closed = False
    if path.is_closed():
        end_fiber = fiber_at(eq, path.start_z, tol)
        closed = match_to_fiber(end_w, end_fiber, tol) == match_to_fiber(
            start.w, end_fiber, tol
        )
    return SurfaceIntegralResult(total, err, endpoint, closed)


def fiber_integral(eq: DefiningEquation, roots: Sequence[complex], path: BasePath,
                   tol: Tolerances = DEFAULT,
                   delta_path: Optional[float] = None) -> tuple[list[complex], list[complex]]:
    """Integrals of w(z) dz along the lifts of the path from every root of a
    fiber over its start, in one tracking pass.

    Returns (values, end roots) in position order: entry j belongs to the
    lift that starts at roots[j], as in continue_fiber.
    """
    roots = list(roots)
    if not path.segments:
        return [0j] * len(roots), roots
    values, _, end = _integrate(eq, roots, path, tol, delta_path, range(len(roots)))
    return values, end


def closed_loop_integral(eq: DefiningEquation, start: SurfacePoint, loop: BasePath,
                         tol: Tolerances = DEFAULT,
                         delta_path: Optional[float] = None) -> SurfaceIntegralResult:
    """Integral over a closed base loop; the lift must close on the surface."""
    if not loop.is_closed():
        raise ValueError("closed_loop_integral requires a closed base path")
    res = surface_integral(eq, start, loop, tol, delta_path)
    if not res.closed_on_surface:
        end_fiber = fiber_at(eq, loop.start_z, tol)
        raise LiftNotClosed(
            "the lift of the loop ends on a different sheet; iterate the loop "
            "to its cycle length to close it on the surface",
            value=res.value,
            end_sheet=match_to_fiber(res.endpoint.w, end_fiber, tol),
        )
    return res


def _cycle_loop_values(eq: DefiningEquation, a: complex, cycles: Sequence[Sequence[int]],
                       epsilon: Optional[float], tol: Tolerances) -> list[complex]:
    """Per cycle, the integral of w dz over the m-turn circle about a lifted
    from sheet cycle[0] over a + epsilon, m = len(cycle): the sum of the
    one-turn integrals of the sheets that lift passes, from one fiber_integral
    turn. The radius resolves through puiseux._radius."""
    epsilon = _radius(eq, a, epsilon, tol)
    fiber = fiber_at(eq, a + epsilon, tol)
    loop = loop_path(a, epsilon, 1)
    values, end = fiber_integral(eq, fiber.roots, loop, tol, delta_path=0.5 * epsilon)
    sigma = _sheet_permutation(end, fiber, tol)
    return [sum((values[s] for s in _lift_sheets(sigma, c)), 0j) for c in cycles]


def residue_theorem_check(eq: DefiningEquation, a: complex,
                          epsilon: Optional[float] = None,
                          tol: Tolerances = DEFAULT) -> list[ResidueCheck]:
    """Per cycle at a: the m-turn loop integral against 2*pi*i times the residue."""
    report = singular_elements(eq, a, epsilon=epsilon, tol=tol)
    values = _cycle_loop_values(eq, a, [c.sheets for c in report.cycles], epsilon, tol)
    checks = []
    for c, value in zip(report.cycles, values):
        expected = 2j * math.pi * c.residue
        checks.append(
            ResidueCheck(
                center=a,
                cycle=c.sheets,
                m=c.expansion.m,
                loop_value=value,
                residue=c.residue,
                expected=expected,
                discrepancy=abs(value - expected),
            )
        )
    return checks


def c_ab(eq: DefiningEquation, base: SurfacePoint, target: SurfacePoint,
         path: BasePath, tol: Tolerances = DEFAULT,
         delta_path: Optional[float] = None) -> IntegralElement:
    """Definite integral from the base germ to the target germ along a path."""
    base = germ_at(eq, base.z, base.w, tol)
    target = germ_at(eq, target.z, target.w, tol)
    if not path.segments:
        same_z = abs(base.z - target.z) <= 1e-9 * (1.0 + abs(base.z))
        if not same_z:
            raise ValueError("empty path but distinct base and target points")
        fiber = fiber_at(eq, base.z, tol)
        if match_to_fiber(base.w, fiber, tol) != match_to_fiber(target.w, fiber, tol):
            raise EndpointGermMismatch("empty path cannot connect different sheets")
        return IntegralElement(base, target, 0j)
    if abs(path.end_z - target.z) > 1e-9 * (1.0 + abs(target.z)):
        raise ValueError(f"path ends at {path.end_z}, target sits at {target.z}")
    res = surface_integral(eq, base, path, tol, delta_path)
    fiber = fiber_at(eq, target.z, tol)
    got = match_to_fiber(res.endpoint.w, fiber, tol)
    want = match_to_fiber(target.w, fiber, tol)
    if got != want:
        raise EndpointGermMismatch(
            f"lift reaches z={target.z} on sheet {got}, target germ is sheet {want}"
        )
    return IntegralElement(base, target, res.value)


def path_independence_audit(eq: DefiningEquation, base: SurfacePoint,
                            target: SurfacePoint, paths: Sequence[BasePath],
                            tol: Tolerances = DEFAULT) -> AuditReport:
    """Pairwise c_ab comparison plus residue/period diagnostics."""
    values = tuple(c_ab(eq, base, target, p, tol).c_ab for p in paths)
    pairs = []
    max_disc = 0.0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            d = abs(values[i] - values[j])
            pairs.append((i, j, d))
            max_disc = max(max_disc, d)
    verdict = "independent" if max_disc < tol.audit_tol else "dependent"
    residue_data = []
    for cp in eq.critical(tol).points:
        residue_data.extend(residue_theorem_check(eq, cp.location, tol=tol))
    return AuditReport(values, tuple(pairs), max_disc, verdict, tuple(residue_data))


def integral_element_continuation_check(
    eq: DefiningEquation,
    element: IntegralElement,
    probe: SurfacePoint,
    path_target_to_probe: Optional[BasePath] = None,
    path_base_to_probe: Optional[BasePath] = None,
    tol: Tolerances = DEFAULT,
) -> float:
    """Direct-continuation defect of the integral element at a probe germ.

    Compares c_ab + integral from the target germ to the probe against the
    integral recomputed through the base. Zero (up to quadrature error) when
    closed loops formed by the two routes have zero period.
    """
    probe = germ_at(eq, probe.z, probe.w, tol)
    margin = _path_margin(eq, tol, None)
    crit = eq.critical(tol).locations
    if path_target_to_probe is None:
        if abs(element.target.z - probe.z) <= 1e-12 * (1.0 + abs(probe.z)):
            path_target_to_probe = BasePath(())
        else:
            path_target_to_probe = safe_line(element.target.z, probe.z, crit, margin)
    if path_base_to_probe is None:
        path_base_to_probe = safe_line(element.base.z, probe.z, crit, margin)
    hop = c_ab(eq, element.target, probe, path_target_to_probe, tol)
    through_base = c_ab(eq, element.base, probe, path_base_to_probe, tol)
    return abs(element.c_ab + hop.c_ab - through_base.c_ab)
