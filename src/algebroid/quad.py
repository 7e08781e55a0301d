"""Definite integrals on the Riemann surface and path-independence audits.

The integrand w(z) dz is evaluated on the tracked branch; each segment is
integrated by 16-point Gauss-Legendre quadrature with adaptive bisection
until the whole-piece and two-half estimates agree. Bisection runs a level
at a time over the whole fiber: each level reads the nodes of both halves
of every pending piece in one batch, and a piece is split until every
sheet passes its own test. fiber_integral returns the whole fiber's
integrals, and surface_integral is one sheet's column of them. Because
admissible paths keep a margin from the critical set, the integrand is
analytic and the per-piece rule converges spectrally; tracker._walk checks
that margin once and walks each segment once, and every level reads the
fiber at its Gauss nodes from that walked segment's rows, so quadrature
takes the tracker's own steps and no step per node. Residue checks take
their cycles and the outer Puiseux turn from puiseux._local_data, the one
route to local data, and integrate that walked circle (_cycle_loop_values)
for the m-turn loop integrals, as residue_by_contour and the CLI do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import EndpointGermMismatch, LiftNotClosed, QuadratureStall
from .puiseux import _local_data
from .surface import DefiningEquation, _lift_sheets, fiber_at, match_to_fiber
from .tracker import BasePath, SurfacePoint, germ_at, safe_line
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
_MAX_DEPTH = 30
_MAX_PIECES = 1 << 6


@dataclass(frozen=True)
class SurfaceIntegralResult:
    value: complex
    error_estimate: float
    endpoint: SurfacePoint
    closed_on_surface: bool
    end_sheet: Optional[int] = None  # closed nonempty path: the lift's end in fiber_at(start)


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


def _gauss(walked: _WalkedSegment, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """16-point Gauss-Legendre values of w dz on each piece [t0[i], t1[i]],
    one row of fiber positions per piece, from one read of the walked
    segment's rows."""
    half = 0.5 * (t1 - t0)
    ts = ((0.5 * (t1 + t0))[:, None] + half[:, None] * _GL_X).ravel()
    a = walked.rows(ts).reshape(len(t0), len(_GL_X), -1) * _GL_W[:, None]
    d = np.array([walked.seg.deriv(t) for t in ts]).reshape(len(t0), -1, 1)
    # (wt w) dz in Python's complex arithmetic: numpy's complex multiply may use
    # FMA, which moves values by an ulp and can flip an accept decision
    terms = np.empty_like(a)
    terms.real, terms.imag = a.real * d.real - a.imag * d.imag, a.real * d.imag + a.imag * d.real
    return sum(terms.swapaxes(0, 1), 0j) * half[:, None]  # node by node, from 0j


def _integrate(walked_segments, tol: Tolerances):
    """Integrals of w dz on every fiber position along the walked segments of
    a nonempty path, given as _walk yields them: (values, error estimates,
    end fiber) in position order. Each segment is bisected a level at a time:
    one _gauss read gives both halves of every pending piece, and a piece is
    split until every position passes its own test."""
    total, err = 0j, 0.0
    for _, share, walked in walked_segments:
        tol_abs = tol.quad_tol * max(share, 1e-3)
        t0, t1 = np.zeros(1), np.ones(1)
        whole = _gauss(walked, t0, t1)
        for depth in range(_MAX_DEPTH + 1):
            tm = 0.5 * (t0 + t1)
            left, right = np.split(_gauss(walked, np.r_[t0, tm], np.r_[tm, t1]), 2)
            halves = left + right
            errs = np.abs(whole - halves)
            ok = (errs <= tol_abs * (t1 - t0)[:, None] + tol.quad_tol * np.abs(halves)).all(axis=1)
            total, err = total + halves[ok].sum(axis=0), err + errs[ok].sum(axis=0)
            if ok.all():
                break
            # Below round-off no piece passes and the pending count doubles with
            # each level until _MAX_DEPTH; refuse once a level would hold more
            # pieces than a convergent integral needs (the benchmark's hold 4).
            if depth == _MAX_DEPTH or 2 * np.count_nonzero(~ok) > _MAX_PIECES:
                i = np.flatnonzero(~ok)[0]
                raise QuadratureStall(
                    f"adaptive bisection stalled on [{t0[i]}, {t1[i]}] (err {errs[i].max():.3e})"
                )
            t0, t1 = np.c_[t0, tm][~ok].ravel(), np.c_[tm, t1][~ok].ravel()
            whole = np.stack((left, right), axis=1)[~ok].reshape(len(t0), -1)
    return total.tolist(), err.tolist(), walked.end


def surface_integral(eq: DefiningEquation, start: SurfacePoint, path: BasePath,
                     tol: Tolerances = DEFAULT) -> SurfaceIntegralResult:
    """Integral of w(z) dz along the lift of the path from the start germ;
    PathTooCloseToCritical when the path enters tracker._path_margin."""
    start = germ_at(eq, start.z, start.w, tol)
    if not path.segments:
        return SurfaceIntegralResult(0j, 0.0, start, True)
    if abs(path.start_z - start.z) > 1e-9 * (1.0 + abs(start.z)):
        raise ValueError(f"path starts at {path.start_z}, germ sits at {start.z}")

    fiber0 = fiber_at(eq, start.z, tol)
    pos = match_to_fiber(start.w, fiber0, tol)
    fiber = list(fiber0.roots)
    fiber[pos] = start.w
    values, errs, fiber = _integrate(_walk(eq, fiber, path, tol), tol)

    end_w = fiber[pos]
    end_sheet = match_to_fiber(end_w, fiber0, tol) if path.is_closed() else None
    return SurfaceIntegralResult(values[pos], errs[pos], SurfacePoint(path.end_z, end_w),
                                 end_sheet == pos, end_sheet)


def fiber_integral(eq: DefiningEquation, roots: Sequence[complex], path: BasePath,
                   tol: Tolerances = DEFAULT) -> tuple[list[complex], list[complex]]:
    """Integrals of w(z) dz along the lifts of the path from every root of a
    fiber over its start, in one tracking pass; PathTooCloseToCritical when
    the path enters tracker._path_margin.

    Returns (values, end roots) in position order: entry j belongs to the
    lift that starts at roots[j], as in continue_fiber.
    """
    roots = list(roots)
    if not path.segments:
        return [0j] * len(roots), roots
    values, _, end = _integrate(_walk(eq, roots, path, tol), tol)
    return values, end


def closed_loop_integral(eq: DefiningEquation, start: SurfacePoint, loop: BasePath,
                         tol: Tolerances = DEFAULT) -> SurfaceIntegralResult:
    """Integral over a closed base loop; the lift must close on the surface.
    PathTooCloseToCritical when the loop enters tracker._path_margin."""
    if not loop.is_closed():
        raise ValueError("closed_loop_integral requires a closed base path")
    res = surface_integral(eq, start, loop, tol)
    if not res.closed_on_surface:
        raise LiftNotClosed(
            "the lift of the loop ends on a different sheet; iterate the loop "
            "to its cycle length to close it on the surface",
            value=res.value,
            end_sheet=res.end_sheet,
        )
    return res


def _cycle_loop_values(turn, cycles: Sequence[Sequence[int]],
                       tol: Tolerances) -> list[complex]:
    """Per cycle, the integral of w dz over the m-turn circle lifted from
    sheet cycle[0], m = len(cycle): the sum of the one-turn integrals of the
    sheets that lift passes, integrated on the walked circle of a
    puiseux._turn and read through its permutation."""
    _, sigma, walked = turn
    values, _, _ = _integrate([(0.0, 1.0, walked)], tol)
    return [sum((values[s] for s in _lift_sheets(sigma, c)), 0j) for c in cycles]


def residue_theorem_check(eq: DefiningEquation, a: complex,
                          epsilon: Optional[float] = None,
                          tol: Tolerances = DEFAULT) -> list[ResidueCheck]:
    """Per cycle at a: the m-turn loop integral against 2*pi*i times the residue."""
    report, turn = _local_data(eq, a, epsilon, tol)
    values = _cycle_loop_values(turn, [c.sheets for c in report.cycles], tol)
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
         path: BasePath, tol: Tolerances = DEFAULT) -> IntegralElement:
    """Definite integral from the base germ to the target germ along a path;
    PathTooCloseToCritical when the path enters tracker._path_margin."""
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
    res = surface_integral(eq, base, path, tol)
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
    margin = _path_margin(eq, tol)
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
