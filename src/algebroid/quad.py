"""Definite integrals on the Riemann surface and path-independence audits.

The integrand w(z) dz is evaluated on the tracked branch; each segment is
integrated by 16-point Gauss-Legendre quadrature with adaptive bisection
until the whole-piece and two-half estimates agree. Bisection runs a level
at a time over the whole fiber, and a piece is split until every sheet
passes its own test. fiber_integral returns the whole fiber's integrals,
and surface_integral is one sheet's column of them. Because admissible
paths keep a margin from the critical set, the integrand is analytic and
the per-piece rule converges spectrally.

_integrate takes many paths at once. Each path is walked segment by
segment from its own start fiber by tracker._walk, which checks the margin
once; then each level reads the Gauss nodes of every pending piece of
every segment of every path in one batched read (tracker._read): one
array pass per equation for the nodes, the Hermite prediction and the
Newton correction, with dz/dt from the segments' array form (derivs), so
quadrature takes the tracker's own steps and no step per node. A segment
sees the reads, stops and re-walks it would see alone, so every value is
the one a path integrated alone gets, and one path is a batch of one. A
refusal is held for its own path, and the callers that batch their paths
(the audit's c_ab paths, SheetRouter's loops, the grid connectors, the
contour residues of all centers) raise the first in path order: the one
integrating the paths one after another would raise. Residue checks take
the local data of all their centers from puiseux._local_data, the one route
to it, which reads every Puiseux turn of every center in one pass. They
integrate the outer turns, every center's walked circle in one batch
(_cycle_loop_values), for the m-turn loop integrals, as residue_by_contour
and the CLI do, and raise the first refusal in center order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import AlgebroidError, EndpointGermMismatch, LiftNotClosed, QuadratureStall
from .errors import held, settle, then
from .puiseux import _local_data
from .surface import DefiningEquation, _lift_sheets, fiber_at, match_to_fiber
from .tracker import BasePath, SurfacePoint, germ_at, safe_line, same_z
from .tracker import _WalkedSegment, _bounds, _by_equation, _path_margin, _read, _shares, _walk

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


def _gauss(walked: Sequence[_WalkedSegment], t0s: Sequence[np.ndarray],
           t1s: Sequence[np.ndarray]) -> list:
    """16-point Gauss-Legendre values of w dz on the pieces [t0[i], t1[i]] of
    each walked segment, t0 and t1 its entries of t0s and t1s, from one
    batched read of all their rows (tracker._read): per segment one row of
    fiber positions per piece, or the refusal held for it."""
    halves = [0.5 * (t1 - t0) for t0, t1 in zip(t0s, t1s)]
    tss = [((0.5 * (t1 + t0))[:, None] + half[:, None] * _GL_X).ravel()
           for t0, t1, half in zip(t0s, t1s, halves)]
    reads = _read(walked, tss)
    live = [i for i, rows in enumerate(reads) if not isinstance(rows, AlgebroidError)]
    for group in _by_equation(walked, live):
        rows = np.concatenate([reads[i] for i in group])
        a = rows.reshape(-1, len(_GL_X), rows.shape[1]) * _GL_W[:, None]
        d = np.concatenate([walked[i].seg.derivs(tss[i]) for i in group]).reshape(len(a), -1, 1)
        # (wt w) dz in Python's complex arithmetic: numpy's complex multiply may use
        # FMA, which moves values by an ulp and can flip an accept decision
        terms = np.empty_like(a)
        terms.real = a.real * d.real - a.imag * d.imag
        terms.imag = a.real * d.imag + a.imag * d.real
        half = np.concatenate([halves[i] for i in group])[:, None]
        values = sum(terms.swapaxes(0, 1), 0j) * half  # node by node, from 0j
        bounds = _bounds([halves[i] for i in group])
        for i, lo, hi in zip(group, bounds, bounds[1:]):
            reads[i] = values[lo:hi]
    return reads


class _Bisection:
    """Adaptive bisection of one walked segment, a level at a time: its
    pending pieces [t0, t1] with their whole-piece values (None before the
    first read), and the sums of values and error estimates it accepted at
    each level. A piece is split until every fiber position passes its own
    test."""

    __slots__ = ("walked", "quad_tol", "tol_abs", "t0", "t1", "whole", "depth", "accepted",
                 "done")

    def __init__(self, walked: _WalkedSegment, share: float, tol: Tolerances):
        self.walked, self.quad_tol = walked, tol.quad_tol
        self.tol_abs = tol.quad_tol * max(share, 1e-3)
        self.t0, self.t1, self.whole = np.zeros(1), np.ones(1), None
        self.depth, self.accepted, self.done = 0, [], False

    def pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """The pieces its next read needs: the whole segment, then both
        halves of every pending piece."""
        if self.whole is None:
            return self.t0, self.t1
        tm = 0.5 * (self.t0 + self.t1)
        return np.concatenate((self.t0, tm)), np.concatenate((tm, self.t1))

    def take(self, values: np.ndarray):
        """Take the values _gauss read on pieces(); QuadratureStall when a
        level would hold more pieces than a convergent integral needs."""
        if self.whole is None:
            self.whole = values
            return
        t0, t1 = self.t0, self.t1
        tm = 0.5 * (t0 + t1)
        left, right = np.split(values, 2)
        halves = left + right
        errs = np.abs(self.whole - halves)
        ok = (errs <= self.tol_abs * (t1 - t0)[:, None] + self.quad_tol * np.abs(halves)).all(axis=1)
        self.accepted.append((halves[ok].sum(axis=0), errs[ok].sum(axis=0)))
        if ok.all():
            self.done = True
            return
        # Below round-off no piece passes and the pending count doubles with
        # each level until _MAX_DEPTH; refuse once a level would hold more
        # pieces than a convergent integral needs (the benchmark's hold 4).
        if self.depth == _MAX_DEPTH or 2 * np.count_nonzero(~ok) > _MAX_PIECES:
            i = np.flatnonzero(~ok)[0]
            raise QuadratureStall(
                f"adaptive bisection stalled on [{t0[i]}, {t1[i]}] (err {errs[i].max():.3e})"
            )
        self.depth += 1
        self.t0, self.t1 = np.c_[t0, tm][~ok].ravel(), np.c_[tm, t1][~ok].ravel()
        self.whole = np.stack((left, right), axis=1)[~ok].reshape(len(self.t0), -1)


class _Lift:
    """One path's lift for _integrate: its segments walked in a chain from the
    start fiber by tracker._walk, each with its bisection, and the refusal
    held for the path, which ends the chain where it was met. walked, a
    segment already walked, is the whole path when given."""

    __slots__ = ("eq", "tol", "roots", "path", "shares", "parts", "refusal")

    def __init__(self, eq: DefiningEquation, roots: Sequence[complex], path: BasePath,
                 tol: Tolerances, walked: Optional[_WalkedSegment] = None):
        self.eq, self.tol, self.roots, self.path = eq, tol, list(roots), path
        self.shares, self.parts, self.refusal = _shares(path), [], None
        if walked is not None:
            self.parts.append(_Bisection(walked, 1.0, tol))
        elif path.segments:
            self.chain(0, self.roots)

    def chain(self, j: int, fiber: Sequence[complex]):
        """Walk the segments from the j-th on, the j-th from fiber."""
        del self.parts[j:]
        self.refusal = None
        try:
            for _, _, walked in _walk(self.eq, fiber, BasePath(self.path.segments[j:]), self.tol):
                self.parts.append(_Bisection(walked, self.shares[len(self.parts)], self.tol))
        except AlgebroidError as exc:
            self.refusal = exc

    def cut(self, j: int, refusal: AlgebroidError):
        """End the path at its j-th segment with a refusal."""
        del self.parts[j:]
        self.refusal = refusal

    def result(self):
        """(values, error estimates, end fiber) in position order, summed
        segment by segment and level by level; or the held refusal."""
        if self.refusal is not None:
            return self.refusal
        total, err = np.zeros(len(self.roots), dtype=complex), np.zeros(len(self.roots))
        for part in self.parts:
            for value, error in part.accepted:
                total, err = total + value, err + error
        end = self.parts[-1].walked.end if self.parts else self.roots
        return total.tolist(), err.tolist(), end


def _integrate(lifts: Sequence) -> list:
    """Integrals of w dz on every fiber position along each lift: per lift
    its _Lift.result, and a lift that is a held refusal stays one.

    Each bisection level of every pending segment of every lift is read in
    one _gauss call. A segment is integrated exactly as alone: its reads,
    stops and re-walks are its own. A segment walked again whose end fiber
    moves walks the rest of its path again from there, since one after
    another each segment is walked from the end of the one before once that
    is integrated. A refusal ends its own path only.
    """
    while True:
        active = [(lift, j, part) for lift in lifts if isinstance(lift, _Lift)
                  for j, part in enumerate(lift.parts) if not part.done]
        if not active:
            return [lift.result() if isinstance(lift, _Lift) else lift for lift in lifts]
        ends = [part.walked.end for _, _, part in active]
        pieces = [part.pieces() for _, _, part in active]
        reads = _gauss([part.walked for _, _, part in active], *zip(*pieces))
        for (lift, j, part), end, values in zip(active, ends, reads):
            if j >= len(lift.parts) or lift.parts[j] is not part:
                continue  # an earlier segment of its path cut or re-walked the rest
            if not isinstance(values, AlgebroidError):
                values = held(part.take, values)
            if isinstance(values, AlgebroidError):
                lift.cut(j, values)
            elif part.walked.end != end and j + 1 < len(lift.path.segments):
                lift.chain(j + 1, part.walked.end)


def _fiber_integrals(eq: DefiningEquation, starts: Sequence, tol: Tolerances) -> list:
    """For each (roots, path) of starts, the integrals of w dz along the lifts
    of the path from every root, their error estimates and the end roots, in
    position order, or the refusal held for that path. All the paths are
    integrated in one batch (_integrate); a start that is a held refusal
    stays one."""
    return _integrate(then(lambda start: _Lift(eq, *start, tol), starts))


def _surface_integrals(eq: DefiningEquation, jobs: Sequence, tol: Tolerances) -> list:
    """surface_integral for each (start germ, path) of jobs, all the paths
    integrated in one batch: per job its result or the refusal held for it."""
    def start(job):  # the polished germ, the fiber over it and its position there
        germ, path = job
        germ = germ_at(eq, germ.z, germ.w, tol)
        if not path.segments:
            return germ, None, None, [], path
        if not same_z(path.start_z, germ.z):
            raise ValueError(f"path starts at {path.start_z}, germ sits at {germ.z}")
        fiber0 = fiber_at(eq, germ.z, tol)
        pos = match_to_fiber(germ.w, fiber0, tol)
        roots = list(fiber0.roots)
        roots[pos] = germ.w
        return germ, fiber0, pos, roots, path

    def result(integral, start):
        germ, fiber0, pos, _, path = start
        if not path.segments:
            return SurfaceIntegralResult(0j, 0.0, germ, True)
        values, errs, fiber = integral
        end_w = fiber[pos]
        end_sheet = match_to_fiber(end_w, fiber0, tol) if path.is_closed() else None
        return SurfaceIntegralResult(values[pos], errs[pos], SurfacePoint(path.end_z, end_w),
                                     end_sheet == pos, end_sheet)

    starts = then(start, jobs)
    integrals = _fiber_integrals(eq, then(lambda s: s[3:], starts), tol)  # (roots, path)
    return then(result, integrals, starts)


def surface_integral(eq: DefiningEquation, start: SurfacePoint, path: BasePath,
                     tol: Tolerances = DEFAULT) -> SurfaceIntegralResult:
    """Integral of w(z) dz along the lift of the path from the start germ;
    PathTooCloseToCritical when the path enters tracker._path_margin."""
    return settle(_surface_integrals(eq, [(start, path)], tol))[0]


def fiber_integral(eq: DefiningEquation, roots: Sequence[complex], path: BasePath,
                   tol: Tolerances = DEFAULT) -> tuple[list[complex], list[complex]]:
    """Integrals of w(z) dz along the lifts of the path from every root of a
    fiber over its start, in one tracking pass; PathTooCloseToCritical when
    the path enters tracker._path_margin.

    Returns (values, end roots) in position order: entry j belongs to the
    lift that starts at roots[j], as in continue_fiber.
    """
    values, _, end = settle(_fiber_integrals(eq, [(roots, path)], tol))[0]
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


def _cycle_loop_values(entries: Sequence, tol: Tolerances) -> list:
    """For each (turn, cycles) of entries, turn a Puiseux turn (rows,
    permutation, walked circle) as puiseux._sampled gives it: per cycle the
    integral of w dz over the m-turn circle lifted from sheet cycle[0],
    m = len(cycle), the sum of the one-turn integrals of the sheets that lift
    passes, read through the turn's permutation; or the refusal held for the
    entry. Every walked circle is integrated in one batch, and an entry that
    is a held refusal stays one."""
    def lift(entry):
        walked = entry[0][2]
        return _Lift(walked.eq, walked.start, BasePath((walked.seg,)), tol, walked)

    def loops(integral, entry):
        (_, sigma, _), cycles = entry
        values = integral[0]
        return [sum((values[s] for s in _lift_sheets(sigma, c)), 0j) for c in cycles]

    return then(loops, _integrate(then(lift, entries)), entries)


def _residue_loops(eq: DefiningEquation, centers: Sequence[complex],
                   epsilon: Optional[float], tol: Tolerances) -> list:
    """Per center: its singular_elements report and the m-turn loop integral
    of each of its cycles, or the refusal held for it. The Puiseux turns of
    every center are read in one pass (puiseux._local_data), and every
    center's outer turn is integrated in one batch (_cycle_loop_values)."""
    local = _local_data(eq, centers, epsilon, tol)
    entries = then(lambda data: (data[1], [c.sheets for c in data[0].cycles]), local)
    return then(lambda loops, data: (data[0], loops), _cycle_loop_values(entries, tol), local)


def _residue_checks(a: complex, report, loops: Sequence[complex]) -> list[ResidueCheck]:
    """Per cycle at a: the m-turn loop integral against 2*pi*i times the residue."""
    checks = []
    for c, value in zip(report.cycles, loops):
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


def residue_theorem_check(eq: DefiningEquation, a: complex,
                          epsilon: Optional[float] = None,
                          tol: Tolerances = DEFAULT) -> list[ResidueCheck]:
    """Per cycle at a: the m-turn loop integral against 2*pi*i times the residue."""
    ((report, loops),) = settle(_residue_loops(eq, [a], epsilon, tol))
    return _residue_checks(a, report, loops)


def _c_abs(eq: DefiningEquation, base: SurfacePoint, target: SurfacePoint,
           paths: Sequence[BasePath], tol: Tolerances) -> list:
    """c_ab along each path, all the paths integrated in one batch: per path
    its IntegralElement or the refusal held for it."""
    def germs():
        return germ_at(eq, base.z, base.w, tol), germ_at(eq, target.z, target.w, tol)

    def ends(pair, path):
        b, t = pair
        if not path.segments:
            if not same_z(b.z, t.z):
                raise ValueError("empty path but distinct base and target points")
            fiber = fiber_at(eq, b.z, tol)
            if match_to_fiber(b.w, fiber, tol) != match_to_fiber(t.w, fiber, tol):
                raise EndpointGermMismatch("empty path cannot connect different sheets")
        elif not same_z(path.end_z, t.z):
            raise ValueError(f"path ends at {path.end_z}, target sits at {t.z}")
        return b, t, path

    def element(res, job):
        b, t, path = job
        if not path.segments:
            return IntegralElement(b, t, 0j)
        fiber = fiber_at(eq, t.z, tol)
        got = match_to_fiber(res.endpoint.w, fiber, tol)
        want = match_to_fiber(t.w, fiber, tol)
        if got != want:
            raise EndpointGermMismatch(
                f"lift reaches z={t.z} on sheet {got}, target germ is sheet {want}"
            )
        return IntegralElement(b, t, res.value)

    jobs = then(ends, [held(germs)] * len(paths), paths)
    integrals = _surface_integrals(eq, then(lambda job: (job[0], job[2]), jobs), tol)
    return then(element, integrals, jobs)


def c_ab(eq: DefiningEquation, base: SurfacePoint, target: SurfacePoint,
         path: BasePath, tol: Tolerances = DEFAULT) -> IntegralElement:
    """Definite integral from the base germ to the target germ along a path;
    PathTooCloseToCritical when the path enters tracker._path_margin."""
    return settle(_c_abs(eq, base, target, [path], tol))[0]


def path_independence_audit(eq: DefiningEquation, base: SurfacePoint,
                            target: SurfacePoint, paths: Sequence[BasePath],
                            tol: Tolerances = DEFAULT) -> AuditReport:
    """Pairwise c_ab comparison plus residue/period diagnostics; the paths are
    integrated in one batch, then the outer turns of all critical points."""
    values = tuple(e.c_ab for e in settle(_c_abs(eq, base, target, paths, tol)))
    pairs = []
    max_disc = 0.0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            d = abs(values[i] - values[j])
            pairs.append((i, j, d))
            max_disc = max(max_disc, d)
    verdict = "independent" if max_disc < tol.audit_tol else "dependent"
    centers = [cp.location for cp in eq.critical(tol).points]
    residue_data = []
    for a, (report, loops) in zip(centers, settle(_residue_loops(eq, centers, None, tol))):
        residue_data.extend(_residue_checks(a, report, loops))
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
