"""Definite integrals on the Riemann surface and path-independence audits.

The integrand w(z) dz is evaluated on the tracked branch; each segment is
integrated by 16-point Gauss-Legendre quadrature with adaptive bisection
until the whole-piece and two-half estimates agree. Bisection runs over
the whole fiber: the first read takes the whole segment, its halves and
its quarters, so a segment whose whole fails takes its second level with
no read; each later read takes the halves of the pieces that failed, and
a piece is split until every sheet passes its own test. fiber_integral
returns the whole fiber's integrals, and surface_integral is one sheet's
column of them. Because admissible paths keep a margin from the critical
set, the integrand is analytic and the per-piece rule converges spectrally.

_integrate takes many paths of one equation under one Tolerances at once.
Each path is walked segment by segment from its own start fiber by
tracker._walk, which checks the margin once; then each read takes the Gauss
nodes of every pending piece of every segment of every path in one batch
(tracker._read): one array pass for the nodes, the Hermite prediction and
the Newton correction, with dz/dt from the segments' array form (derivs),
so quadrature takes the tracker's own steps and no step per node. No read
changes a walk, so every value is the one a path integrated alone gets, and
one path is a batch of one. A lift may continue an earlier lift of its
batch from that lift's end fiber, its integrals added to that lift's
(_Lift). A batch raises the first refusal it meets; the callers that batch
their paths (SheetRouter's loops, each a spoke and a circle that continues
it with the return spoke taken from the spoke; the grid connectors, a
nearest-point tree whose every connector continues its parent's; the
contour residues of all centers; the audit's c_ab paths with its centers'
turns) run the batch through errors.in_order, which then runs each job
alone in turn (a connector with its ancestors), so the refusal raised is
the first in job order: the one doing the jobs one after another raises.
Each kind of integral that shares a batch with others is staged as its
lifts and the function that finishes their integrals (_c_ab_lifts,
_cycle_lifts, _residue_lifts). Every walk from a germ starts from the one
fiber solved over it (tracker._start_fiber): c_ab lifts all its paths from
the base germ's, an empty path as a lift of length 0, and checks its
target by matching the target's w in each lift's walked end fiber against
the lift's position, so an audit solves no target fiber. Residue checks
take the local data of all their centers from puiseux._local_data, which
reads every Puiseux turn of every center in one pass, and integrate every
center's outer turn in one batch for the m-turn loop integrals, as
residue_by_contour and the CLI do.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import EndpointGermMismatch, LiftNotClosed, QuadratureStall, in_order
from .paths import BasePath, SurfacePoint, same_z
from .puiseux import _local_data
from .surface import DefiningEquation, Fiber, _lift_sheets, match_to_fiber
from .tracker import germ_at, safe_line
from .tracker import _WalkedSegment, _bounds, _by_row, _path_margin, _read
from .tracker import _start_fiber, _walk

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

# 16-point Gauss-Legendre rule, the (node, weight) pairs of
# np.polynomial.legendre.leggauss(16) with node > 0, mirrored: numpy's rule is
# exactly symmetric, so these are its arrays bit for bit, and no start
# imports numpy.polynomial
_GL_HALF = np.array([
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
])
_GL_X = np.concatenate((-_GL_HALF[::-1, 0], _GL_HALF[:, 0]))
_GL_W = np.concatenate((_GL_HALF[::-1, 1], _GL_HALF[:, 1]))
_MAX_DEPTH = 30
_MAX_PIECES = 1 << 6


@dataclass(frozen=True)
class SurfaceIntegralResult:
    value: complex
    error_estimate: float
    endpoint: SurfacePoint
    closed_on_surface: bool
    end_sheet: Optional[int] = None  # closed nonempty path: the lift's end in the start fiber


@dataclass(frozen=True)
class IntegralElement:
    """Integral function element data: c_ab plus its base and target germs,
    and the quadrature's error estimate of c_ab."""

    base: SurfacePoint
    target: SurfacePoint
    c_ab: complex
    error_estimate: float


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
    each walked segment, t0 and t1 its entries of t0s and t1s, all of one
    equation under one Tolerances, from one batched read of all their rows
    (tracker._read): per segment one row of fiber positions per piece. The
    nodes of every piece are placed in one array pass."""
    bounds = _bounds(t0s)
    t0, t1 = np.concatenate(t0s), np.concatenate(t1s)
    half = 0.5 * (t1 - t0)
    nodes = (0.5 * (t1 + t0))[:, None] + half[:, None] * _GL_X
    tss = [nodes[lo:hi].ravel() for lo, hi in zip(bounds, bounds[1:])]
    rows = np.concatenate(_read(walked, tss))
    a = rows.reshape(-1, len(_GL_X), rows.shape[1]) * _GL_W[:, None]
    d = np.concatenate([seg.seg.derivs(ts) for seg, ts in zip(walked, tss)]).reshape(len(a), -1, 1)
    # (wt w) dz in Python's complex arithmetic: numpy's complex multiply may use
    # FMA, which moves values by an ulp and can flip an accept decision
    terms = np.empty_like(a)
    terms.real = a.real * d.real - a.imag * d.imag
    terms.imag = a.real * d.imag + a.imag * d.real
    values = sum(terms.swapaxes(0, 1), 0j) * half[:, None]  # node by node, from 0j
    return [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _halves(t0: np.ndarray, t1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two halves of each piece [t0[i], t1[i]] in turn."""
    tm = 0.5 * (t0 + t1)
    return np.array((t0, tm)).T.ravel(), np.array((tm, t1)).T.ravel()


class _Bisection:
    """Adaptive bisection of one walked segment: its pending pieces [t0, t1]
    with their whole-piece values (None before the first read, which takes
    the whole segment, its halves and its quarters), the rows of its next
    level when the first read took them ahead (else None), and the sums of
    values and error estimates it accepted at each level (_take). A piece is
    split until every fiber position passes its own test."""

    __slots__ = ("walked", "tol_abs", "t0", "t1", "whole", "ahead", "depth", "accepted", "done")

    def __init__(self, walked: _WalkedSegment, share: float, tol: Tolerances):
        self.walked, self.tol_abs = walked, tol.quad_tol * max(share, 1e-3)
        self.t0, self.t1, self.whole, self.ahead = np.zeros(1), np.ones(1), None, None
        self.depth, self.accepted, self.done = 0, [], False

    def pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """The pieces its next read needs: the two halves of each pending
        piece in turn; on the first read the pending pieces themselves before
        them and the halves of those halves after them."""
        t0, t1 = _halves(self.t0, self.t1)
        if self.whole is None:
            q0, q1 = _halves(t0, t1)
            return np.concatenate((self.t0, t0, q0)), np.concatenate((self.t1, t1, q1))
        return t0, t1


def _take(parts: Sequence[_Bisection], reads: Sequence[np.ndarray], quad_tol: float) -> list:
    """Let each part take the values _gauss read on its pieces(), all the
    parts at once under one quad_tol: per part the QuadratureStall it meets,
    once a level would hold more pieces than a convergent integral needs, or
    None.

    A part's first read holds its whole pieces in its first rows, which it
    takes as whole before the test, and the halves of its halves in its last
    rows. The test of every pending piece of every part is one array pass;
    each part then sums the values and error estimates of its accepted pieces
    (the same sums, in the same order, as a part taken alone) and keeps its
    failed pieces, halves as wholes, for the next level, with the rows of
    their halves in ahead when its first read took them.
    """
    stalls = [None] * len(parts)
    reads, quarters = list(reads), [None] * len(parts)
    for n, part in enumerate(parts):
        if part.whole is None:
            p = len(part.t0)
            part.whole, reads[n], quarters[n] = np.split(reads[n], [p, 3 * p])
        part.ahead = None
    t0, t1 = np.concatenate([p.t0 for p in parts]), np.concatenate([p.t1 for p in parts])
    tm = 0.5 * (t0 + t1)
    pairs = np.concatenate(reads).reshape(len(t0), 2, -1)
    halves = pairs[:, 0] + pairs[:, 1]
    errs = np.abs(np.concatenate([p.whole for p in parts]) - halves)
    bounds = _bounds([p.t0 for p in parts])
    tol_abs = np.array([p.tol_abs for p in parts]).repeat([len(p.t0) for p in parts])[:, None]
    ok = _by_row(np.logical_and,
                 errs <= tol_abs * (t1 - t0)[:, None] + quad_tol * np.abs(halves))
    split = ~ok
    at = np.concatenate(([0], split.cumsum()))
    next_t0 = np.array((t0, tm)).T.compress(split, axis=0).ravel()
    next_t1 = np.array((tm, t1)).T.compress(split, axis=0).ravel()
    next_whole = pairs.compress(split, axis=0).reshape(-1, pairs.shape[2])
    for n, (part, lo, hi) in enumerate(zip(parts, bounds, bounds[1:])):
        good = ok[lo:hi]
        part.accepted.append((halves[lo:hi].compress(good, axis=0).sum(axis=0),
                              errs[lo:hi].compress(good, axis=0).sum(axis=0)))
        failed = int(at[hi] - at[lo])
        if not failed:
            part.done = True
            continue
        # Below round-off no piece passes and the pending count doubles with
        # each level until _MAX_DEPTH; refuse once a level would hold more
        # pieces than a convergent integral needs (the benchmark's hold 4).
        if part.depth == _MAX_DEPTH or 2 * failed > _MAX_PIECES:
            i = lo + np.flatnonzero(~good)[0]
            stalls[n] = QuadratureStall(
                f"adaptive bisection stalled on [{t0[i]}, {t1[i]}] (err {errs[i].max():.3e})"
            )
            continue
        part.depth += 1
        keep = slice(2 * at[lo], 2 * at[hi])
        part.t0, part.t1, part.whole = next_t0[keep], next_t1[keep], next_whole[keep]
        if quarters[n] is not None:
            part.ahead = quarters[n].reshape(len(good), 4, -1)[~good].reshape(-1, pairs.shape[2])
    return stalls


class _Lift:
    """One path's lift for _integrate: its segments walked in a chain from the
    start fiber by tracker._walk, each with its bisection. walked, a segment
    already walked, is the whole path when given. A start that is an earlier
    lift stands for that lift's end fiber, and this lift continues it: its
    integrals add to that lift's, which must be integrated in the same batch."""

    __slots__ = ("roots", "parts", "before", "sums")

    def __init__(self, eq: DefiningEquation, start, path: BasePath,
                 tol: Tolerances, walked: Optional[_WalkedSegment] = None):
        self.before, self.sums = start if isinstance(start, _Lift) else None, None
        self.roots, self.parts = list(start if self.before is None else start.end), []
        if walked is not None:
            self.parts.append(_Bisection(walked, 1.0, tol))
        elif path.segments:
            self.parts = [_Bisection(seg, share, tol)
                          for _, share, seg in _walk(eq, self.roots, path, tol)]

    @property
    def end(self) -> list[complex]:
        """The end fiber in position order, known from the walk before any read."""
        return self.parts[-1].walked.end if self.parts else self.roots

    def _totals(self) -> tuple[np.ndarray, np.ndarray]:
        """The summed values and error estimates, kept once summed, so that a
        chain of lifts sums each lift once."""
        if self.sums is None:
            if self.before is None:
                total, err = np.zeros(len(self.roots), dtype=complex), np.zeros(len(self.roots))
            else:
                total, err = self.before._totals()
            for part in self.parts:
                for value, error in part.accepted:
                    total, err = total + value, err + error
            self.sums = total, err
        return self.sums

    def result(self) -> tuple[list[complex], list[float], list[complex]]:
        """(values, error estimates, end fiber) in position order, summed
        segment by segment and level by level onto the lift it continues."""
        total, err = self._totals()
        return total.tolist(), err.tolist(), self.end


def _integrate(lifts: Sequence[_Lift]) -> list:
    """Integrals of w dz on every fiber position along each lift, all of one
    equation under one Tolerances: per lift its _Lift.result.

    The next pieces of every pending segment of every lift (the whole
    segment, its halves and its quarters at first, then the halves of the
    failed pieces) are read in one _gauss call and tested in one _take pass;
    a segment that holds its next level's rows ahead is left out of the
    read, and a level that every pending segment holds is not read. The
    first refusal met is raised.
    """
    while True:
        active = [part for lift in lifts for part in lift.parts if not part.done]
        if not active:
            return [lift.result() for lift in lifts]
        due = [part for part in active if part.ahead is None]
        got = iter(_gauss([p.walked for p in due], *zip(*(p.pieces() for p in due))) if due else [])
        reads = [next(got) if part.ahead is None else part.ahead for part in active]
        for stall in _take(active, reads, active[0].walked.tol.quad_tol):
            if stall is not None:
                raise stall


def _fiber_integrals(eq: DefiningEquation, starts: Sequence, tol: Tolerances) -> list:
    """For each (start, path) of starts, the integrals of w dz along the lifts
    of the path from every root, their error estimates and the end roots, in
    position order. A start is the roots, or the index in starts of an
    earlier entry, whose lift this one continues from its end fiber, adding
    to its integrals (_Lift). All the paths are integrated in one batch
    (_integrate)."""
    lifts: list[_Lift] = []
    for start, path in starts:
        lifts.append(_Lift(eq, lifts[start] if isinstance(start, int) else start, path, tol))
    return _integrate(lifts)


def _integrated(lifts: Sequence[_Lift], finish):
    """A staged integral, its lifts integrated in one batch and finished."""
    return finish(_integrate(lifts))


def surface_integral(eq: DefiningEquation, start: SurfacePoint, path: BasePath,
                     tol: Tolerances = DEFAULT) -> SurfaceIntegralResult:
    """Integral of w(z) dz along the lift of the path from the start germ; a
    closed path's end_sheet is the lift's end in the start fiber.
    PathTooCloseToCritical when the path enters tracker._path_margin."""
    germ = germ_at(eq, start.z, start.w, tol)
    if not path.segments:
        return SurfaceIntegralResult(0j, 0.0, germ, True)
    fiber0, pos, roots = _start_fiber(eq, germ, [path], tol)
    ((values, errs, fiber),) = _fiber_integrals(eq, [(roots, path)], tol)
    end_sheet = match_to_fiber(fiber[pos], fiber0, tol) if path.is_closed() else None
    return SurfaceIntegralResult(values[pos], errs[pos], SurfacePoint(path.end_z, fiber[pos]),
                                 end_sheet == pos, end_sheet)


def fiber_integral(eq: DefiningEquation, roots: Sequence[complex], path: BasePath,
                   tol: Tolerances = DEFAULT) -> tuple[list[complex], list[complex]]:
    """Integrals of w(z) dz along the lifts of the path from every root of a
    fiber over its start, in one tracking pass; PathTooCloseToCritical when
    the path enters tracker._path_margin.

    Returns (values, end roots) in position order: entry j belongs to the
    lift that starts at roots[j], as in continue_fiber.
    """
    values, _, end = _fiber_integrals(eq, [(roots, path)], tol)[0]
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


def _cycle_lifts(entries: Sequence, tol: Tolerances) -> tuple:
    """For each (turn, cycles) of entries, turn a Puiseux turn (rows,
    permutation, walked circle) as puiseux._sampled gives it: the lift of the
    walked circle, and the function that makes of their integrals, per entry
    and cycle, the integral of w dz over the m-turn circle lifted from sheet
    cycle[0], m = len(cycle): the sum of the one-turn integrals of the sheets
    that lift passes, read through the turn's permutation."""
    lifts = [_Lift(walked.eq, walked.start, BasePath((walked.seg,)), tol, walked)
             for (_, _, walked), _ in entries]
    return lifts, lambda integrals: [
        [sum((values[s] for s in _lift_sheets(sigma, c)), 0j) for c in cycles]
        for ((_, sigma, _), cycles), (values, _, _) in zip(entries, integrals)]


def _residue_lifts(eq: DefiningEquation, centers: Sequence[complex],
                   epsilon: Optional[float], tol: Tolerances) -> tuple:
    """The lifts of every center's outer turn, once the Puiseux turns of every
    center are read in one pass (puiseux._local_data), and the function that
    makes of their integrals, per center, its singular_elements report and
    the m-turn loop integral of each of its cycles (_cycle_lifts)."""
    local = _local_data(eq, centers, epsilon, tol)
    lifts, loops = _cycle_lifts([(turn, [c.sheets for c in report.cycles])
                                 for report, turn in local], tol)
    return lifts, lambda integrals: [(report, values) for (report, _), values
                                     in zip(local, loops(integrals))]


def _residue_checks(a: complex, report, loops: Sequence[complex]) -> list[ResidueCheck]:
    """Per cycle at a: the m-turn loop integral against 2*pi*i times the residue."""
    checks = []
    for c, value in zip(report.cycles, loops):
        expected = 2j * math.pi * c.residue
        checks.append(ResidueCheck(center=a, cycle=c.sheets, m=c.expansion.m, loop_value=value,
                                   residue=c.residue, expected=expected,
                                   discrepancy=abs(value - expected)))
    return checks


def residue_theorem_check(eq: DefiningEquation, a: complex,
                          epsilon: Optional[float] = None,
                          tol: Tolerances = DEFAULT) -> list[ResidueCheck]:
    """Per cycle at a: the m-turn loop integral against 2*pi*i times the residue."""
    ((report, loops),) = _integrated(*_residue_lifts(eq, [a], epsilon, tol))
    return _residue_checks(a, report, loops)


def _c_ab_lifts(eq: DefiningEquation, base: SurfacePoint, target: SurfacePoint,
                paths: Sequence[BasePath], tol: Tolerances) -> tuple:
    """The lifts of c_ab along each path from the base germ's one start fiber
    (tracker._start_fiber), an empty path a lift of length 0, and the
    function that makes their IntegralElements of their integrals. A lift
    reaches the target when the target's w takes its position in the end
    fiber it walked to, so no target fiber is solved."""
    b, t = germ_at(eq, base.z, base.w, tol), germ_at(eq, target.z, target.w, tol)
    for path in paths:
        end_z = path.end_z if path.segments else b.z
        if not same_z(end_z, t.z):
            raise ValueError(f"path ends at {end_z}, target sits at {t.z}")
    # a batch of the audit's centers alone starts no walk
    _, pos, roots = _start_fiber(eq, b, paths, tol) if paths else (None, None, [])
    lifts = [_Lift(eq, roots, path, tol) for path in paths]

    def elements(integrals: Sequence) -> list:
        for values, _, end in integrals:
            if match_to_fiber(t.w, Fiber(t.z, tuple(end)), tol) != pos:
                raise EndpointGermMismatch(f"lift reaches z={t.z} at w={end[pos]}, "
                                           f"target germ has w={t.w}")
        return [IntegralElement(b, t, values[pos], errs[pos]) for values, errs, _ in integrals]

    return lifts, elements


def c_ab(eq: DefiningEquation, base: SurfacePoint, target: SurfacePoint,
         path: BasePath, tol: Tolerances = DEFAULT) -> IntegralElement:
    """Definite integral from the base germ to the target germ along a path;
    PathTooCloseToCritical when the path enters tracker._path_margin."""
    return _integrated(*_c_ab_lifts(eq, base, target, [path], tol))[0]


def path_independence_audit(eq: DefiningEquation, base: SurfacePoint,
                            target: SurfacePoint, paths: Sequence[BasePath],
                            tol: Tolerances = DEFAULT) -> AuditReport:
    """Pairwise c_ab comparison plus residue/period diagnostics. The c_ab
    lifts of the paths are built (_c_ab_lifts), then the outer-turn lifts of
    all critical points (_residue_lifts), and all of them are integrated in
    one batch; that batch runs through errors.in_order over the jobs [paths,
    then centers], so the refusal raised is the first path's, else the first
    center's. A pair is "dependent" when |c_i - c_j| exceeds audit_tol plus
    both c values' error estimates and 4 eps (|c_i| + |c_j|), the rounding of
    their difference: a discrepancy the quadrature cannot tell from 0 decides
    nothing."""
    jobs = [*paths, *(cp.location for cp in eq.critical(tol).points)]

    def batch(todo: list) -> list:
        own = [job for job in todo if isinstance(job, BasePath)]
        path_lifts, elements = _c_ab_lifts(eq, base, target, own, tol)
        center_lifts, reports = _residue_lifts(eq, todo[len(own):], None, tol)
        integrals = _integrate(path_lifts + center_lifts)
        return elements(integrals[:len(own)]) + reports(integrals[len(own):])

    done = in_order(batch, jobs)
    values = tuple(e.c_ab for e in done[:len(paths)])
    # per c value: its error estimate and its share 4 eps |c| of a difference's rounding
    slack = [e.error_estimate + 4 * float(np.finfo(float).eps) * abs(e.c_ab)
             for e in done[:len(paths)]]
    pairs = [(i, j, abs(values[i] - values[j]))
             for i, j in itertools.combinations(range(len(values)), 2)]
    max_disc = max((d for _, _, d in pairs), default=0.0)
    dependent = any(not d <= tol.audit_tol + slack[i] + slack[j] for i, j, d in pairs)
    verdict = "dependent" if dependent else "independent"
    residue_data = []
    for a, (report, loops) in zip(jobs[len(paths):], done[len(paths):]):
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
