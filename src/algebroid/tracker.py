"""Analytic continuation along paths in the base plane (paths.BasePath).

Continuation tracks the whole fiber at once: a first-order predictor from
the implicit derivative dw/dz = -Psi_z/Psi_W, and a corrector that is
rootfind.newton_polish on the coefficients of Psi(., z), evaluated once per
z and gated by rootfind.residual_scale. Each step is sized, not searched for,
so that the predicted move of every root just meets its cap, a quarter of the
minimal pairwise root separation; each corrected root must land within a
quarter of it from its prediction, which is what prevents two sheets from
silently swapping. A step spans at most half the segment, and on an arc of
more than one turn at most half a turn, so that no step returns to its z.

A tracker keeps the knots (t, z, fiber, dw/dz) of its accepted steps, and
SegmentTracker.advance_to is the one stepping loop. Every reader of a fiber
along a path reads one walk per segment, _WalkedSegment: a tracker advanced
from t = 0 to 1, which no read changes. _read gives the fiber at any
parameters of many walked segments of one equation under one Tolerances in
one array pass: the nodes of every segment (Line.ats, Arc.ats, bit for bit
the scalar at), a cubic Hermite prediction from the knots and their slopes
dw/dt, each node placed among its own segment's knots, and one batched
Newton pass (rootfind.newton_polish_pairs) with each sample held to the
gates of an accepted step: residual, no collision, and a drift within a
quarter of the root separation of both the predicted and the corrected row.
A sample that fails takes the fiber a tracker reaches when it steps there
from the last knot before it. _walk checks once that a path keeps the path
margin (_path_margin) from the critical set and walks its segments in turn:
continue_fiber reads the end fibers, continue_branch the knots and quad the
Gauss nodes of its pieces, for many paths in one _read per bisection level.
puiseux walks its circles and radial legs as segments, without that check,
and reads the turns of all its centers in one _read.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import NearCriticalPoint, PathTooCloseToCritical, StepUnderflow, TrackingCollision
from .paths import _TWO_PI, Arc, BasePath, Line, Segment, SurfacePoint, reverse, same_z
from .paths import loop_path, polyline  # noqa: F401  (public names of this module)
from .rootfind import (
    newton_polish,
    newton_polish_pairs,
    poly_eval,
    poly_eval_pair,
    poly_evals,
    residual_scale,
    residual_scales,
)
from .surface import DefiningEquation, Fiber, fiber_at, match_to_fiber, min_pairwise_distance

__all__ = [
    "Line",
    "Arc",
    "BasePath",
    "SurfacePoint",
    "TrackResult",
    "continue_branch",
    "continue_fiber",
    "loop_path",
    "reverse",
    "same_z",
    "safe_line",
    "anchored_loop",
    "polyline",
    "germ_at",
    "SegmentTracker",
]

_NAN = complex("nan")


@dataclass(frozen=True)
class TrackResult:
    endpoint: SurfacePoint
    samples: tuple[tuple[float, complex, complex], ...]
    step_count: int
    min_root_separation: float


def germ_at(eq: DefiningEquation, z: complex, w: complex, tol: Tolerances = DEFAULT) -> SurfacePoint:
    """Polish and validate a germ; rejects irregular (critical) germs, and a
    z at a pole of a coefficient with NearCriticalPoint."""
    try:
        coeffs = eq.psi_coeffs_at(z)
    except ZeroDivisionError:  # z is a pole of a coefficient
        coeffs = [math.inf]
    if not all(map(cmath.isfinite, coeffs)):
        raise NearCriticalPoint(f"germ at z={z} is at or next to a pole of a coefficient")
    polished = _polish(coeffs, list(map(abs, coeffs)), w, tol)
    if polished is None:
        raise TrackingCollision(f"({w}, {z}) does not polish to a root of the equation")
    refined, dw, size = polished
    dcoeffs = [j * c for j, c in enumerate(coeffs)][1:]  # Psi_W ascending in W
    if abs(dw) <= 1e-8 * residual_scale(dcoeffs, max(1.0, size)):
        raise TrackingCollision(f"germ at ({refined}, {z}) is not regular: Psi_W too small")
    return SurfacePoint(z, refined)


def _polish(coeffs: Sequence[complex], sizes: Sequence[float], w: complex,
            tol: Tolerances) -> Optional[tuple[complex, complex, float]]:
    """Newton-corrected root near w, Psi_W and |w| there, or None when Newton
    stalls or the residual exceeds eps_root times the residual scale
    (poly_eval_pair and residual_scale, inline, with sizes the |c| of
    coeffs)."""
    w = newton_polish(coeffs, w, max_iter=30)
    if w is None:
        return None
    p = dp = 0j
    for c in reversed(coeffs):
        dp = dp * w + p
        p = p * w + c
    s, aw, power = 0.0, abs(w), 1.0
    for size in sizes:
        s += size * power
        power *= aw
    if abs(p) > tol.eps_root * max(s, 1.0):
        return None
    return w, dp, aw


class SegmentTracker:
    """Continues a fiber monotonically along one segment from t in steps of
    the largest h up to h_max whose predicted move meets the cap, and keeps
    the knots ts, zs, fibers and the slopes dw/dz (dwdz) each step predicted
    with. A step hands on (_carry) the z it reached, the coefficients of
    Psi(., z), the root separation, Psi_W at each root and 1 + max|w|."""

    __slots__ = ("eq", "seg", "tol", "t", "fiber", "h_max", "ts", "zs", "fibers", "dwdz", "_carry")

    def __init__(self, eq: DefiningEquation, seg: Segment, fiber: Sequence[complex],
                 tol: Tolerances, t: float = 0.0):
        self.eq, self.seg, self.tol, self.t, self.fiber = eq, seg, tol, t, list(fiber)
        if len(self.fiber) != eq.k:
            raise ValueError(f"a start fiber needs all k = {eq.k} roots, got {len(self.fiber)}")
        sweep = abs(seg.theta_to - seg.theta_from) if isinstance(seg, Arc) else 0.0
        # half a turn; an arc of one turn whose sweep rounds above 2 pi keeps 0.5
        self.h_max = math.pi / sweep if sweep > _TWO_PI * (1.0 + 1e-9) else 0.5
        self.ts, self.zs, self.fibers, self.dwdz = [t], [seg.at(t)], [self.fiber], []
        self._carry = None

    def clone(self) -> "SegmentTracker":
        c = SegmentTracker(self.eq, self.seg, self.fiber, self.tol, self.t)
        c.ts, c.zs, c.fibers, c.dwdz = self.ts[:], self.zs[:], self.fibers[:], self.dwdz[:]
        c._carry = self._carry
        return c

    def advance_to(self, t_target: float):
        if t_target < self.t - 1e-15:
            raise ValueError("SegmentTracker only advances forward")
        while self.t < t_target - 1e-15:
            self._step(t_target)

    def _step(self, t_target: float) -> tuple[complex, list[complex]]:
        """One accepted step towards t_target, kept as a knot; returns the z
        it reaches and the slope dw/dz of each root at the z it started from."""
        eq, seg, tol = self.eq, self.seg, self.tol
        carry = self._carry
        if carry is None:
            z0 = seg.at(self.t)
            min_sep0 = min_pairwise_distance(self.fiber)
            scale = 1.0 + max(map(abs, self.fiber))
        else:  # z0 is, bit for bit, seg.at(self.t)
            z0, coeffs0, min_sep0, dws, scale = carry
        if min_sep0 < tol.delta_sep * scale:
            raise TrackingCollision(
                f"tracked roots collided near z={z0} (separation {min_sep0:.3e})"
            )
        cap = min(0.25 * min_sep0, 0.5 * scale)
        if carry is None:
            coeffs0 = eq.psi_coeffs_at(z0)
            dws = [poly_eval_pair(coeffs0, w)[1] for w in self.fiber]  # Psi_W at each root
        if 0 in dws:  # no step can be predicted; halving h cannot help
            raise StepUnderflow(f"continuation step underflow near z={z0}: Psi_W is 0 at a root")
        slopes = _slopes(eq, z0, self.fiber, dws)
        # the move meets the cap with 1% to spare: |dz/dt| is the length on a
        # Line and an Arc, whose chord is shorter than the arc; t + h == t for
        # h under ulp(t) / 2
        speed = max(map(abs, slopes)) * seg.length
        size = min(self.h_max, 0.99 * cap / speed) if speed else self.h_max
        floor = max(tol.h_min_frac, math.ulp(self.t))
        h = min(size, t_target - self.t)
        while size > floor:  # h is halved only when a polish or the drift bound fails
            z1 = seg.at(self.t + h)
            dz = z1 - z0
            moves = [d * dz for d in slopes]
            polished = None
            if max(map(abs, moves)) <= cap:
                coeffs1 = eq.psi_coeffs_at(z1)
                sizes = list(map(abs, coeffs1))
                preds = [w + m for w, m in zip(self.fiber, moves)]
                polished = [_polish(coeffs1, sizes, p, tol) for p in preds]
            if polished is not None and None not in polished:
                corrected = [w for w, _, _ in polished]
                min_sep1 = min_pairwise_distance(corrected)
                drift = max(map(abs, map(operator.sub, corrected, preds)))
                if drift <= 0.25 * min(min_sep0, min_sep1):
                    self.t += h
                    self.fiber = corrected
                    self._carry = (z1, coeffs1, min_sep1, [dw for _, dw, _ in polished],
                                   1.0 + max(map(operator.itemgetter(2), polished)))
                    self.ts.append(self.t)
                    self.zs.append(z1)
                    self.fibers.append(corrected)
                    self.dwdz.append(slopes)
                    return z1, slopes
            size = h
            h *= 0.5
        raise StepUnderflow(f"continuation step underflow near z={z0}: h={size:.3e} predicts a "
                            f"root move of {speed * size:.3e} against the cap {cap:.3e} "
                            f"(root separation {min_sep0:.3e})")


def _slopes(eq: DefiningEquation, z: complex, fiber: Sequence[complex],
            dws: Sequence[complex]) -> list[complex]:
    """dw/dz = -Psi_z/Psi_W at each root of fiber over z, with dws Psi_W at
    each root; NaN where it is zero."""
    zcoeffs = eq.psi_z_coeffs_at(z)
    return [-poly_eval(zcoeffs, w) / dw if dw else _NAN for w, dw in zip(fiber, dws)]


class _WalkedSegment(SegmentTracker):
    """A tracker built at t = 0 and advanced to 1, with the slope row of its
    end knot. Neither a read nor advance_to(1.0) changes it."""

    __slots__ = ("_dense",)

    def __init__(self, eq: DefiningEquation, seg: Segment, fiber: Sequence[complex],
                 tol: Tolerances):
        super().__init__(eq, seg, fiber, tol)
        self.advance_to(1.0)
        z, _, _, dws, _ = self._carry  # the end knot's row, with no step after it
        self.dwdz.append(_slopes(eq, z, self.fiber, dws))
        self._dense = None

    @property
    def start(self) -> list[complex]:
        return self.fibers[0]

    @property
    def end(self) -> list[complex]:
        return self.fibers[-1]

    def dense(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The knot parameters, the knot fibers and their slopes dw/dt =
        dw/dz * dz/dt as arrays, one row per knot; taken on the first read."""
        if self._dense is None:
            ts = np.array(self.ts)
            slopes = np.array(self.dwdz) * self.seg.derivs(ts)[:, None]
            self._dense = ts, np.array(self.fibers), slopes
        return self._dense

    def tracked(self, t: float) -> list[complex]:
        """The fiber at parameter t that a tracker reaches when it starts at
        the last knot at or before t and steps to t; its refusal if it
        refuses."""
        i = bisect.bisect_right(self.ts, t) - 1
        trk = SegmentTracker(self.eq, self.seg, self.fibers[i], self.tol, self.ts[i])
        trk.advance_to(t)
        return trk.fiber


def _read(walked: Sequence[_WalkedSegment], tss: Sequence[Sequence[float]]) -> list:
    """The fiber at each parameter of tss[i] in [0, 1] on walked[i], one row
    per parameter in position order, for walked segments of one equation
    under one Tolerances (ValueError otherwise).

    All the segments are read in one array pass: their nodes (Line.ats,
    Arc.ats), one Hermite prediction over all their knots and the slopes
    their walks stepped with (_hermite) and one batched Newton pass under the
    gates of an accepted step (_correct). A sample that fails
    its gates takes the fiber its segment's tracker reaches from the last
    knot before it (_WalkedSegment.tracked), whose refusal is raised at once.
    """
    if not walked:
        return []
    eq, tol = walked[0].eq, walked[0].tol
    if any(seg.eq is not eq or seg.tol != tol for seg in walked):
        raise ValueError("a read takes the segments of one equation under one Tolerances")
    tss = [np.asarray(ts, dtype=float) for ts in tss]
    with np.errstate(all="ignore"):  # a sample gone astray fails its gates
        zs = np.concatenate([seg.seg.ats(ts) for seg, ts in zip(walked, tss)])
        pred = _hermite([seg.dense() for seg in walked], tss)
        rows, ok = _correct(eq, zs, pred, tol)
    bounds = _bounds(tss)
    for j in np.flatnonzero(~ok).tolist():
        n = bisect.bisect_right(bounds, j) - 1
        rows[j] = walked[n].tracked(float(tss[n][j - bounds[n]]))
    return [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _bounds(parts: Sequence) -> list[int]:
    """Where each of parts starts and the last ends once they are
    concatenated."""
    return list(itertools.accumulate(map(len, parts), initial=0))


def _hermite(dense: Sequence[tuple], tss: Sequence[np.ndarray]) -> np.ndarray:
    """Cubic Hermite interpolant of the knot fibers (rows) of each segment
    with their dw/dt slopes, dense[i] = (knot parameters, fibers, slopes), at
    each parameter of tss[i] from the two knots around it: the rows of all
    the segments in one array, segment after segment. Each parameter is
    placed among its own segment's knots, so rows equal those of a one-segment
    call."""
    knot_t, knots, slopes = (np.concatenate(parts) for parts in zip(*dense))
    counts = [len(ts) for ts in tss]
    bounds = np.array(_bounds([d[0] for d in dense]))
    first, last = bounds[:-1].repeat(counts), (bounds[1:] - 2).repeat(counts)
    i = np.concatenate([d[0].searchsorted(ts, side="right") for d, ts in zip(dense, tss)])
    i = np.minimum(np.maximum(first + i - 1, first), last)
    j = i + 1
    t0 = knot_t[i]
    h = (knot_t[j] - t0)[:, None]
    s = (np.concatenate(tss) - t0)[:, None] / h
    u, s2, two_s = 1 - s, s ** 2, 2 * s
    u2 = u ** 2
    return ((1 + two_s) * u2 * knots.take(i, axis=0) + s * u2 * h * slopes.take(i, axis=0)
            + s2 * (3 - two_s) * knots.take(j, axis=0) - s2 * u * h * slopes.take(j, axis=0))


def _correct(eq: DefiningEquation, zs: np.ndarray, pred: np.ndarray,
             tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Newton-corrected fibers from the predicted rows, and which rows pass
    the gates of an accepted step (_polish's residual gate, the collision
    check, the drift bound)."""
    k = pred.shape[1]
    table = eq.psi_coeffs_on(zs)
    coeffs = table.repeat(k, axis=0)
    w = newton_polish_pairs(coeffs, pred.ravel(), max_iter=30)
    new = w.reshape(pred.shape)
    size = np.abs(new)
    scales = residual_scales(np.abs(table).repeat(k, axis=0), size.ravel())
    passed = (np.abs(poly_evals(coeffs, w)) <= tol.eps_root * scales).reshape(pred.shape)
    sep = _row_separations(new)
    drift = _by_row(np.maximum, np.abs(new - pred))
    ok = (_by_row(np.logical_and, passed)
          & (sep >= tol.delta_sep * (1.0 + _by_row(np.maximum, size)))
          & (drift <= 0.25 * np.minimum(_row_separations(pred), sep)))
    return new, ok


def _row_separations(rows: np.ndarray) -> np.ndarray:
    """min_pairwise_distance of each row, over each pair of columns once."""
    pairs = [np.abs(rows[:, i] - rows[:, j])
             for i, j in itertools.combinations(range(rows.shape[1]), 2)]
    return functools.reduce(np.minimum, pairs) if pairs else np.full(len(rows), np.inf)


def _by_row(ufunc: np.ufunc, rows: np.ndarray) -> np.ndarray:
    """ufunc.reduce(rows, axis=1) for an exact ufunc (np.maximum,
    np.minimum, np.logical_and), as k - 1 passes over whole columns: a
    reduction along rows of a few entries costs per row."""
    return functools.reduce(ufunc, rows.T)


def _path_margin(eq: DefiningEquation, tol: Tolerances) -> float:
    """The path margin, delta_path_factor times the critical set's scale: the
    clearance _walk holds every path to. Tolerances is its one setting."""
    return tol.delta_path_factor * eq.critical(tol).scale


def _walk(eq: DefiningEquation, fiber: Sequence[complex], path: BasePath,
          tol: Tolerances) -> Iterator[tuple[float, float, _WalkedSegment]]:
    """Walk a whole fiber along a path, once the path is checked to keep its
    margin from the critical set: (path parameter at the segment's start,
    its share of the path length, the walked segment) for each segment in
    turn, each walked from the end fiber of the one before."""
    margin = _path_margin(eq, tol)
    for c in eq.critical(tol).locations:
        d = path.min_dist_to(c)
        if d < margin:
            raise PathTooCloseToCritical(
                f"path passes within {d:.3e} of critical point {c} (margin {margin:.3e})"
            )
    done = 0.0
    for seg, share in zip(path.segments, _shares(path)):
        walked = _WalkedSegment(eq, seg, fiber, tol)
        yield done, share, walked
        fiber = walked.end
        done += share


def _shares(path: BasePath) -> list[float]:
    """Each segment's share of the path length (equal shares on a path of
    length 0)."""
    total_len = path.length
    return [seg.length / total_len if total_len > 0 else 1.0 / len(path.segments)
            for seg in path.segments]


def _start_fiber(eq: DefiningEquation, germ: SurfacePoint, paths: Sequence[BasePath],
                 tol: Tolerances) -> tuple[Fiber, int, list[complex]]:
    """The one start of every walk from a polished germ along paths: the
    fiber over it, solved once, the germ's position in it and its roots with
    the germ's value at that position. ValueError when a path of paths does
    not start at the germ; an empty path starts anywhere."""
    for path in paths:
        if path.segments and not same_z(path.start_z, germ.z):
            raise ValueError(f"path starts at {path.start_z}, germ sits at {germ.z}")
    fiber = fiber_at(eq, germ.z, tol)
    pos = match_to_fiber(germ.w, fiber, tol)
    roots = list(fiber.roots)
    roots[pos] = germ.w  # keep the polished germ value
    return fiber, pos, roots


def continue_fiber(eq: DefiningEquation, fiber: Sequence[complex], path: BasePath,
                   tol: Tolerances = DEFAULT) -> list[complex]:
    """End fiber in position order (position j continues the j-th start root);
    PathTooCloseToCritical when the path enters _path_margin."""
    end = list(fiber)
    for _, _, walked in _walk(eq, fiber, path, tol):
        end = walked.end
    return end


def continue_branch(eq: DefiningEquation, start: SurfacePoint, path: BasePath,
                    tol: Tolerances = DEFAULT) -> TrackResult:
    """Analytic continuation of the start germ along the path;
    PathTooCloseToCritical when the path enters _path_margin."""
    start = germ_at(eq, start.z, start.w, tol)
    if not path.segments:
        return TrackResult(start, ((0.0, start.z, start.w),), 0, float("inf"))
    _, pos, roots = _start_fiber(eq, start, [path], tol)
    samples = [(0.0, start.z, start.w)]
    min_sep = min_pairwise_distance(roots)
    for done, share, walked in _walk(eq, roots, path, tol):
        for t, z, fiber in zip(walked.ts[1:], walked.zs[1:], walked.fibers[1:]):
            samples.append((done + t * share, z, fiber[pos]))
            min_sep = min(min_sep, min_pairwise_distance(fiber))
    endpoint = SurfacePoint(path.end_z, samples[-1][2])
    return TrackResult(endpoint, tuple(samples), len(samples) - 1, min_sep)


# --- deterministic path construction ----------------------------------------


def _detour_candidates(z0: complex, z1: complex, margin: float, rng=None):
    span = abs(z1 - z0)
    unit = (z1 - z0) / span if span > 0 else 1.0
    normal = 1j * unit
    mid = 0.5 * (z0 + z1)
    for f in (0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
        yield mid + normal * f * max(span, 4.0 * margin)
    if rng is not None:
        for _ in range(16):
            ang = rng.uniform(0.0, _TWO_PI)
            rad = rng.uniform(1.0, 3.0) * max(span, 4.0 * margin)
            yield mid + rad * cmath.exp(1j * ang)


def safe_line(z0: complex, z1: complex, critical_locs: Sequence[complex],
              margin: float, rng=None) -> BasePath:
    """Straight line from z0 to z1, detouring via one waypoint when the
    segment violates the critical-point margin."""
    direct = Line(z0, z1)
    if all(direct.min_dist_to(c) >= margin for c in critical_locs):
        return BasePath((direct,))
    for wp in _detour_candidates(z0, z1, margin, rng):
        legs = (Line(z0, wp), Line(wp, z1))
        if all(l.min_dist_to(c) >= margin for l in legs for c in critical_locs):
            return BasePath(legs)
    raise PathTooCloseToCritical(
        f"could not route a path from {z0} to {z1} clear of the critical set"
    )


def anchored_loop(center: complex, radius: float, base: complex,
                  critical_locs: Sequence[complex], margin: float, rng=None) -> BasePath:
    """Spoke from base to the circle about center, the full circle, and back."""
    rel = base - center
    if abs(rel) == 0:
        raise ValueError("loop base coincides with the encircled point")
    theta0 = math.atan2(rel.imag, rel.real)
    arc = Arc(center, radius, theta0, theta0 + _TWO_PI)
    others = [c for c in critical_locs if abs(c - center) > 1e-12 * max(1.0, abs(center))]
    if abs(abs(rel) - radius) <= 1e-9 * radius:
        return BasePath((arc,))
    spoke_in = safe_line(base, arc.start, others, margin, rng)
    spoke_out = reverse(spoke_in)
    # splice so consecutive endpoints agree exactly
    return BasePath(spoke_in.segments + (arc, Line(arc.end, spoke_out.segments[0].z_to))
                    + spoke_out.segments[1:])
