"""Paths in the base plane and analytic continuation along them.

Continuation tracks the whole fiber at once: a first-order predictor from
the implicit derivative dw/dz = -Psi_z/Psi_W, and a corrector that is
rootfind.newton_polish on the coefficients of Psi(., z), evaluated once per
z and gated by rootfind.residual_scale. The adaptive step keeps per-step
root movement below a quarter of the current minimal pairwise root
separation, and each corrected root within a quarter of it from its
prediction, which is what prevents two sheets from silently swapping.
A step clipped to land on a target t (a stop, the segment's end) may grow
the step size but never shrinks it, so closely spaced targets do not make
the tracker relearn its step after each one.

Every reader of a fiber along a path reads one walk per segment,
_WalkedSegment: it keeps the knots (t, z, fiber) of the accepted steps and
the end fiber. _read gives the fiber at any parameters of many walked
segments at once: cubic Hermite interpolation between each segment's own
knots with their dw/dt, then one batched Newton pass
(rootfind.newton_polish_pairs) over the rows of all of them, each sample
held to the gates of an accepted step: residual, no collision, and a drift
within a quarter of the root separation of both the predicted and the
corrected row. A sample that fails becomes a stop of its own segment's
tracker, whose fiber there is the sample, and that segment alone is walked
again and read again. rows is the one-segment call of _read. _walk checks
once that a path keeps the path margin (_path_margin) from the critical set
and walks its segments in turn: continue_fiber reads the end fibers,
continue_branch the knots and quad the Gauss nodes of its pieces, for many
paths in one _read per bisection level; puiseux walks its circles and
radial leg alone.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (
    PathTooCloseToCritical,
    StepUnderflow,
    TrackingCollision,
    held,
    settle,
)
from .rootfind import (
    newton_polish,
    newton_polish_pairs,
    poly_eval,
    poly_eval_pair,
    poly_eval_pairs,
    residual_scale,
    residual_scales,
)
from .surface import DefiningEquation, fiber_at, match_to_fiber, min_pairwise_distance

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

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Line:
    z_from: complex
    z_to: complex

    @property
    def start(self) -> complex:
        return self.z_from

    @property
    def end(self) -> complex:
        return self.z_to

    @property
    def length(self) -> float:
        return abs(self.z_to - self.z_from)

    def at(self, t: float) -> complex:
        return self.z_from + t * (self.z_to - self.z_from)

    def deriv(self, t: float) -> complex:
        return self.z_to - self.z_from

    def reversed(self) -> "Line":
        return Line(self.z_to, self.z_from)

    def min_dist_to(self, p: complex) -> float:
        w = self.z_to - self.z_from
        n2 = abs(w) ** 2
        if n2 == 0.0:
            return abs(p - self.z_from)
        t = ((p - self.z_from) * w.conjugate()).real / n2
        t = min(1.0, max(0.0, t))
        return abs(p - self.at(t))


@dataclass(frozen=True)
class Arc:
    """Circular arc; theta runs monotonically and may sweep several turns."""

    center: complex
    radius: float
    theta_from: float
    theta_to: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("arc radius must be positive")

    @property
    def start(self) -> complex:
        return self.at(0.0)

    @property
    def end(self) -> complex:
        return self.at(1.0)

    @property
    def length(self) -> float:
        return self.radius * abs(self.theta_to - self.theta_from)

    def at(self, t: float) -> complex:
        theta = self.theta_from + t * (self.theta_to - self.theta_from)
        return self.center + self.radius * cmath.exp(1j * theta)

    def deriv(self, t: float) -> complex:
        theta = self.theta_from + t * (self.theta_to - self.theta_from)
        return 1j * self.radius * (self.theta_to - self.theta_from) * cmath.exp(1j * theta)

    def reversed(self) -> "Arc":
        return Arc(self.center, self.radius, self.theta_to, self.theta_from)

    def min_dist_to(self, p: complex) -> float:
        rel = p - self.center
        rho = abs(rel)
        sweep = abs(self.theta_to - self.theta_from)
        if sweep >= _TWO_PI:
            return abs(rho - self.radius)
        phi = math.atan2(rel.imag, rel.real)
        lo = min(self.theta_from, self.theta_to)
        frac = (phi - lo) % _TWO_PI
        if frac <= sweep:
            return abs(rho - self.radius)
        return min(abs(p - self.start), abs(p - self.end))


Segment = Line | Arc


@dataclass(frozen=True)
class BasePath:
    segments: tuple[Segment, ...]

    def __init__(self, segments: Sequence[Segment] = ()):
        segments = tuple(segments)
        scale = 1.0
        for s in segments:
            scale = max(scale, abs(s.start), abs(s.end))
        for a, b in zip(segments, segments[1:]):
            if abs(b.start - a.end) > 1e-9 * scale:
                raise ValueError(
                    f"consecutive segments do not share endpoints: {a.end} vs {b.start}"
                )
        object.__setattr__(self, "segments", segments)

    @property
    def start_z(self) -> Optional[complex]:
        return self.segments[0].start if self.segments else None

    @property
    def end_z(self) -> Optional[complex]:
        return self.segments[-1].end if self.segments else None

    @property
    def length(self) -> float:
        return sum(s.length for s in self.segments)

    def is_closed(self, rel_tol: float = 1e-9) -> bool:
        if not self.segments:
            return True
        scale = max(1.0, abs(self.start_z))
        return abs(self.end_z - self.start_z) <= rel_tol * scale

    def min_dist_to(self, p: complex) -> float:
        if not self.segments:
            return float("inf")
        return min(s.min_dist_to(p) for s in self.segments)

    def __add__(self, other: "BasePath") -> "BasePath":
        return BasePath(self.segments + other.segments)


def same_z(z: complex, at: complex) -> bool:
    """True when z lies within 1e-9 * (1 + |at|) of at: the rule by which a
    path must start at its start germ and end at its target."""
    return abs(z - at) <= 1e-9 * (1.0 + abs(at))


def reverse(path: BasePath) -> BasePath:
    """Opposite path: segment order and orientations reversed; an involution."""
    return BasePath(tuple(s.reversed() for s in reversed(path.segments)))


def polyline(*points: complex) -> BasePath:
    return BasePath(tuple(Line(a, b) for a, b in zip(points, points[1:])))


def loop_path(center: complex, radius: float, turns: int, anchor: Optional[complex] = None) -> BasePath:
    """Closed path winding `turns` times about center.

    The anchor is connected to the circle by a straight spoke unless it
    already lies on the circle; anchor=None starts at center + radius.
    """
    if radius <= 0:
        raise ValueError("loop radius must be positive")
    if turns == 0:
        raise ValueError("loop must wind at least once (turns != 0)")
    if anchor is None:
        anchor = center + radius
    rel = anchor - center
    if abs(rel) == 0:
        raise ValueError("anchor coincides with the loop center")
    theta0 = math.atan2(rel.imag, rel.real)
    arc = Arc(center, radius, theta0, theta0 + _TWO_PI * turns)
    if abs(abs(rel) - radius) <= 1e-9 * radius:
        return BasePath((arc,))
    return BasePath((Line(anchor, arc.start), arc, Line(arc.end, anchor)))


@dataclass(frozen=True)
class SurfacePoint:
    """Numeric germ: a point (z, w) with Psi(w, z) = 0 and Psi_W(w, z) != 0."""

    z: complex
    w: complex


@dataclass(frozen=True)
class TrackResult:
    endpoint: SurfacePoint
    samples: tuple[tuple[float, complex, complex], ...]
    step_count: int
    min_root_separation: float


def germ_at(eq: DefiningEquation, z: complex, w: complex, tol: Tolerances = DEFAULT) -> SurfacePoint:
    """Polish and validate a germ; rejects irregular (critical) germs."""
    coeffs = eq.psi_coeffs_at(z)
    refined = _polish(coeffs, w, tol)
    if refined is None:
        raise TrackingCollision(f"({w}, {z}) does not polish to a root of the equation")
    dw = poly_eval_pair(coeffs, refined)[1]
    dcoeffs = [j * c for j, c in enumerate(coeffs)][1:]  # Psi_W ascending in W
    if abs(dw) <= 1e-8 * residual_scale(dcoeffs, max(1.0, abs(refined))):
        raise TrackingCollision(f"germ at ({refined}, {z}) is not regular: Psi_W too small")
    return SurfacePoint(z, refined)


def _polish(coeffs: Sequence[complex], w: complex, tol: Tolerances) -> Optional[complex]:
    """Newton-corrected root near w, or None when Newton stalls or the
    residual exceeds eps_root times the residual scale."""
    w = newton_polish(coeffs, w, max_iter=30)
    if w is None or abs(poly_eval(coeffs, w)) > tol.eps_root * residual_scale(coeffs, w):
        return None
    return w


class SegmentTracker:
    """Continues a fiber monotonically along one segment."""

    __slots__ = ("eq", "seg", "tol", "t", "fiber", "h", "steps")

    def __init__(self, eq: DefiningEquation, seg: Segment, fiber: Sequence[complex],
                 tol: Tolerances):
        self.eq = eq
        self.seg = seg
        self.tol = tol
        self.t = 0.0
        self.fiber = list(fiber)
        if len(self.fiber) != eq.k:
            raise ValueError(f"a start fiber needs all k = {eq.k} roots, got {len(self.fiber)}")
        self.h = 0.25
        self.steps = 0

    def clone(self) -> "SegmentTracker":
        c = SegmentTracker(self.eq, self.seg, self.fiber, self.tol)
        c.t, c.h, c.steps = self.t, self.h, self.steps
        return c

    def advance_to(self, t_target: float):
        if t_target < self.t - 1e-15:
            raise ValueError("SegmentTracker only advances forward")
        while self.t < t_target - 1e-15:
            self._step(t_target)

    def _step(self, t_target: float) -> complex:
        """One accepted step towards t_target; returns the z it reaches."""
        eq, seg, tol = self.eq, self.seg, self.tol
        z0 = seg.at(self.t)
        min_sep0 = min_pairwise_distance(self.fiber)
        scale = 1.0 + max(abs(w) for w in self.fiber)
        if min_sep0 < tol.delta_sep * scale:
            raise TrackingCollision(
                f"tracked roots collided near z={z0} (separation {min_sep0:.3e})"
            )
        cap = min(0.25 * min_sep0, 0.5 * scale)
        coeffs0 = eq.psi_coeffs_at(z0)
        zcoeffs0 = eq.psi_z_coeffs_at(z0)
        slopes = []  # dw/dz of each root at z0
        for w in self.fiber:
            dw = poly_eval_pair(coeffs0, w)[1]
            if dw == 0:  # no step can be predicted; halving h cannot help
                raise StepUnderflow(f"continuation step underflow near z={z0}")
            slopes.append(-poly_eval(zcoeffs0, w) / dw)
        h = min(self.h, t_target - self.t)
        clipped = h < self.h
        while True:
            z1 = seg.at(self.t + h)
            dz = z1 - z0
            moves = [d * dz for d in slopes]
            move = max(abs(m) for m in moves)
            corrected = None
            if move <= cap:
                coeffs1 = eq.psi_coeffs_at(z1)
                preds = [w + m for w, m in zip(self.fiber, moves)]
                corrected = [_polish(coeffs1, p, tol) for p in preds]
            if corrected is not None and None not in corrected:
                min_sep1 = min_pairwise_distance(corrected)
                drift = max(abs(c - p) for c, p in zip(corrected, preds))
                if drift <= 0.25 * min(min_sep0, min_sep1):
                    self.t += h
                    self.fiber = corrected
                    self.steps += 1
                    grown = min(0.5, h * 1.5) if move < 0.1 * cap else h
                    # a step cut short to land on the target says nothing
                    # about the step the path allows
                    self.h = max(self.h, grown) if clipped else grown
                    return z1
            if h <= tol.h_min_frac:
                raise StepUnderflow(f"continuation step underflow near z={z0}")
            h *= 0.5
            self.h = h


class _WalkedSegment:
    """One segment walked from a start fiber with the tracker's own steps:
    the knots (t, z, fiber) of its accepted steps, its end fiber, and rows,
    the fiber at any parameters read from those knots."""

    __slots__ = ("eq", "seg", "tol", "start", "stops", "t", "z", "fibers", "_dense")

    def __init__(self, eq: DefiningEquation, seg: Segment, fiber: Sequence[complex],
                 tol: Tolerances):
        self.eq, self.seg, self.tol, self.start = eq, seg, tol, list(fiber)
        self.stops: dict[float, list[complex]] = {}  # parameter -> tracked fiber; 1.0 too
        self._walk()

    def _walk(self):
        trk = SegmentTracker(self.eq, self.seg, self.start, self.tol)
        self.t, self.z, self.fibers, self._dense = [0.0], [self.seg.at(0.0)], [trk.fiber], None
        for stop in sorted({*self.stops, 1.0}):
            while trk.t < stop - 1e-15:
                self.z.append(trk._step(stop))
                self.t.append(trk.t)
                self.fibers.append(trk.fiber)
            self.stops[stop] = trk.fiber

    @property
    def end(self) -> list[complex]:
        return self.fibers[-1]

    def rows(self, ts: Sequence[float]) -> np.ndarray:
        """The fiber at each parameter of ts in [0, 1], one row per parameter
        in position order: the one-segment call of _read."""
        return settle(_read([self], [ts]))[0]

    def _knots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The knot parameters and fibers with their slopes dw/dt, for _hermite."""
        if self._dense is None:
            knots, zs, k = np.array(self.fibers), np.array(self.z), len(self.start)
            w = knots.ravel()
            _, dpsi_w = poly_eval_pairs(np.repeat(self.eq.psi_coeffs_on(zs), k, 0), w)
            psi_z, _ = poly_eval_pairs(np.repeat(self.eq.psi_z_coeffs_on(zs), k, 0), w)
            dzdt = np.array([self.seg.deriv(t) for t in self.t])[:, None]
            slopes = (-psi_z / dpsi_w).reshape(knots.shape) * dzdt
            self._dense = np.array(self.t), knots, slopes
        return self._dense


def _read(walked: Sequence[_WalkedSegment], tss: Sequence[Sequence[float]]) -> list:
    """The fiber at each parameter of tss[i] in [0, 1] on walked[i], one row
    per parameter in position order, or the refusal held for that segment.

    Every row is Hermite-predicted from its own segment's knots, and the rows
    of all segments of one equation are corrected in one batched Newton pass
    under the gates of an accepted step. A sample that fails becomes a stop
    of its segment's tracker; that segment alone is walked again and all its
    parameters read again, in one pass with the other segments that failed,
    so every sample a stop is advance_to each sample in turn.
    """
    tss = [np.asarray(ts, dtype=float) for ts in tss]
    out: list = [None] * len(walked)
    todo = list(range(len(walked)))
    while todo:
        again = []
        for group in _by_equation(walked, todo):
            eq, tol = walked[group[0]].eq, walked[group[0]].tol
            with np.errstate(all="ignore"):  # a sample gone astray fails its gates
                zs = np.array([walked[i].seg.at(t) for i in group for t in tss[i]])
                pred = np.concatenate([_hermite(*walked[i]._knots(), tss[i]) for i in group])
                rows, ok = _correct(eq, zs, pred, tol)
            bounds = list(itertools.accumulate((len(tss[i]) for i in group), initial=0))
            for i, lo, hi in zip(group, bounds, bounds[1:]):
                seg, ts, seg_rows, seg_ok = walked[i], tss[i], rows[lo:hi], ok[lo:hi]
                for j in np.flatnonzero([t in seg.stops for t in ts]):
                    seg_rows[j], seg_ok[j] = seg.stops[ts[j]], True
                if seg_ok.all():
                    out[i] = seg_rows
                    continue
                seg.stops.update(dict.fromkeys(ts[~seg_ok]))
                refusal = held(seg._walk)
                if refusal is None:
                    again.append(i)
                else:
                    out[i] = refusal
        todo = again
    return out


def _by_equation(walked: Sequence[_WalkedSegment], indices: Sequence[int]) -> list[list[int]]:
    """The indices grouped by the equation and Tolerances of their walked
    segments, each group in the given order."""
    groups: dict = {}
    for i in indices:
        groups.setdefault((id(walked[i].eq), walked[i].tol), []).append(i)
    return list(groups.values())


def _hermite(knot_t: np.ndarray, knots: np.ndarray, slopes: np.ndarray,
             ts: np.ndarray) -> np.ndarray:
    """Cubic Hermite interpolant of the knot fibers (rows) with their dw/dt
    slopes, at each of ts, from the two knots around it."""
    i = np.clip(np.searchsorted(knot_t, ts, side="right") - 1, 0, len(knot_t) - 2)
    h = (knot_t[i + 1] - knot_t[i])[:, None]
    s = (ts - knot_t[i])[:, None] / h
    return ((1 + 2 * s) * (1 - s) ** 2 * knots[i] + s * (1 - s) ** 2 * h * slopes[i]
            + s ** 2 * (3 - 2 * s) * knots[i + 1] - s ** 2 * (1 - s) * h * slopes[i + 1])


def _correct(eq: DefiningEquation, zs: np.ndarray, pred: np.ndarray,
             tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Newton-corrected fibers from the predicted rows, and which rows pass
    the gates of an accepted step (_polish's residual gate, the collision
    check, the drift bound)."""
    k = pred.shape[1]
    coeffs = np.repeat(eq.psi_coeffs_on(zs), k, axis=0)
    w = newton_polish_pairs(coeffs, pred.ravel(), max_iter=30)
    residual = np.abs(poly_eval_pairs(coeffs, w)[0])
    new = w.reshape(pred.shape)
    sep = _row_separations(new)
    drift = np.abs(new - pred).max(axis=1)
    ok = ((residual <= tol.eps_root * residual_scales(coeffs, w)).reshape(pred.shape).all(axis=1)
          & (sep >= tol.delta_sep * (1.0 + np.abs(new).max(axis=1)))
          & (drift <= 0.25 * np.minimum(_row_separations(pred), sep)))
    return new, ok


def _row_separations(rows: np.ndarray) -> np.ndarray:
    """min_pairwise_distance of each row."""
    k = rows.shape[1]
    d = np.abs(rows[:, :, None] - rows[:, None, :])
    d[:, np.arange(k), np.arange(k)] = np.inf
    return d.min(axis=(1, 2))


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
    if not same_z(path.start_z, start.z):
        raise ValueError(f"path starts at {path.start_z}, germ sits at {start.z}")
    fiber0 = fiber_at(eq, start.z, tol)
    pos = match_to_fiber(start.w, fiber0, tol)
    roots = list(fiber0.roots)
    roots[pos] = start.w  # keep the polished germ value

    samples = [(0.0, start.z, start.w)]
    min_sep = min_pairwise_distance(roots)
    for done, share, walked in _walk(eq, roots, path, tol):
        for t, z, fiber in zip(walked.t[1:], walked.z[1:], walked.fibers[1:]):
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
