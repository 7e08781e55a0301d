"""Paths in the base plane and points on the Riemann surface above them.

A BasePath is a chain of Line and Arc segments, each parametrized over
t in [0, 1] by at/deriv and, bit for bit the same, by the array forms
ats/derivs. A SurfacePoint is a numeric germ (z, w). This module holds
only their geometry; continuation along a path is tracker's.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "Line",
    "Arc",
    "Segment",
    "BasePath",
    "SurfacePoint",
    "same_z",
    "reverse",
    "polyline",
    "loop_path",
]

_TWO_PI = 2.0 * math.pi
# an arc may sweep at most this many turns: its walk keeps every knot, about
# 2.5 KB a turn on W^2 = z
_MAX_TURNS = 4096


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

    def ats(self, ts: np.ndarray) -> np.ndarray:
        """at of each parameter of an array, bit for bit."""
        return self.z_from + ts * (self.z_to - self.z_from)

    def derivs(self, ts: np.ndarray) -> np.ndarray:
        """deriv of each parameter of an array."""
        return np.full(len(ts), self.z_to - self.z_from)

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
    """Circular arc; theta runs monotonically and may sweep several turns,
    at most _MAX_TURNS."""

    center: complex
    radius: float
    theta_from: float
    theta_to: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("arc radius must be positive")
        if abs(self.theta_to - self.theta_from) > _TWO_PI * _MAX_TURNS:
            raise ValueError(f"arc sweeps more than {_MAX_TURNS} turns")

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

    def ats(self, ts: np.ndarray) -> np.ndarray:
        """at of each parameter of an array, bit for bit: the same operations
        in the same order, with np.exp for cmath.exp."""
        theta = self.theta_from + ts * (self.theta_to - self.theta_from)
        return self.center + self.radius * np.exp(1j * theta)

    def derivs(self, ts: np.ndarray) -> np.ndarray:
        """deriv of each parameter of an array, bit for bit."""
        theta = self.theta_from + ts * (self.theta_to - self.theta_from)
        return 1j * self.radius * (self.theta_to - self.theta_from) * np.exp(1j * theta)

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

    def is_closed(self) -> bool:
        if not self.segments:
            return True
        scale = max(1.0, abs(self.start_z))
        return abs(self.end_z - self.start_z) <= 1e-9 * scale

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
