"""Local expansions at critical points: cycles, Puiseux coefficients, residues.

A cycle of m sheets around a critical point a carries a fractional series
w = sum_n B_n (z - a)^(n/m). Coefficients are extracted numerically: the
branch is tracked around the m-turn circle of radius eps, sampled at
equispaced angles, and Fourier-analyzed in t = eps^(1/m) e^(i theta / m).
The residue of the singular element is m * B_{-m}.

singular_elements is the one route to a critical point's local data: quad's
residue checks, the antiderivative's zero-residue gate and growth_bound all
iterate its cycles. Every entry point resolves its radius through _radius.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import AnnulusTooWide, TrackingCollision
from .surface import DefiningEquation, fiber_at, monodromy
from .tracker import Arc, SegmentTracker, continue_fiber, loop_path, polyline

__all__ = [
    "PuiseuxExpansion",
    "CycleReport",
    "SingularElementReport",
    "default_radius",
    "cycle_structure",
    "puiseux_expand",
    "residue",
    "residue_by_contour",
    "growth_bound",
    "singular_elements",
]

_MACH = 2.2e-16


@dataclass(frozen=True)
class PuiseuxExpansion:
    """Truncated fractional series around a critical point.

    coeffs maps n to B_n for u <= n <= n_max; entries below the relative
    cutoff are dropped (reported as exact zero). start_sheet is the anchor
    fiber index whose lift the stored branch of t follows; coefficients of
    the other sheets in the cycle are the zeta-rotations B_n zeta^(n j).
    """

    center: complex
    m: int
    u: int
    coeffs: dict[int, complex]
    cycle: tuple[int, ...]
    start_sheet: int
    radius: float
    n_max: int

    @property
    def residue(self) -> complex:
        return self.m * self.coeffs.get(-self.m, 0j)

    def series_value(self, t: complex) -> complex:
        return sum(b * t**n for n, b in self.coeffs.items())


@dataclass(frozen=True)
class CycleReport:
    sheets: tuple[int, ...]
    expansion: PuiseuxExpansion
    residue: complex
    classification: str  # pole-element | algebraic-element | regular | both


@dataclass(frozen=True)
class SingularElementReport:
    center: complex
    cycles: tuple[CycleReport, ...]


def default_radius(eq: DefiningEquation, a: complex, tol: Tolerances = DEFAULT) -> float:
    """Sampling radius: 45% of the gap to the nearest other critical point."""
    crit = eq.critical(tol)
    d = crit.nearest_other_dist(a)
    if d < float("inf"):
        return min(0.45 * d, 1.0)
    return 0.5


def _radius(eq: DefiningEquation, a: complex, epsilon: Optional[float],
            tol: Tolerances) -> float:
    """The given sampling radius, or default_radius when it is None, checked
    to be positive and below half the gap to the nearest other critical point."""
    if epsilon is None:
        epsilon = default_radius(eq, a, tol)
    if not epsilon > 0:
        raise ValueError("sampling radius must be positive")
    d = eq.critical(tol).nearest_other_dist(a)
    if not epsilon < 0.5 * d:
        raise ValueError(
            f"sampling radius {epsilon} is not below half the distance "
            f"{d} to the nearest other critical point"
        )
    return epsilon


def cycle_structure(eq: DefiningEquation, a: complex,
                    epsilon: Optional[float] = None,
                    tol: Tolerances = DEFAULT) -> list[tuple[int, ...]]:
    """Monodromy orbits of the small circle about a, in cycle order."""
    epsilon = _radius(eq, a, epsilon, tol)
    loop = loop_path(a, epsilon, 1, anchor=a + epsilon)
    sigma = monodromy(eq, loop, tol, delta_path=0.5 * epsilon)
    return sigma.orbits()


def _sample_cycle(eq: DefiningEquation, a: complex, start_w: complex,
                  fiber0: Sequence[complex], m: int, epsilon: float,
                  n_samples: int, tol: Tolerances, pos: int) -> list[complex]:
    """Track the fiber m turns around a, sampling the lift at equal angles."""
    arc = Arc(a, epsilon, 0.0, 2.0 * math.pi * m)
    fiber = list(fiber0)
    fiber[pos] = start_w
    trk = SegmentTracker(eq, arc, fiber, tol, h_min=tol.h_min_frac)
    samples = [start_w]
    for j in range(1, n_samples):
        trk.advance_to(j / n_samples)
        samples.append(trk.fiber[pos])
    trk.advance_to(1.0)
    if abs(trk.fiber[pos] - start_w) > 1e-6 * (1.0 + abs(start_w)):
        raise TrackingCollision(
            f"lift did not close after {m} turns around {a}; cycle data inconsistent"
        )
    return samples


def _extract_coeffs(samples: Sequence[complex], m: int, epsilon: float,
                    n_max: int) -> dict[int, complex]:
    """Fourier coefficients B_n from equispaced samples of the lifted branch."""
    arr = np.asarray(samples, dtype=complex)
    n_samples = len(arr)
    hat = np.fft.fft(arr) / n_samples
    w_scale = float(np.max(np.abs(arr))) if n_samples else 0.0
    out: dict[int, complex] = {}
    for n in range(-n_max, n_max + 1):
        c = complex(hat[n % n_samples])
        power = epsilon ** (n / m)
        b = c / power
        # amplified fft noise floor at this index
        floor = 64.0 * _MACH * max(1.0, w_scale) / power
        if abs(b) > floor:
            out[n] = b
    return out


def _apply_cutoff(raw: dict[int, complex], tol_coeff: float) -> dict[int, complex]:
    if not raw:
        return {}
    scale = max(abs(b) for b in raw.values())
    return {n: b for n, b in raw.items() if abs(b) > tol_coeff * scale}


def puiseux_expand(eq: DefiningEquation, a: complex, cycle: Sequence[int],
                   n_max: Optional[int] = None, epsilon: Optional[float] = None,
                   tol: Tolerances = DEFAULT,
                   consistency_check: bool = True) -> PuiseuxExpansion:
    """Numeric Puiseux expansion of one cycle about a critical point.

    The branch of t = (z-a)^(1/m) is normalized so the leading coefficient
    has principal argument; the sheet realizing that branch is recorded.
    Raises AnnulusTooWide when coefficients extracted at eps and eps/2
    disagree, which signals a radius outside the convergence annulus.
    """
    n_max = tol.n_max if n_max is None else n_max
    epsilon = _radius(eq, a, epsilon, tol)
    cycle = tuple(cycle)
    m = len(cycle)
    if n_max < m:
        raise ValueError(f"n_max {n_max} is below the cycle length {m}: B_-m is out of range")
    n_samples = max(8, 1 << math.ceil(math.log2(max(8 * n_max, 8))))

    fiber_out = fiber_at(eq, a + epsilon, tol)
    pos = cycle[0]
    start_w = fiber_out.roots[pos]
    samples = _sample_cycle(eq, a, start_w, fiber_out.roots, m, epsilon,
                            n_samples, tol, pos)
    raw = _extract_coeffs(samples, m, epsilon, n_max)

    if consistency_check:
        # continue the germ radially inward, then sample again at eps/2
        inner = continue_fiber(eq, fiber_out.roots, polyline(a + epsilon, a + 0.5 * epsilon),
                               tol, delta_path=0.25 * epsilon)
        samples2 = _sample_cycle(eq, a, inner[pos], inner, m, 0.5 * epsilon,
                                 n_samples, tol, pos)
        raw2 = _extract_coeffs(samples2, m, 0.5 * epsilon, n_max)
        scale = max(
            max((abs(b) for b in raw.values()), default=0.0),
            max((abs(b) for b in raw2.values()), default=0.0),
            1e-300,
        )
        for n in range(-(n_max // 2), n_max // 2 + 1):
            b1 = raw.get(n, 0j)
            b2 = raw2.get(n, 0j)
            if max(abs(b1), abs(b2)) <= tol.tol_coeff * scale:
                continue
            if abs(b1 - b2) > 1e-7 * scale:
                raise AnnulusTooWide(
                    f"coefficient B_{n} disagrees between radii "
                    f"{epsilon} and {0.5 * epsilon}: {b1} vs {b2}"
                )

    coeffs = _apply_cutoff(raw, tol.tol_coeff)
    if not coeffs:
        return PuiseuxExpansion(a, m, 0, {}, cycle, cycle[0], epsilon, n_max)
    u = min(coeffs)

    # normalize the branch of t: rotate so arg(B_u) is principal
    zeta = cmath.exp(2j * math.pi / m)
    best_j, best_arg = 0, float("inf")
    for j in range(m):
        ang = abs(cmath.phase(coeffs[u] * zeta ** (u * j)))
        if ang < best_arg - 1e-12:
            best_j, best_arg = j, ang
    if best_j:
        coeffs = {n: b * zeta ** (n * best_j) for n, b in coeffs.items()}
    start_sheet = cycle[best_j % m]
    return PuiseuxExpansion(a, m, u, coeffs, cycle, start_sheet, epsilon, n_max)


def residue(exp: PuiseuxExpansion) -> complex:
    """Residue of the singular element: m * B_{-m}."""
    return exp.residue


def residue_by_contour(eq: DefiningEquation, a: complex, cycle: Sequence[int],
                       epsilon: Optional[float] = None,
                       tol: Tolerances = DEFAULT) -> complex:
    """Residue as (1/2 pi i) times the m-turn loop integral around a.

    Raises LiftNotClosed when the sheets are not a cycle of the monodromy
    about a, since the m-turn lift then does not close.
    """
    from .quad import _cycle_loop_value

    epsilon = _radius(eq, a, epsilon, tol)
    return _cycle_loop_value(eq, a, tuple(cycle), epsilon, tol) / (2j * math.pi)


def _classify(exp: PuiseuxExpansion) -> str:
    pole = exp.u < 0
    algebraic = exp.m > 1
    if pole and algebraic:
        return "both"
    if pole:
        return "pole-element"
    if algebraic:
        return "algebraic-element"
    return "regular"


def singular_elements(eq: DefiningEquation, a: complex,
                      n_max: Optional[int] = None,
                      epsilon: Optional[float] = None,
                      tol: Tolerances = DEFAULT) -> SingularElementReport:
    """All cycles at a critical point with expansions and classifications."""
    epsilon = _radius(eq, a, epsilon, tol)
    reports = []
    for cycle in cycle_structure(eq, a, epsilon, tol):
        exp = puiseux_expand(eq, a, cycle, n_max, epsilon, tol)
        reports.append(CycleReport(cycle, exp, exp.residue, _classify(exp)))
    return SingularElementReport(a, tuple(reports))


def growth_bound(eq: DefiningEquation, z0: complex, tol: Tolerances = DEFAULT) -> int:
    """Smallest n >= 0 with (z - z0)^n w(z) bounded near z0 across all sheets."""
    crit = eq.critical(tol)
    if crit.min_dist(z0) > tol.tol_cluster * crit.scale:
        return 0
    center = min(crit.points, key=lambda p: abs(p.location - z0)).location
    bound = 0
    for c in singular_elements(eq, center, tol=tol).cycles:
        exp = c.expansion
        if exp.coeffs and exp.u < 0:
            bound = max(bound, -(exp.u // exp.m))
    return bound
