"""Local expansions at critical points: cycles, Puiseux coefficients, residues.

A cycle of m sheets around a critical point a carries a fractional series
w = sum_n B_n (z - a)^(n/m). Coefficients are extracted numerically: one
turn of the whole fiber around the circle of radius eps, sampled at equal
angles, gives the cycles as its permutation's orbits, and each cycle's
m-turn series as the rows of the sheets its lift passes, joined turn after
turn and Fourier-analyzed in t = eps^(1/m) e^(i theta / m). The two-radius
check adds one radial leg and one sampled turn at eps/2, and each B_n with
|n| <= n_max/2 must agree there to 16 times the sum of its noise floors. The
residue of the singular element is m * B_{-m}.

One rule truncates the series: B_n is kept exactly when its term
|B_n| eps^(n/m) on the circle exceeds tol_coeff * max(1, max|w|) of the
samples. A fraction of the largest |B_n| would not do: with another critical
point R away the high-order B_n grow like R^(-n/m) and hide the principal
part. tol_coeff and the window n_max are set only in Tolerances.

A turn walks the circle once with the tracker's own steps and reads all
its samples from that walked segment's rows (tracker._WalkedSegment:
Hermite prediction between the steps, one batched Newton pass under the
gates of an accepted step, and a tracker stop for any sample that fails
them). A series has finitely many negative terms, so one reaching below
the window -n_max..n_max is refused (PrincipalPartTruncated), never read as
a shorter principal part.

singular_elements is the one route to a critical point's local data; quad's
residue checks take it with its outer turn (_local_data) and integrate that
walked circle. Every entry point resolves its radius through _radius, whose
eps < d/2 keeps both turns and the radial leg more than eps from other
critical points, so each is walked alone, not held to tracker._path_margin,
which may exceed the leg's distance eps/2 from a.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import AnnulusTooWide, PrincipalPartTruncated, settle
from .surface import DefiningEquation, Fiber, _lift_sheets, _sheet_permutation, fiber_at
from .tracker import Arc, Line, _WalkedSegment

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

    coeffs maps n to B_n for u <= n <= n_max, holding the B_n whose term
    |B_n| radius^(n/m) on the sampled circle exceeds tol_coeff * max(1,
    max|w|); the others are exact zeros. n_max is the window the expansion
    was read with (Tolerances.n_max). start_sheet is the anchor
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


def _turn(eq: DefiningEquation, a: complex, roots: Sequence[complex],
          epsilon: float, n_samples: int, tol: Tolerances):
    """Track the fiber `roots` over a + epsilon once around a, sampling it at
    n_samples equal angles: (one row per sample, columns in the position order
    of roots, or None for no samples; the circle's sheet permutation of roots;
    the walked circle)."""
    turn = _WalkedSegment(eq, Arc(a, epsilon, 0.0, 2.0 * math.pi), roots, tol)
    rows = turn.rows(np.arange(n_samples) / n_samples) if n_samples else None
    return rows, _sheet_permutation(turn.end, Fiber(a + epsilon, tuple(roots)), tol), turn


def _local_turns(eq: DefiningEquation, a: complex, epsilon: float, tol: Tolerances):
    """The sampled turn at epsilon and one more at epsilon/2 reached by one
    radial leg. Both keep the position order of the fiber over a + epsilon."""
    # positive orders alias into the bins below -n_max from order
    # n_samples / 2 on; 256 samples keep them under the noise floor at any n_max
    n_samples = max(256, 1 << math.ceil(math.log2(8 * tol.n_max)))
    roots = fiber_at(eq, a + epsilon, tol).roots
    outer = _turn(eq, a, roots, epsilon, n_samples, tol)
    inner_roots = _WalkedSegment(eq, Line(a + epsilon, a + 0.5 * epsilon), roots, tol).end
    return outer, _turn(eq, a, inner_roots, 0.5 * epsilon, n_samples, tol)


def cycle_structure(eq: DefiningEquation, a: complex,
                    epsilon: Optional[float] = None,
                    tol: Tolerances = DEFAULT) -> list[tuple[int, ...]]:
    """Monodromy orbits of the small circle about a, in cycle order."""
    epsilon = _radius(eq, a, epsilon, tol)
    _, sigma, _ = _turn(eq, a, fiber_at(eq, a + epsilon, tol).roots, epsilon, 0, tol)
    return sigma.orbits()


def _extract_coeffs(rows: np.ndarray, sheets: Sequence[int], center: complex,
                    epsilon: float, n_max: int) -> tuple[dict[int, complex], float, float]:
    """Fourier coefficients B_n, |n| <= n_max, of the lift that passes the
    given sheets, one per turn: its samples are the columns of those sheets
    joined turn after turn. Returned unfiltered with the fft noise floor of a
    bin (B_n's floor is that noise / epsilon^(n/m)) and the sample scale
    max(1, max|w|).

    A Puiseux series has finitely many negative terms, so a bin below -n_max
    above the noise floor means the window -n_max..n_max cut its principal
    part: PrincipalPartTruncated.
    """
    m = len(sheets)
    arr = np.concatenate([rows[:, s] for s in sheets])
    n_samples = len(arr)
    hat = np.fft.fft(arr) / n_samples
    scale = max(1.0, float(np.max(np.abs(arr))))
    noise = 64.0 * _MACH * scale
    lo = (n_samples - 1) // 2  # bins -lo..-n_max-1 lie below the window
    below = np.flatnonzero(np.abs(hat[n_samples - lo:n_samples - n_max]) > noise)
    if len(below):
        n = below[0] - lo
        raise PrincipalPartTruncated(
            f"the series of cycle {tuple(sheets)} at {center} has a term B_{n} below "
            f"the window -n_max..n_max, n_max = {n_max}: its principal part is cut"
        )
    coeffs = {n: complex(hat[n % n_samples]) / epsilon ** (n / m)
              for n in range(-n_max, n_max + 1)}
    return coeffs, noise, scale


def puiseux_expand(eq: DefiningEquation, a: complex, cycle: Sequence[int],
                   epsilon: Optional[float] = None,
                   tol: Tolerances = DEFAULT) -> PuiseuxExpansion:
    """Numeric Puiseux expansion of one cycle about a critical point.

    The branch of t = (z-a)^(1/m) is normalized so the leading coefficient
    has principal argument; the sheet realizing that branch is recorded.
    Raises LiftNotClosed when the m-turn lift from cycle[0] does not close,
    and AnnulusTooWide when coefficients extracted at eps and eps/2
    disagree, which signals a radius outside the convergence annulus.
    """
    epsilon = _radius(eq, a, epsilon, tol)
    outer, inner = _local_turns(eq, a, epsilon, tol)
    return _expand(a, tuple(cycle), outer, inner, epsilon, tol)


def _expand(a: complex, cycle: tuple[int, ...], outer, inner, epsilon: float,
            tol: Tolerances) -> PuiseuxExpansion:
    """Expansion of one cycle from the sampled turns of _local_turns."""
    m, n_max = len(cycle), tol.n_max
    if n_max < m:
        raise ValueError(f"n_max {n_max} is below the cycle length {m}: B_-m is out of range")
    rows, sigma, _ = outer
    sheets = _lift_sheets(sigma, cycle)
    raw, noise, scale = _extract_coeffs(rows, sheets, a, epsilon, n_max)
    rows2, sigma2, _ = inner
    raw2, noise2, _ = _extract_coeffs(rows2, _lift_sheets(sigma2, cycle), a, 0.5 * epsilon, n_max)
    for n in range(-(n_max // 2), n_max // 2 + 1):
        b1, b2 = raw[n], raw2[n]
        floor = noise / epsilon ** (n / m) + noise2 / (0.5 * epsilon) ** (n / m)
        if abs(b1 - b2) > 16.0 * floor:
            raise AnnulusTooWide(
                f"coefficient B_{n} disagrees between radii {epsilon} and {0.5 * epsilon}: "
                f"{b1} vs {b2}, beyond 16 times their noise floors {floor:.3e}"
            )

    # the one truncation rule: B_n's bin against tol_coeff of the sample scale
    coeffs = {n: b for n, b in raw.items()
              if abs(b) * epsilon ** (n / m) > tol.tol_coeff * scale}
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
    return PuiseuxExpansion(a, m, u, coeffs, cycle, sheets[best_j], epsilon, n_max)


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
    from .quad import _cycle_loop_values  # quad imports this module

    epsilon = _radius(eq, a, epsilon, tol)
    turn = _turn(eq, a, fiber_at(eq, a + epsilon, tol).roots, epsilon, 0, tol)
    ((value,),) = settle(_cycle_loop_values([(turn, [tuple(cycle)])], tol))
    return value / (2j * math.pi)


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
                      epsilon: Optional[float] = None,
                      tol: Tolerances = DEFAULT) -> SingularElementReport:
    """All cycles at a critical point with expansions and classifications,
    read from one sampled turn at the radius and one at half of it."""
    return _local_data(eq, a, epsilon, tol)[0]


def _local_data(eq: DefiningEquation, a: complex, epsilon: Optional[float],
                tol: Tolerances):
    """singular_elements' report with the outer turn it was read from, whose
    walked circle quad._cycle_loop_values integrates."""
    epsilon = _radius(eq, a, epsilon, tol)
    outer, inner = _local_turns(eq, a, epsilon, tol)
    reports = []
    for cycle in outer[1].orbits():
        exp = _expand(a, cycle, outer, inner, epsilon, tol)
        reports.append(CycleReport(cycle, exp, exp.residue, _classify(exp)))
    return SingularElementReport(a, tuple(reports)), outer


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
