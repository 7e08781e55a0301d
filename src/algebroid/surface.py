"""The defining equation, its critical set, numeric fibers, and monodromy.

A defining equation W^k + A_1(z) W^(k-1) + ... + A_k(z) = 0 with rational
A_j determines a k-sheeted surface over the z-plane. Away from the critical
set (discriminant zeros and coefficient poles) the fiber consists of k
distinct roots; loops in the punctured plane permute them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import LiftNotClosed, NearCriticalPoint, RootFindingFailure, TrackingCollision
from .exactalg import GaussianRational, RatFunc, _coprime_mod_p, discriminant, parse_coefficient
from .rootfind import (all_roots, merge_double_roots, poly_eval, poly_eval_pair, polish_roots,
                       residual_scale)

__all__ = [
    "DefiningEquation",
    "CriticalPoint",
    "CriticalSet",
    "Fiber",
    "SheetPermutation",
    "IrreducibilityResult",
    "critical_points",
    "fiber_at",
    "monodromy",
    "irreducibility_check",
    "generator_loops",
]

KIND_DISC = "discriminant-zero"
KIND_POLE = "coefficient-pole"
KIND_BOTH = "both"


class DefiningEquation:
    """Immutable defining equation; rejects non-squarefree input at build time."""

    def __init__(self, k: int, coeffs: Sequence[RatFunc]):
        if k < 1:
            raise ValueError("sheet count k must be at least 1")
        coeffs = tuple(RatFunc.of(c) for c in coeffs)
        if len(coeffs) != k:
            raise ValueError(f"expected {k} coefficients, got {len(coeffs)}")
        self.k = k
        self.coeffs = coeffs
        self.disc = discriminant(coeffs)  # raises IdenticallyZeroDiscriminant
        self._critical_cache: dict[Tolerances, CriticalSet] = {}

    @classmethod
    def from_strings(cls, exprs: Sequence[str]) -> "DefiningEquation":
        return cls(len(exprs), [parse_coefficient(e) for e in exprs])

    @cached_property
    def _dcoeffs(self) -> tuple[RatFunc, ...]:
        """dA_j/dz, taken on first use: only Psi_z reads them."""
        return tuple(c.derivative() for c in self.coeffs)

    @cached_property
    def _tables(self) -> tuple["_FloatTable", "_FloatTable"]:
        """The float tables (_FloatTable) of A_k..A_1 and of dA_k/dz..dA_1/dz,
        built on first use: the exact layer never reads them."""
        return _FloatTable(reversed(self.coeffs)), _FloatTable(reversed(self._dcoeffs))

    @property
    def max_coeff_degree(self) -> int:
        return max((c.degree for c in self.coeffs), default=0)

    def a_values(self, z: complex) -> list[complex]:
        return [c.eval_complex(z) for c in self.coeffs]

    def psi_coeffs_at(self, z: complex) -> list[complex]:
        """Coefficients of Psi(., z) ascending in W."""
        vals = self._tables[0].at(z)
        vals.append(1.0 + 0j)
        return vals

    def psi_z_coeffs_at(self, z: complex) -> list[complex]:
        """Coefficients of Psi_z(., z) ascending in W."""
        return self._tables[1].at(z)

    def psi_coeffs_on(self, zs: np.ndarray) -> np.ndarray:
        """psi_coeffs_at of each z in an array, one row per z."""
        rows = np.empty((len(zs), self.k + 1), dtype=complex)
        rows[:, :-1] = self._tables[0].on(zs).T
        rows[:, -1] = 1.0
        return rows

    def psi(self, w: complex, z: complex) -> complex:
        return poly_eval(self.psi_coeffs_at(z), w)

    def psi_w(self, w: complex, z: complex) -> complex:
        return poly_eval_pair(self.psi_coeffs_at(z), w)[1]

    def psi_z(self, w: complex, z: complex) -> complex:
        return poly_eval(self.psi_z_coeffs_at(z), w)

    def residual_scale(self, w: complex, z: complex) -> float:
        return residual_scale(self.psi_coeffs_at(z), w)

    def critical(self, tol: Tolerances = DEFAULT) -> "CriticalSet":
        cached = self._critical_cache.get(tol)
        if cached is None:
            cached = critical_points(self, tol)
            self._critical_cache[tol] = cached
        return cached

    def scaled_by(self, alpha: GaussianRational) -> "DefiningEquation":
        """Equation of alpha*W(z): substitutes A_j -> alpha^j A_j."""
        alpha = GaussianRational.of(alpha)
        factor = RatFunc.constant(alpha)
        scaled = []
        acc = RatFunc.one()
        for c in self.coeffs:
            acc = acc * factor
            scaled.append(acc * c)
        return DefiningEquation(self.k, scaled)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DefiningEquation)
            and self.k == other.k
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        terms = ", ".join(str(c) for c in self.coeffs)
        return f"DefiningEquation(k={self.k}, [{terms}])"


class _FloatTable:
    """Rational functions f_i = num_i / den_i of z held as the float
    coefficients of num_i and den_i (Poly._float_coeffs), highest degree
    first, evaluated at one z or at an array of them.

    The two front ends keep their own arithmetic. at runs Horner in Python
    complex arithmetic, the operations of RatFunc.eval_complex; on runs one
    Horner pass over every numerator and one over every denominator with
    np.polyval's operations, bit for bit its value per f_i. numpy's complex
    multiply may use FMA, so the two may differ by an ulp (the rates are in
    rootfind's arithmetic rule).
    """

    __slots__ = ("pairs", "num", "den")

    def __init__(self, funcs):
        self.pairs = [(f.num._float_coeffs()[::-1], f.den._float_coeffs()[::-1]) for f in funcs]
        self.num = _padded([num for num, _ in self.pairs])
        self.den = _padded([den for _, den in self.pairs])

    def at(self, z: complex) -> list[complex]:
        """[f_i(z)]."""
        vals = []
        for num, den in self.pairs:
            p = 0j
            for c in num:
                p = p * z + c
            q = 0j
            for c in den:
                q = q * z + c
            vals.append(p / q)
        return vals

    def on(self, zs: np.ndarray) -> np.ndarray:
        """f_i of each z in an array: one row per f_i, one column per z."""
        return _horner(self.num, zs) / _horner(self.den, zs)


def _padded(polys: Sequence[tuple]) -> np.ndarray:
    """Coefficient tuples, highest degree first, as the rows of one complex
    array, each padded with leading zeros to the longest."""
    width = max(map(len, polys), default=0)
    table = np.zeros((len(polys), width), dtype=complex)
    for row, poly in zip(table, polys):
        row[width - len(poly):] = poly
    return table


def _horner(table: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """np.polyval of each row of table at zs, one row of values per row, in
    one pass over the columns. A leading zero leaves the running value an
    exact zero, as it is before np.polyval's first coefficient."""
    zs = np.asanyarray(zs)
    y = np.zeros((len(table), len(zs)), dtype=zs.dtype)
    for col in table.T:
        y = y * zs + col[:, None]
    return y


@dataclass(frozen=True)
class CriticalPoint:
    location: complex
    kind: str  # KIND_DISC | KIND_POLE | KIND_BOTH


@dataclass(frozen=True)
class CriticalSet:
    points: tuple[CriticalPoint, ...]

    @property
    def locations(self) -> tuple[complex, ...]:
        return tuple(p.location for p in self.points)

    @property
    def scale(self) -> float:
        if not self.points:
            return 1.0
        return max(1.0, max(abs(p.location) for p in self.points))

    def min_dist(self, z: complex) -> float:
        if not self.points:
            return float("inf")
        return min(abs(z - p.location) for p in self.points)

    def nearest_other_dist(self, loc: complex) -> float:
        """Distance from loc to the nearest critical point other than itself."""
        best = float("inf")
        for p in self.points:
            d = abs(p.location - loc)
            if d > 1e-12 * self.scale:
                best = min(best, d)
        return best

    def __len__(self) -> int:
        return len(self.points)


def min_pairwise_distance(ws: Sequence[complex]) -> float:
    """Smallest distance between two entries; inf for fewer than two."""
    best = float("inf")
    for i, a in enumerate(ws):
        for b in ws[i + 1:]:
            d = abs(a - b)
            if d < best:
                best = d
    return best


@dataclass(frozen=True)
class Fiber:
    z: complex
    roots: tuple[complex, ...]

    @property
    def scale(self) -> float:
        return 1.0 + max((abs(r) for r in self.roots), default=0.0)

    @property
    def min_separation(self) -> float:
        return min_pairwise_distance(self.roots)


@dataclass(frozen=True)
class SheetPermutation:
    image: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.image) != list(range(len(self.image))):
            raise ValueError(f"not a permutation: {self.image}")

    def __call__(self, j: int) -> int:
        return self.image[j]

    def compose(self, other: "SheetPermutation") -> "SheetPermutation":
        """self after other: (self.compose(other))(j) = self(other(j))."""
        return SheetPermutation(tuple(self.image[other.image[j]] for j in range(len(self.image))))

    def inverse(self) -> "SheetPermutation":
        inv = [0] * len(self.image)
        for j, m in enumerate(self.image):
            inv[m] = j
        return SheetPermutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(m == j for j, m in enumerate(self.image))

    def orbits(self) -> list[tuple[int, ...]]:
        """Cycles in traversal order, each starting at its smallest element."""
        seen = [False] * len(self.image)
        out = []
        for j in range(len(self.image)):
            if seen[j]:
                continue
            cyc = []
            m = j
            while not seen[m]:
                seen[m] = True
                cyc.append(m)
                m = self.image[m]
            out.append(tuple(cyc))
        return out


def critical_points(eq: DefiningEquation, tol: Tolerances = DEFAULT) -> CriticalSet:
    """Discriminant zeros and coefficient poles, isolated double roots merged,
    clustered and tagged. Two roots of a polynomial that is squarefree by
    exactalg._coprime_mod_p are never merged as one double root."""
    candidates: list[tuple[complex, str]] = []
    polys = [(eq.disc.num, KIND_DISC)] + [(c.den, KIND_POLE) for c in eq.coeffs]
    for poly, kind in polys:
        if poly.degree >= 1:
            fc = poly._float_coeffs()
            roots = polish_roots(fc, all_roots(fc))
            # a double root comes back as two points up to sqrt(eps_root) apart
            radius = math.sqrt(tol.eps_root) * max(1.0, max(abs(r) for r in roots))
            roots = merge_double_roots(fc, roots, radius, tol.eps_root,
                                       lambda: _coprime_mod_p(poly.q, poly.derivative().q))
            candidates.extend((r, kind) for r in roots)

    if not candidates:
        return CriticalSet(())
    scale = max(1.0, max(abs(z) for z, _ in candidates))
    radius = tol.tol_cluster * scale
    clusters: list[tuple[list[complex], set[str]]] = []
    for z, kind in candidates:
        for locs, kinds in clusters:
            if abs(z - locs[0]) <= radius:
                locs.append(z)
                kinds.add(kind)
                break
        else:
            clusters.append(([z], {kind}))
    points = []
    for locs, kinds in clusters:
        loc = sum(locs) / len(locs)
        kind = KIND_BOTH if len(kinds) > 1 else kinds.pop()
        points.append(CriticalPoint(loc, kind))
    points.sort(key=lambda p: _plane_key(p.location, radius))
    return CriticalSet(tuple(points))


def _plane_key(z: complex, width: float) -> tuple[float, float]:
    """Sort key: the real part in buckets of width, then the imag part, so
    that real parts which agree up to round-off do not decide the order."""
    return (round(z.real / width) if width > 0 else z.real, z.imag)


def fiber_at(eq: DefiningEquation, z: complex, tol: Tolerances = DEFAULT) -> Fiber:
    """All k roots of Psi(., z), Newton-polished and canonically ordered."""
    crit = eq.critical(tol)
    if crit.min_dist(z) < tol.tol_cluster * crit.scale:
        raise NearCriticalPoint(f"z={z} is within the critical-point exclusion zone")
    coeffs = eq.psi_coeffs_at(z)
    polished = all_roots(coeffs)
    for w in polished:
        if not abs(poly_eval(coeffs, w)) <= tol.eps_root * residual_scale(coeffs, w):
            raise RootFindingFailure(f"fiber root residual too large at z={z}")
    width = tol.delta_sep * (1.0 + max(abs(w) for w in polished))
    fiber = Fiber(z, tuple(sorted(polished, key=lambda w: _plane_key(w, width))))
    if fiber.min_separation < tol.delta_sep * fiber.scale:
        raise RootFindingFailure(f"fiber roots not separated at z={z}")
    return fiber


def match_to_fiber(w: complex, fiber: Fiber, tol: Tolerances = DEFAULT) -> int:
    """Index of the unique fiber root within the germ-matching distance."""
    limit = tol.germ_match_frac * min(fiber.min_separation, 2.0 * fiber.scale)
    best, best_d = -1, float("inf")
    for idx, r in enumerate(fiber.roots):
        d = abs(w - r)
        if d < best_d:
            best, best_d = idx, d
    if best_d > limit:
        raise TrackingCollision(
            f"value {w} does not match any fiber root at z={fiber.z} "
            f"(nearest distance {best_d:.3e}, limit {limit:.3e})"
        )
    return best


def monodromy(eq: DefiningEquation, loop, tol: Tolerances = DEFAULT) -> SheetPermutation:
    """Sheet permutation from continuing the whole fiber around a closed loop
    that keeps the default path margin from the critical set."""
    from . import tracker  # deferred: tracker imports this module

    z0 = loop.start_z
    if z0 is None:
        raise ValueError("monodromy of an empty path")
    if not loop.is_closed():
        raise ValueError("monodromy requires a closed base loop")
    fiber0 = fiber_at(eq, z0, tol)
    return _sheet_permutation(tracker.continue_fiber(eq, fiber0.roots, loop, tol), fiber0, tol)


def _sheet_permutation(end_roots: Sequence[complex], fiber: Fiber,
                       tol: Tolerances) -> SheetPermutation:
    """Entry j is the index in fiber of end_roots[j]; raises TrackingCollision
    when the matching is not a bijection."""
    image = tuple(match_to_fiber(w, fiber, tol) for w in end_roots)
    if sorted(image) != list(range(len(fiber.roots))):
        raise TrackingCollision("fiber continuation did not produce a bijection")
    return SheetPermutation(image)


def _lift_sheets(sigma: SheetPermutation, cycle: Sequence[int]) -> tuple[int, ...]:
    """Sheets, one per turn, that the m-turn lift from cycle[0] of a loop with
    permutation sigma passes, m = len(cycle); LiftNotClosed unless it closes."""
    sheets = [cycle[0]]
    while len(sheets) <= len(cycle):
        sheets.append(sigma(sheets[-1]))
    if sheets[-1] != cycle[0]:
        raise LiftNotClosed(f"sheets {tuple(cycle)} are not a cycle: the {len(cycle)}-turn "
                            f"lift from sheet {cycle[0]} ends on sheet {sheets[-1]}",
                            end_sheet=sheets[-1])
    return tuple(sheets[:-1])


@dataclass(frozen=True)
class IrreducibilityResult:
    transitive: bool
    orbits: tuple[tuple[int, ...], ...]
    generators: tuple[SheetPermutation, ...]

    def __bool__(self) -> bool:
        return self.transitive


def generator_loops(eq: DefiningEquation, base_z: complex, tol: Tolerances = DEFAULT,
                    rng=None) -> list:
    """One closed loop per critical point, anchored at base_z: a (point,
    loop) pair per point of eq.critical(tol), in its order.

    Each loop is a circle about its point, of radius half the distance to
    the nearest other critical point or, when the point is alone,
    max(0.5, 4 * the path margin): a radius that does not grow with the
    base's distance and keeps the circle clear of the margin. Either radius
    stays within 0.9 times the base's distance. A straight spoke reaches
    the circle, detouring around other exclusion disks when necessary.
    """
    from . import tracker

    crit = eq.critical(tol)
    loops = []
    margin = tracker._path_margin(eq, tol)
    for cp in crit.points:
        d_other = crit.nearest_other_dist(cp.location)
        radius = 0.5 * d_other if d_other < float("inf") else max(0.5, 4.0 * margin)
        d_base = abs(base_z - cp.location)
        if d_base > 0:
            # keep the base strictly outside the circle
            radius = min(radius, 0.9 * d_base)
        loops.append((cp, tracker.anchored_loop(
            cp.location, radius, base_z, crit.locations, margin, rng=rng)))
    return loops


def irreducibility_check(
    eq: DefiningEquation,
    base: complex,
    tol: Tolerances = DEFAULT,
) -> IrreducibilityResult:
    """Transitivity of the monodromy group generated by critical-point loops."""
    if eq.k == 1:
        return IrreducibilityResult(True, ((0,),), ())
    gens = tuple(monodromy(eq, loop, tol) for _, loop in generator_loops(eq, base, tol))
    orbits = _orbits(eq.k, gens)
    return IrreducibilityResult(len(orbits) == 1, orbits, gens)


def _orbits(k: int, gens: Sequence[SheetPermutation]) -> tuple[tuple[int, ...], ...]:
    """Orbits of the group generated by gens on range(k), each sorted."""
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        for j in range(k):
            rj, rm = find(j), find(g(j))
            if rj != rm:
                parent[rj] = rm
    groups: dict[int, list[int]] = {}
    for j in range(k):
        groups.setdefault(find(j), []).append(j)
    return tuple(sorted(tuple(sorted(v)) for v in groups.values()))
