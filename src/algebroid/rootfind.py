"""Polynomial root finding on complex float coefficients.

all_roots takes the eigenvalues of the companion matrix (numpy.roots, which
is backward stable; Edelman & Murakami, Math. Comp. 1995) and Newton-polishes
each one.
newton_polish and residual_scale are also the corrector and residual gate
that surface and tracker apply to the coefficients of Psi(., z).
newton_polish_pairs is the same iteration, with the same stopping rule, run
at once on many (polynomial, start) pairs held in numpy arrays.
merge_double_roots turns the two scattered copies of a double root into one.
"""

from __future__ import annotations

import numpy as np

from .errors import RootFindingFailure

__all__ = ["all_roots", "merge_double_roots", "newton_polish", "newton_polish_pairs", "poly_eval",
           "poly_eval_pair", "poly_eval_pairs", "polish_roots", "residual_scale", "residual_scales"]


def poly_eval(coeffs, z: complex) -> complex:
    """Horner evaluation; coeffs ascending."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def poly_eval_pair(coeffs, z: complex) -> tuple[complex, complex]:
    """(p(z), p'(z)) in one Horner pass."""
    p = 0j
    dp = 0j
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def poly_eval_pairs(coeffs: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """poly_eval_pair of each row of coeffs (ascending) at the matching entry of z."""
    p = np.zeros(len(z), dtype=complex)
    dp = np.zeros(len(z), dtype=complex)
    for c in coeffs[:, ::-1].T:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def residual_scale(coeffs, z: complex) -> float:
    """Magnitude scale of p(z) for backward-stable residual checks."""
    s = 0.0
    az = abs(z)
    power = 1.0
    for c in coeffs:
        s += abs(c) * power
        power *= az
    return max(s, 1.0)


def residual_scales(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """residual_scale of each row of coeffs at the matching entry of z."""
    s = np.zeros(len(z))
    az = np.abs(z)
    power = np.ones(len(z))
    for c in coeffs.T:
        s += np.abs(c) * power
        power *= az
    return np.maximum(s, 1.0)


def newton_polish(coeffs, w: complex, max_iter: int = 40, tol: float = 1e-15):
    """Newton iteration on p; returns the refined root or None on stall.
    Each iteration is poly_eval_pair's Horner pass, inline."""
    for _ in range(max_iter):
        p = dp = 0j
        for c in reversed(coeffs):
            dp = dp * w + p
            p = p * w + c
        if dp == 0:
            return None
        step = p / dp
        w = w - step
        if abs(step) <= tol * (1.0 + abs(w)):
            return w
    p, _ = poly_eval_pair(coeffs, w)
    if abs(p) <= 1e-10 * residual_scale(coeffs, w):
        return w
    return None


def newton_polish_pairs(coeffs: np.ndarray, w: np.ndarray, max_iter: int = 40,
                        tol: float = 1e-15) -> np.ndarray:
    """newton_polish of each row of coeffs from the matching entry of w, all
    at once; NaN where newton_polish returns None."""
    w = np.array(w, dtype=complex)
    active = np.arange(len(w))  # entries still iterating
    for _ in range(max_iter):
        if not len(active):
            return w
        p, dp = poly_eval_pairs(coeffs[active], w[active])
        stalled = dp == 0
        w[active[stalled]] = np.nan
        active, p, dp = active[~stalled], p[~stalled], dp[~stalled]
        step = p / dp
        w[active] -= step
        active = active[~(np.abs(step) <= tol * (1.0 + np.abs(w[active])))]
    p, _ = poly_eval_pairs(coeffs[active], w[active])
    w[active[~(np.abs(p) <= 1e-10 * residual_scales(coeffs[active], w[active]))]] = np.nan
    return w


def polish_roots(coeffs, roots) -> list[complex]:
    """newton_polish each root; a root where Newton stalls is kept as given."""
    polished = []
    for r in roots:
        p = newton_polish(coeffs, r)
        polished.append(r if p is None else p)
    return polished


def _trim(coeffs) -> list[complex]:
    cs = [complex(c) for c in coeffs]
    if not np.isfinite(cs).all():
        raise RootFindingFailure(f"non-finite polynomial coefficient in {cs}")
    biggest = max((abs(c) for c in cs), default=0.0)
    cutoff = biggest * 1e-300
    while cs and abs(cs[-1]) <= cutoff:
        cs.pop()
    return cs


def all_roots(coeffs) -> list[complex]:
    """All complex roots of an ascending-coefficient polynomial: companion-matrix
    eigenvalues, each Newton-polished.

    Raises RootFindingFailure on a non-finite coefficient, or when a root
    misses the backward-stable residual gate.
    """
    cs = _trim(coeffs)
    if len(cs) <= 1:
        return []
    if len(cs) == 2:
        return [-cs[0] / cs[1]]

    roots = polish_roots(cs, [complex(r) for r in np.roots(cs[::-1])])
    for r in roots:
        residual = abs(poly_eval(cs, r))
        if not residual <= 1e-8 * residual_scale(cs, r):  # NaN-safe
            raise RootFindingFailure(f"root residual {residual:.3e} too large at {r}")
    return roots


def merge_double_roots(coeffs, roots, radius: float, eps: float) -> list[complex]:
    """roots with each isolated double root given once.

    A double root is fixed by a residual at eps only to about sqrt(eps), so
    the root finder returns it as two points up to that far apart, by an
    amount that depends on round-off. Two roots within ``radius`` of each
    other and of no third root are one double root m when Newton on p' from
    their midpoint converges and |p(m)| passes the eps residual gate; m takes
    the place of the first. Three or more roots within ``radius`` of each
    other are kept as given.
    """
    near = [[j for j, s in enumerate(roots) if j != i and abs(r - s) <= radius]
            for i, r in enumerate(roots)]
    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]
    merged, dropped = [], set()
    for i, r in enumerate(roots):
        if i in dropped:
            continue
        if len(near[i]) == 1 and near[i][0] > i and near[near[i][0]] == [i]:
            j = near[i][0]
            m = newton_polish(dcoeffs, (r + roots[j]) / 2)
            if m is not None and abs(poly_eval(coeffs, m)) <= eps * residual_scale(coeffs, m):
                merged.append(m)
                dropped.add(j)
                continue
        merged.append(r)
    return merged
