"""Polynomial root finding on complex float coefficients.

Primary solver is Aberth-Ehrlich simultaneous iteration; the companion
matrix (numpy eigenvalues) is the fallback for stalled or degenerate cases.
newton_polish and residual_scale are also the corrector and residual gate
that surface and tracker apply to the coefficients of Psi(., z).
newton_polish_pairs is the same iteration, with the same stopping rule, run
at once on many (polynomial, start) pairs held in numpy arrays.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import RootFindingFailure

__all__ = ["all_roots", "newton_polish", "newton_polish_pairs", "poly_eval", "poly_eval_pair",
           "poly_eval_pairs", "polish_roots", "residual_scale", "residual_scales"]


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
    """Newton iteration on p; returns the refined root or None on stall."""
    for _ in range(max_iter):
        p, dp = poly_eval_pair(coeffs, w)
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
    biggest = max((abs(c) for c in cs), default=0.0)
    cutoff = biggest * 1e-300
    while cs and abs(cs[-1]) <= cutoff:
        cs.pop()
    return cs


def _aberth(coeffs, eps: float, max_iter: int):
    n = len(coeffs) - 1
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    radius = 1.0 + max(abs(c) for c in monic[:-1]) if n > 0 else 1.0
    # symmetry-breaking offset keeps guesses off the real axis
    roots = [
        0.5 * radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)
    ]
    for _ in range(max_iter):
        moved = 0.0
        new_roots = list(roots)
        for i, w in enumerate(roots):
            p, dp = poly_eval_pair(monic, w)
            if dp == 0:
                return None
            newton = p / dp
            s = 0j
            ok = True
            for j, wj in enumerate(roots):
                if j == i:
                    continue
                d = w - wj
                if d == 0:
                    ok = False
                    break
                s += 1.0 / d
            if not ok:
                return None
            denom = 1.0 - newton * s
            if denom == 0:
                return None
            step = newton / denom
            new_roots[i] = w - step
            moved = max(moved, abs(step) / (1.0 + abs(new_roots[i])))
        roots = new_roots
        if moved <= eps:
            return roots
    return None


def all_roots(coeffs, eps: float = 1e-14) -> list[complex]:
    """All complex roots of an ascending-coefficient polynomial.

    Raises RootFindingFailure when neither Aberth iteration nor the
    companion-matrix fallback reaches a backward-stable residual.
    """
    cs = _trim(coeffs)
    if len(cs) <= 1:
        return []
    if len(cs) == 2:
        return [-cs[0] / cs[1]]

    roots = _aberth(cs, eps, max_iter=120)
    if roots is None:
        arr = np.array(list(reversed(cs)), dtype=complex)
        roots = polish_roots(cs, [complex(r) for r in np.roots(arr)])

    for r in roots:
        if abs(poly_eval(cs, r)) > 1e-8 * residual_scale(cs, r):
            raise RootFindingFailure(
                f"root residual {abs(poly_eval(cs, r)):.3e} too large at {r}"
            )
    return roots
