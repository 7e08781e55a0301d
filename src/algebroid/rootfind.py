"""Polynomial root finding on complex float coefficients.

all_roots takes the eigenvalues of the companion matrix (numpy.roots, which
is backward stable; Edelman & Murakami, Math. Comp. 1995) and Newton-polishes
each one (polish_roots); surface.fiber_at takes its roots as they are, and
only surface.critical_points polishes them once more.
newton_polish and residual_scale are also the corrector and residual gate
that surface and tracker apply to the coefficients of Psi(., z).
newton_polish_pairs is the same iteration, with the same stopping rule, run
at once on many (polynomial, start) pairs held in numpy arrays.
merge_double_roots turns the two scattered copies of a double root into one.

The stopping rule. Newton returns w when a step is within 1e-15 (1 + |w|).
It also returns w at its rounding floor: when a step does not shrink the
one before it and w already passes the gate that a run reaching max_iter
faces, |p(w)| <= 1e-10 residual_scale(p, w) (Bini & Robol, MPSolve, 2014;
Higham, Accuracy and Stability of Numerical Algorithms, 5.1). A root at the
floor of a high-degree p otherwise jitters between steps of 1e-14 and 1e-11
until max_iter and is then accepted by that same gate. A step that does not
shrink where the gate fails (W^3 - 1 from -1.6 steps 0.66, 0.69, 5.7, ...)
iterates on, and a run whose steps shrink to that stop returns the same
bits as without the rule.

Arithmetic rule for array kernels. A numpy kernel that replaces another must
give the same bits, so it may only regroup work along the rules below,
measured with numpy 2.4 on x86-64 over 200,000 random complex operands
spread over six decades (surface._FloatTable holds the matching rule for
the coefficient tables):
- A numpy elementwise op gives an entry the same bits whatever the array's
  length and the entry's offset (0 of 1,003 differ). So an op may run on a
  whole array and have entries masked out afterwards instead of gathered
  first (newton_polish_pairs), and many segments' rows may share one pass.
- An in-place complex multiply on a one-entry array (x *= y) differs from
  x * y in 43% of the entries; on longer arrays it agrees. Keep complex
  products out of place.
- numpy's complex *, / and abs differ from Python's complex arithmetic in
  44%, 43% and 35% of the entries; + and - agree. np.hypot, products
  written out on the real and imaginary parts, and CPython's Smith division
  written out in numpy agree in all of them. A kernel that must equal a
  Python scalar form (quad's Gauss terms) uses those forms; one that must
  equal a numpy form keeps numpy's operations and their order.
"""

from __future__ import annotations

import cmath
from typing import Callable

import numpy as np

from .errors import RootFindingFailure

__all__ = ["all_roots", "merge_double_roots", "newton_polish", "newton_polish_pairs", "poly_eval",
           "poly_eval_pair", "poly_eval_pairs", "poly_evals", "polish_roots", "residual_scale",
           "residual_scales"]


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
    p = dp = np.zeros(len(z), dtype=complex)
    for c in coeffs[:, ::-1].T:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def poly_evals(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """poly_eval of each row of coeffs (ascending) at the matching entry of z:
    the p of poly_eval_pairs, bit for bit."""
    p = np.zeros(len(z), dtype=complex)
    for c in coeffs[:, ::-1].T:
        p = p * z + c
    return p


def residual_scale(coeffs, z: complex) -> float:
    """Magnitude scale of p(z) for backward-stable residual checks."""
    s = 0.0
    az = abs(z)
    power = 1.0
    for c in coeffs:
        s += abs(c) * power
        power *= az
    return max(s, 1.0)


def residual_scales(sizes: np.ndarray, az: np.ndarray) -> np.ndarray:
    """residual_scale of each row of sizes, the |c| of a row of coefficients
    (ascending), at the matching |z| of az, bit for bit."""
    s, power = sizes[:, 0].copy(), None
    for c in sizes[:, 1:].T:
        power = az if power is None else power * az
        s += c * power
    return np.maximum(s, 1.0)


def _passes_gate(coeffs, w: complex) -> bool:
    """|p(w)| within the backward-stable 1e-10 residual gate at w."""
    return abs(poly_eval(coeffs, w)) <= 1e-10 * residual_scale(coeffs, w)


def newton_polish(coeffs, w: complex, max_iter: int = 40):
    """Newton iteration on p; returns the refined root or None on stall.
    It stops at a step within 1e-15 (1 + |w|), or at the rounding floor: after
    a step no smaller than the one before it, when w passes _passes_gate,
    the gate a run that reaches max_iter faces too. Each iteration is
    poly_eval_pair's Horner pass, inline."""
    last = cmath.inf
    for _ in range(max_iter):
        p = dp = 0j
        for c in reversed(coeffs):
            dp = dp * w + p
            p = p * w + c
        if dp == 0:
            return None
        step = p / dp
        w = w - step
        size = abs(step)
        if size <= 1e-15 * (1.0 + abs(w)) or size >= last and _passes_gate(coeffs, w):
            return w
        last = size
    return w if _passes_gate(coeffs, w) else None


def _pass_gates(cs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """_passes_gate of each row of cs at the matching entry of x."""
    return np.abs(poly_evals(cs, x)) <= 1e-10 * residual_scales(np.abs(cs), np.abs(x))


def newton_polish_pairs(coeffs: np.ndarray, w: np.ndarray, max_iter: int = 40) -> np.ndarray:
    """newton_polish of each row of coeffs from the matching entry of w, all
    at once, with the same stopping rule entry by entry; NaN where
    newton_polish returns None. Each entry keeps its last |step|, and only
    the entries whose step did not shrink face the gate. The entries still
    iterating are gathered only when some stop, so while none stops each
    iteration runs on the arrays as given."""
    w = np.array(w, dtype=complex)
    at, cs, x = np.arange(len(w)), coeffs, w  # the entries still iterating
    last = np.inf  # each entry's last |step| once there is one
    with np.errstate(divide="ignore", invalid="ignore"):  # a stalled entry ends as NaN
        for _ in range(max_iter):
            if not len(at):
                return w
            p, dp = poly_eval_pairs(cs, x)
            stalled = dp == 0
            step = p / dp
            x = x - step
            size = np.abs(step)
            stop = stalled | (size <= 1e-15 * (1.0 + np.abs(x)))
            stuck = size >= last
            if stuck.any():
                stop[stuck] |= _pass_gates(cs[stuck], x[stuck])
            last = size
            if stop.any():
                x[stalled] = np.nan
                w[at[stop]] = x[stop]
                go = ~stop
                at, cs, x, last = at[go], cs.compress(go, axis=0), x[go], last[go]
    w[at] = np.where(_pass_gates(cs, x), x, np.nan)
    return w


def polish_roots(coeffs, roots) -> list[complex]:
    """newton_polish each root; a root where Newton stalls is kept as given."""
    polished = []
    for r in roots:
        p = newton_polish(coeffs, r)
        polished.append(r if p is None else p)
    return polished


def _trim(coeffs) -> list[complex]:
    """coeffs without their zero leading coefficients; RootFindingFailure
    when a coefficient, or one over the leading one (an entry of the
    companion matrix), is not finite."""
    cs = [complex(c) for c in coeffs]
    if not np.isfinite(cs).all():
        raise RootFindingFailure(f"non-finite polynomial coefficient in {cs}")
    while cs and cs[-1] == 0:
        cs.pop()
    if cs and not all(cmath.isfinite(c / cs[-1]) for c in cs):
        raise RootFindingFailure(f"the companion matrix of {cs} leaves float range")
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


def merge_double_roots(coeffs, roots, radius: float, eps: float,
                       squarefree: Callable[[], bool] = lambda: False) -> list[complex]:
    """roots with each isolated double root given once.

    A double root is fixed by a residual at eps only to about sqrt(eps), so
    the root finder returns it as two points up to that far apart, by an
    amount that depends on round-off. Two roots within ``radius`` of each
    other and of no third root are one double root m when Newton on p' from
    their midpoint converges and |p(m)| passes the eps residual gate; m takes
    the place of the first. Three or more roots within ``radius`` of each
    other are kept as given. squarefree is asked only when there is such a
    pair, and when it proves that p has no multiple root none is merged.
    """
    near = [[j for j, s in enumerate(roots) if j != i and abs(r - s) <= radius]
            for i, r in enumerate(roots)]
    pairs = {i: js[0] for i, js in enumerate(near)
             if len(js) == 1 and js[0] > i and near[js[0]] == [i]}
    if not pairs or squarefree():
        return list(roots)
    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]
    merged, dropped = [], set()
    for i, r in enumerate(roots):
        if i in dropped:
            continue
        if i in pairs:
            j = pairs[i]
            m = newton_polish(dcoeffs, (r + roots[j]) / 2)
            if m is not None and abs(poly_eval(coeffs, m)) <= eps * residual_scale(coeffs, m):
                merged.append(m)
                dropped.add(j)
                continue
        merged.append(r)
    return merged
