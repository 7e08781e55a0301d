"""Seeded inputs for the benchmark workloads.

Every workload is a *cycle*: a fixed list of slots, each a template (an
equation family and a CLI subcommand) whose coefficients the seed chooses.
A run draws fresh cycles from one seeded generator, so every run holds the
same mix of templates whatever the seed, and a template's cost depends
little on its coefficients. The slots are chosen so that the median and the
tail percentile of a run fall inside a class of similar-cost slots, not on
the boundary between two. Named known-defect cases sit in every cycle at a
fixed share; they stay unsolved until the defect is fixed (ROADMAP open
items 2 and 4).

Only the generated problem files reach the program; the data in
``Case.expect`` is what the checker compares the report against.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

@dataclass
class Case:
    """One operation: ``algebroid <command> <problem file> <flags...>``."""

    slot: str
    command: str
    flags: list
    problem: dict
    expect: dict = field(default_factory=dict)
    # Named known defect: the check is expected to fail on the seed commit.
    defect: Optional[str] = None

    def argv(self, problem_path: str) -> list:
        return [self.command, problem_path, *self.flags]


# --- Gaussian-integer polynomials ----------------------------------------------
# A polynomial is a list of complex coefficients, ascending in z, whose real
# and imaginary parts are small-denominator rationals (mostly integers).


def _gauss(rng: random.Random, span: int = 3, nonzero: bool = False) -> complex:
    while True:
        v = complex(rng.randint(-span, span), rng.randint(-span, span))
        if v != 0 or not nonzero:
            return v


def _random_poly(rng: random.Random, deg: int) -> list:
    """Degree exactly ``deg``, small Gaussian-integer coefficients."""
    return [_gauss(rng) for _ in range(deg)] + [_gauss(rng, nonzero=True)]


def _distinct_points(rng: random.Random, count: int, span: int,
                     avoid=(), min_gap: float = 1.0) -> list:
    out: list = []
    while len(out) < count:
        p = _gauss(rng, span)
        if all(abs(p - q) >= min_gap for q in list(out) + list(avoid)):
            out.append(p)
    return out


def _from_roots(roots, lead: complex = 1) -> list:
    """Ascending coefficients of lead * prod(z - r)."""
    desc = np.poly(np.asarray(roots, dtype=complex)) if len(roots) else np.ones(1)
    return [complex(c) * lead for c in desc[::-1]]


def _fmt_num(x: float) -> str:
    q = Fraction(x).limit_denominator(64)
    if float(q) != x:
        raise ValueError(f"coefficient {x} is not a small-denominator rational")
    return str(q)


def _fmt_gauss(c: complex) -> str:
    re, im = _fmt_num(c.real), _fmt_num(c.imag)
    if c.imag == 0:
        return f"({re})"
    if c.real == 0:
        return f"({im}*i)"
    return f"({re}+{im}*i)".replace("+-", "-")


def _fmt_poly(cs) -> str:
    terms = []
    for power, c in enumerate(cs):
        if c == 0:
            continue
        coef = _fmt_gauss(complex(c))
        terms.append(coef if power == 0 else f"{coef}*z^{power}")
    return " + ".join(terms) if terms else "0"


def _fmt_ratfunc(num, den) -> str:
    if len(den) == 1 and den[0] == 1:
        return _fmt_poly(num)
    return f"({_fmt_poly(num)})/({_fmt_poly(den)})"


def _cpx(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _flag(name: str, z: complex) -> str:
    # "--name=RE,IM" keeps argparse from reading a leading minus as a flag
    return f"--{name}={float(z.real)!r},{float(z.imag)!r}"


def _equation(coeffs) -> dict:
    """Problem data for the checker: A_1..A_k as (num, den) coefficient lists."""
    return {"coeffs": [[_cpx_list(n), _cpx_list(d)] for n, d in coeffs]}


def _cpx_list(cs) -> list:
    return [_cpx(complex(c)) for c in cs]


def _problem(coeffs, **extra) -> dict:
    prob = {"k": len(coeffs), "coefficients": [_fmt_ratfunc(n, d) for n, d in coeffs]}
    prob.update(extra)
    return prob


ONE = [1 + 0j]


# --- critical ----------------------------------------------------------------
# Exact layer: building the DefiningEquation runs discriminant -> resultant_w.
# Random k=3/4 equations, polynomial or with linear/quadratic denominators,
# plus planted k=2 equations whose critical set is known exactly.


def _critical_random(rng, slot: str, k: int, deg: int, den_deg: int) -> Case:
    """Every A_j of degree deg; with den_deg, A_(k-1) and A_k get denominators.

    The shape is fixed per slot so that the exact work, and with it the time,
    depends little on the seed.
    """
    coeffs = []
    poles: list = []
    for j in range(k):
        num = _random_poly(rng, deg)
        den = ONE
        if den_deg and j >= k - 2:
            roots = _distinct_points(rng, den_deg, 2, avoid=poles)
            # a numerator vanishing at a root would cancel the pole
            while min(abs(np.polyval(num[::-1], r)) for r in roots) < 0.5:
                num = _random_poly(rng, deg)
            poles.extend(roots)
            den = _from_roots(roots)
        coeffs.append((num, den))
    expect = {"kind": "random", **_equation(coeffs), "poles": [_cpx(p) for p in poles]}
    return Case(slot, "critical", [], _problem(coeffs), expect)


def _critical_planted_radical(rng, slot: str) -> Case:
    """W^2 - c (z-r1)(z-r2)(z-r3)/(z-p): zeros r_i, pole p, nothing else."""
    roots = _distinct_points(rng, 3, 3)
    (pole,) = _distinct_points(rng, 1, 3, avoid=roots)
    c = _gauss(rng, 2, nonzero=True)
    num = [-x for x in _from_roots(roots, c)]
    coeffs = [([0j], ONE), (num, _from_roots([pole]))]
    expect = {
        "kind": "planted", **_equation(coeffs), "poles": [_cpx(pole)],
        "points": [[_cpx(r), "discriminant-zero"] for r in roots]
        + [[_cpx(pole), "coefficient-pole"]],
    }
    return Case(slot, "critical", [], _problem(coeffs), expect)


def _critical_planted_quadratic(rng, slot: str) -> Case:
    """W^2 + A1 W + A2 with A1^2 - 4 A2 = c prod(z - r_i) planted."""
    roots = _distinct_points(rng, 4, 3)
    c = _gauss(rng, 2, nonzero=True)
    a1 = _random_poly(rng, 2)
    a2 = np.polysub(np.convolve(a1, a1)[::-1], _from_roots(roots, c)[::-1]) / 4
    a2 = list(np.trim_zeros(a2, "f")[::-1])
    coeffs = [(a1, ONE), (a2, ONE)]
    expect = {
        "kind": "planted", **_equation(coeffs), "poles": [],
        "points": [[_cpx(r), "discriminant-zero"] for r in roots],
    }
    return Case(slot, "critical", [], _problem(coeffs), expect)


def _critical_defect(slot: str, coeffs, points) -> Case:
    expect = {"kind": "planted", **_equation(coeffs), "poles": [],
              "points": [[_cpx(p), "discriminant-zero"] for p in points]}
    return Case(slot, "critical", [], _problem(coeffs), expect,
                defect="repeated discriminant root (ROADMAP item 2)")


def critical_cycle(rng: random.Random) -> list:
    """16 slots. Costs at the commit that defined the benchmark (one core of
    a 2-vCPU Intel Xeon, quiet host): planted and k=3 ~0.01-0.09 s, k=4
    polynomial ~0.2 s (the median class), k=4 with denominators ~0.45-0.8 s
    (the tail class), two defects.
    """
    zero = ([0j], ONE)
    # W^2 - (z-1)^4 (z+2) and W^3 - z^2 (z-1)^3: the discriminant numerator has
    # a repeated root, and root finding scatters it into several fake points.
    quartic = [-c for c in _from_roots([1, 1, 1, 1, -2])]
    quintic = [-c for c in _from_roots([0, 0, 1, 1, 1])]
    return [
        _critical_random(rng, "k4-deg3-poly-a", 4, 3, 0),
        _critical_planted_radical(rng, "planted-k2-pole"),
        _critical_random(rng, "k4-deg2-lin-den-a", 4, 2, 1),
        _critical_random(rng, "k3-deg2-poly", 3, 2, 0),
        _critical_random(rng, "k4-deg3-poly-b", 4, 3, 0),
        _critical_random(rng, "k3-deg1-lin-den", 3, 1, 1),
        _critical_defect("defect-k2-quartic-root", [zero, (quartic, ONE)], [1, -2]),
        _critical_random(rng, "k4-deg2-lin-den-b", 4, 2, 1),
        _critical_random(rng, "k4-deg3-poly-c", 4, 3, 0),
        _critical_planted_quadratic(rng, "planted-k2-disc"),
        _critical_random(rng, "k4-deg1-quad-den", 4, 1, 2),
        _critical_random(rng, "k3-deg3-poly", 3, 3, 0),
        _critical_random(rng, "k4-deg3-poly-d", 4, 3, 0),
        _critical_random(rng, "k3-deg3-lin-den", 3, 3, 1),
        _critical_defect("defect-k3-double-roots", [zero, zero, (quintic, ONE)], [0, 1]),
        _critical_random(rng, "k4-deg2-lin-den-c", 4, 2, 1),
    ]


# --- independent numerics (numpy only) -------------------------------------------


def fibers(coeffs, zs) -> np.ndarray:
    """Roots of W^k + A_1 W^(k-1) + ... + A_k over every z, shape (len(zs), k).

    ``coeffs`` lists A_1..A_k as (numerator, denominator) coefficient lists,
    ascending in z; the roots are companion-matrix eigenvalues.
    """
    zs = np.asarray(zs, dtype=complex)
    a = [np.polyval(np.asarray(num)[::-1], zs) / np.polyval(np.asarray(den)[::-1], zs)
         for num, den in coeffs]
    k = len(a)
    comp = np.zeros((len(zs), k, k), dtype=complex)
    comp[:, 0, :] = -np.array(a).T
    for i in range(1, k):
        comp[:, i, i - 1] = 1.0
    return np.linalg.eigvals(comp)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def line_integral(coeffs, z0: complex, w0: complex, z1: complex) -> tuple:
    """(end value, integral of w dz) for the root w0 continued along z0 -> z1.

    Composite 16-point Gauss-Legendre; the root is followed by nearest
    matching through the ordered nodes, refusing ambiguous matches.
    """
    for panels in (64, 256, 1024):
        edges = np.linspace(0.0, 1.0, panels + 1)
        ts = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * _GL_X
                             for a, b in zip(edges[:-1], edges[1:])] + [np.ones(1)])
        roots = fibers(coeffs, z0 + (z1 - z0) * ts)
        w, values = w0, []
        for rs in roots:
            dist = np.abs(rs - w)
            order = np.argsort(dist)
            if dist[order[0]] > 0.25 * dist[order[1]]:
                break
            w = complex(rs[order[0]])
            values.append(w)
        else:
            weights = np.tile(_GL_W, panels) * 0.5 / panels
            total = complex(np.dot(weights, values[:-1])) * (z1 - z0)
            return values[-1], total
    raise ValueError("segment passes too close to a critical point")


# --- periods -------------------------------------------------------------------
# Numeric continuation: cycle structure (whole-fiber monodromy), Puiseux
# sampling and contour residues at every critical point, and the
# path-independence audit. Polynomial coefficients, so every residue is zero.


def _k2_random(rng, deg1: int) -> tuple:
    """W^2 + A1 W + A2 whose critical set, the roots of A1^2 - 4 A2, is 2*deg1
    points at least 0.5 apart.

    A double root would make the equation reducible (two sheets crossing, no
    branch point), which is the known repeated-root defect, not a period test.
    """
    while True:
        a1 = _random_poly(rng, deg1)
        a2 = _random_poly(rng, 2)
        disc = np.polysub(np.convolve(a1[::-1], a1[::-1]), 4 * np.asarray(a2[::-1]))
        crit = np.roots(np.trim_zeros(disc, "f"))
        gaps = [abs(a - b) for i, a in enumerate(crit) for b in crit[i + 1:]]
        if len(crit) == 2 * deg1 and min(gaps) >= 0.5:
            return [(a1, ONE), (a2, ONE)], crit


def _cubic_critical(p, q) -> np.ndarray:
    """Critical set of W^3 + p W + q: roots of -4 p^3 - 27 q^2."""
    pd, qd = np.asarray(p[::-1]), np.asarray(q[::-1])
    disc = np.polysub(-4 * np.convolve(np.convolve(pd, pd), pd), 27 * np.convolve(qd, qd))
    return np.roots(np.trim_zeros(disc, "f"))


def _k3_random(rng) -> tuple:
    """W^3 + p W + q with p, q taken at z/2.

    Critical points are drawn at least 2.3 apart, so the default Puiseux
    radius is the cap 1.0 (see ``puiseux.default_radius``).
    """
    while True:
        p = [x / 2 ** n for n, x in enumerate(_random_poly(rng, 1))]
        q = [x / 2 ** n for n, x in enumerate(_random_poly(rng, 2))]
        crit = _cubic_critical(p, q)
        gaps = [abs(a - b) for i, a in enumerate(crit) for b in crit[i + 1:]]
        if min(gaps) >= 2.3 and max(abs(crit)) <= 6:
            return [([0j], ONE), (p, ONE), (q, ONE)], crit


def _periods_residues(slot: str, coeffs, crit, defect=None) -> Case:
    expect = {**_equation(coeffs), "points": [_cpx(c) for c in crit]}
    return Case(slot, "residues", ["--contour-check"], _problem(coeffs), expect, defect)


def _periods_audit(rng, slot: str, coeffs, crit) -> Case:
    """Two homotopic paths between germs over z0 and z1, outside the critical disc.

    The chord z0-z1 and the detour through a waypoint bound a triangle that
    lies outside the radius holding every critical point.
    """
    reach = 1.5 * float(max(abs(crit))) + 1.5
    alpha = rng.uniform(0.0, 2.0 * math.pi)
    z0 = reach * cmath.exp(1j * alpha)
    z1 = reach * cmath.exp(1j * (alpha + 0.8))
    wp = 1.45 * reach * cmath.exp(1j * (alpha + 0.4))
    w0 = complex(sorted(fibers(coeffs, [z0])[0], key=lambda w: (w.real, w.imag))[0])
    w1, c_direct = line_integral(coeffs, z0, w0, z1)
    problem = _problem(
        coeffs,
        base={"z": _cpx(z0), "w": _cpx(w0)},
        paths={"direct": [{"line": [_cpx(z0), _cpx(z1)]}],
               "detour": [{"line": [_cpx(z0), _cpx(wp)]}, {"line": [_cpx(wp), _cpx(z1)]}]},
    )
    flags = [_flag("target-z", z1), _flag("target-w", w1), "--paths=direct,detour"]
    expect = {**_equation(coeffs), "points": [_cpx(c) for c in crit],
              "c_direct": _cpx(c_direct)}
    return Case(slot, "audit", flags, problem, expect)


def _annulus_defect(slot: str, p, q) -> Case:
    coeffs = [([0j], ONE), (p, ONE), (q, ONE)]
    return _periods_residues(slot, coeffs, _cubic_critical(p, q),
                             defect="AnnulusTooWide on a k=3 cycle (Puiseux radius)")


def periods_cycle(rng: random.Random) -> list:
    """10 slots alternating residues and audit. Costs at the commit that
    defined the benchmark (one core of a 2-vCPU Intel Xeon, quiet host):
    k=2 with two critical points ~0.4-0.5 s (the median class), k=2 with four
    ~1 s (the tail class), k=3 ~1.8 s, and one named AnnulusTooWide case.
    """
    def k2(deg1):
        return _k2_random(rng, deg1)

    return [
        _periods_residues("res-k2-2pts-a", *k2(1)),
        _periods_audit(rng, "audit-k2-2pts-a", *k2(1)),
        _periods_residues("res-k2-4pts", *k2(2)),
        _periods_audit(rng, "audit-k2-2pts-b", *k2(1)),
        _periods_residues("res-k2-2pts-b", *k2(1)),
        _periods_audit(rng, "audit-k2-4pts", *k2(2)),
        _periods_residues("res-k3", *_k3_random(rng)),
        _periods_audit(rng, "audit-k2-2pts-c", *k2(1)),
        # A random depressed cubic whose critical points are closer than 2.2:
        # such cubics often fail the two-radius Puiseux consistency check.
        _annulus_defect("defect-annulus", [2j, -3], [-3 - 1j, 2 + 3j, 1 + 1j]),
        _periods_audit(rng, "audit-k2-2pts-d", *k2(1)),
    ]


# --- antiderivative ----------------------------------------------------------------
# The tracker under adaptive quadrature: SheetRouter loops, branch integrals
# along long connectors to every grid point, and the rational fit. W^k =
# c (z-a)^j has the closed-form antiderivative M^k = c (k/(j+k))^k (z-a)^(j+k)
# when the constant is M at the base germ. The two refusal equations stop
# after the single-valuedness audit: loops only, no grid.


def _power_family(rng, slot: str, k: int, j: int, a: complex, shift: bool,
                  defect=None) -> Case:
    c = _gauss(rng, 2, nonzero=True)
    z0 = a + rng.choice([2, 3]) * cmath.exp(1j * rng.choice([0.0, 0.5, 1.0]))
    w0 = c ** (1 / k) * cmath.exp(j / k * cmath.log(z0 - a))
    m0 = w0 * (z0 - a) * k / (j + k)
    num, den = ([-x for x in _from_roots([a] * j, c)], ONE) if j > 0 else \
        ([-c], _from_roots([a] * -j))
    coeffs = [([0j], ONE)] * (k - 1) + [(num, den)]
    # M^k + B_k = 0 with B_k = -c (k/(j+k))^k (z-a)^(j+k), a polynomial here
    b_k = [-x for x in _from_roots([a] * (j + k), c * (k / (j + k)) ** k)]
    want = [[0j]] * (k - 1) + [b_k]
    flags = [_flag("constant", m0)]
    expect = {"coefficients": [_cpx_list(p) for p in want]}
    command = "antiderivative"
    if shift:
        s = _gauss(rng, 2, nonzero=True)
        flags.append(_flag("shift", s))
        # (X - s)^k + B_k: binomial terms, with B_k added to the constant one
        fam = [[math.comb(k, i) * (-s) ** i] for i in range(1, k + 1)]
        fam[-1] = list(np.polyadd(np.asarray(b_k[::-1]), [fam[-1][0]])[::-1])
        expect["family_coefficients"] = [_cpx_list(p) for p in fam]
        command = "family"
    problem = _problem(coeffs, base={"z": _cpx(z0), "w": _cpx(w0)})
    return Case(slot, command, flags, problem, expect, defect)


def _refusal(rng, slot: str, n_roots: int) -> Case:
    """W^2 - prod(z - r_i): a period at infinity (n=2) or genus 1 (n=3)."""
    roots = _distinct_points(rng, n_roots, 2)
    num = [-x for x in _from_roots(roots)]
    z0 = complex(max(abs(r) for r in roots) + 2.0, 0.5)
    w0 = cmath.sqrt(complex(np.polyval(_from_roots(roots)[::-1], z0)))
    problem = _problem([([0j], ONE), (num, ONE)], base={"z": _cpx(z0), "w": _cpx(w0)})
    return Case(slot, "antiderivative", [], problem, {"refusal": "SingleValuednessViolation"})


def antiderivative_cycle(rng: random.Random) -> list:
    """8 slots. Costs at the commit that defined the benchmark (one core of
    a 2-vCPU Intel Xeon, quiet host): refusals ~0.3 and ~0.8 s, k=2 fits
    ~1.5-2 s (the median and tail class), the k=3 fit ~5.5 s, one defect.
    """
    def shifted() -> complex:
        return _gauss(rng, 2, nonzero=True)

    return [
        _power_family(rng, "k2-j1", 2, 1, shifted(), shift=False),
        _refusal(rng, "refuse-2-roots", 2),
        _power_family(rng, "k2-j-1-family", 2, -1, shifted(), shift=True),
        _power_family(rng, "k3-j1-origin", 3, rng.choice([1, -1]), 0j, shift=False),
        _power_family(rng, "k2-j-1", 2, -1, shifted(), shift=False),
        _refusal(rng, "refuse-3-roots", 3),
        _power_family(rng, "k2-j1-family", 2, 1, shifted(), shift=True),
        # W^3 - c (z-a), a != 0: the discriminant c^2 (z-a)^2 has a double root
        # that root finding splits, and routing a loop around it fails.
        _power_family(rng, "defect-k3-shifted", 3, 1, shifted(), shift=False,
                      defect="repeated discriminant root (ROADMAP item 2)"),
    ]


CYCLES = {
    "critical": critical_cycle,
    "periods": periods_cycle,
    "antiderivative": antiderivative_cycle,
}
WORKLOADS = tuple(CYCLES)
