"""Checks a CLI report against what is known about its case.

``check`` returns None for a checked answer, and otherwise a short reason:
the error type the CLI reported, or ``check:<what>`` for a report that came
back but is wrong. Everything here uses numpy only, never the package under
test, so a wrong answer cannot vouch for itself.
"""

from __future__ import annotations

import math
import re
from typing import Optional

import numpy as np

from workloads import fibers

# Relative tolerances. Reported critical points are Newton-polished roots of
# the exact discriminant numerator, good to far better than ZERO_RADIUS; the
# fiber near a pole is too ill-conditioned to test Psi(., z) for a double
# root directly, so the test counts discriminant zeros inside a small circle.
ZERO_RADIUS = 1e-5
POINT_MATCH = 1e-6
RESIDUE_TOL = 1e-7
AUDIT_TOL = 1e-7
PERIOD_TOL = 1e-6
FIT_TOL = 1e-8
DERIVATIVE_TOL = 1e-8
COEFF_TOL = 1e-12


def check(case, report: dict) -> Optional[str]:
    expect = case.expect
    refusal = expect.get("refusal")
    if "error" in report:
        kind = str(report["error"].get("type"))
        return None if kind == refusal else kind
    if refusal is not None:
        return "check:no-refusal"
    results = report.get("results")
    if not isinstance(results, dict):
        return "check:malformed-report"
    try:
        return _CHECKS[case.command](expect, results)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError,
            np.linalg.LinAlgError):
        return "check:malformed-report"


# --- numerics ---------------------------------------------------------------


def _poly(pairs) -> np.ndarray:
    return np.array([complex(re_, im) for re_, im in pairs], dtype=complex)


def _discriminant(coeffs, zs: np.ndarray) -> np.ndarray:
    """prod_(i<j) (w_i - w_j)^2 over the fiber at every z."""
    w = fibers([(_poly(num), _poly(den)) for num, den in coeffs], zs)
    k = w.shape[1]
    out = np.ones(len(zs), dtype=complex)
    for i in range(k):
        for j in range(i + 1, k):
            out *= (w[:, i] - w[:, j]) ** 2
    return out


def _winding(coeffs, center: complex, radius: float, n: int = 1024) -> int:
    """Zeros minus poles of the discriminant inside a circle (argument principle)."""
    while True:
        zs = center + radius * np.exp(2j * math.pi * np.arange(n + 1) / n)
        d = _discriminant(coeffs, zs)
        steps = np.angle(d[1:] / d[:-1])
        if np.max(np.abs(steps)) < 1.0 or n >= 1 << 15:
            return int(round(float(np.sum(steps)) / (2 * math.pi)))
        n *= 2


def _matches(got, want, tol: float) -> bool:
    """Same multiset of points (and tags) up to tol."""
    if len(got) != len(want):
        return False
    left = list(want)
    for z, tag in got:
        hit = next((i for i, (w, t) in enumerate(left) if t == tag and abs(z - w) <= tol), None)
        if hit is None:
            return False
        left.pop(hit)
    return True


_EXPR = re.compile(r"^[0-9zi+\-*/^(). ]*$")


def _eval_coefficient(text: str, z: complex) -> complex:
    """Value of a reported coefficient such as ``(-4/9)*z^3 + (8/3*i)*z``."""
    if not _EXPR.match(text):
        raise ValueError(f"unexpected coefficient text {text!r}")
    expr = text.replace("^", "**").replace("i", "1j")
    return complex(eval(expr, {"__builtins__": {}}, {"z": z}))  # noqa: S307 - validated above


# --- per command ---------------------------------------------------------------


def _check_critical(expect, results) -> Optional[str]:
    coeffs = expect["coeffs"]
    points = [(complex(*p["location"]), p["kind"]) for p in results["points"]]
    poles = [complex(*p) for p in expect["poles"]]
    scale = max([1.0] + [abs(z) for z, _ in points] + [abs(p) for p in poles])
    marks = [z for z, _ in points] + poles
    for z, kind in points:
        if kind == "discriminant-zero":
            gap = min([abs(z - q) for q in marks if q != z] + [scale])
            if _winding(coeffs, z, min(ZERO_RADIUS * scale, 0.3 * gap), n=64) < 1:
                return "check:not-a-discriminant-zero"
        elif kind in ("coefficient-pole", "both"):
            if not any(abs(z - p) <= POINT_MATCH * scale for p in poles):
                return "check:not-a-pole"
        else:
            return "check:unknown-kind"
    if "points" in expect:
        want = [(complex(*p), kind) for p, kind in expect["points"]]
        return None if _matches(points, want, POINT_MATCH * scale) else "check:wrong-critical-set"
    for p in poles:
        if not any(abs(z - p) <= POINT_MATCH * scale and k != "discriminant-zero"
                   for z, k in points):
            return "check:missing-pole"
    # Discriminant zeros away from the poles: winding on a large circle minus
    # the winding on small circles about each pole.
    zeros = _winding(coeffs, 0j, 4.0 * (1.0 + scale))
    # A discriminant zero can sit within 1e-5 of a pole; the small circle
    # must stay inside the nearest reported point other than the pole itself.
    for p in poles:
        gap = min([abs(p - q) for q in marks if abs(p - q) > 1e-12 * scale] + [1.0])
        zeros -= _winding(coeffs, p, 0.3 * gap)
    found = sum(1 for _, kind in points if kind == "discriminant-zero")
    return None if found == zeros else "check:wrong-number-of-points"


def _check_residues(expect, results) -> Optional[str]:
    k = len(expect["coeffs"])
    centers = results["centers"]
    got = [(complex(*c["center"]), "") for c in centers]
    want = [(complex(*p), "") for p in expect["points"]]
    scale = max([1.0] + [abs(z) for z, _ in want])
    if not _matches(got, want, POINT_MATCH * scale):
        return "check:wrong-critical-set"
    for center in centers:
        sheets = sorted(s for cyc in center["cycles"] for s in cyc["sheets"])
        if sheets != list(range(k)):
            return "check:cycles-not-a-partition"
        for cyc in center["cycles"]:
            if cyc["m"] != len(cyc["sheets"]):
                return "check:cycle-length"
            series = complex(*cyc["residue"])
            contour = complex(*cyc["contour_residue"])
            if abs(series - contour) > RESIDUE_TOL * max(1.0, abs(series)):
                return "check:contour-residue-mismatch"
            # polynomial coefficients: every branch is bounded at finite points
            if abs(series) > RESIDUE_TOL:
                return "check:nonzero-residue"
    return None


def _check_audit(expect, results) -> Optional[str]:
    values = [complex(*v) for v in results["c_values"]]
    if len(values) != 2:
        return "check:wrong-number-of-paths"
    size = max(1.0, abs(expect["c_direct"][0]) + abs(expect["c_direct"][1]))
    if abs(values[0] - complex(*expect["c_direct"])) > PERIOD_TOL * size:
        return "check:wrong-integral"
    if abs(values[0] - values[1]) > AUDIT_TOL * size:
        return "check:paths-disagree"
    if results["verdict"] != "independent":
        return "check:verdict"
    for rc in results["residue_data"]:
        residue = complex(*rc["residue"])
        if abs(residue) > RESIDUE_TOL:
            return "check:nonzero-residue"
        if abs(complex(*rc["loop_period"]) - 2j * math.pi * residue) > PERIOD_TOL:
            return "check:loop-period"
    return None


def _same_coefficients(texts, want, probes) -> bool:
    if len(texts) != len(want):
        return False
    for text, poly in zip(texts, want):
        for z in probes:
            expected = complex(np.polyval(_poly(poly)[::-1], z))
            if abs(_eval_coefficient(text, z) - expected) > COEFF_TOL * (1.0 + abs(expected)):
                return False
    return True


_PROBES = (0.5 + 0.25j, -1.25 + 0.75j, 2.0 - 1.0j)


def _check_antiderivative(expect, results) -> Optional[str]:
    diag = results["diagnostics"]
    if not _same_coefficients(results["coefficients"], expect["coefficients"], _PROBES):
        return "check:wrong-coefficients"
    if "family_coefficients" in expect and not _same_coefficients(
            results["family_coefficients"], expect["family_coefficients"], _PROBES):
        return "check:wrong-family"
    if max(diag["residuals"]) >= FIT_TOL:
        return "check:fit-residual"
    if diag.get("derivative_defect") is None or diag["derivative_defect"] > DERIVATIVE_TOL:
        return "check:derivative-defect"
    return None


_CHECKS = {
    "critical": _check_critical,
    "residues": _check_residues,
    "audit": _check_audit,
    "antiderivative": _check_antiderivative,
    "family": _check_antiderivative,
}
