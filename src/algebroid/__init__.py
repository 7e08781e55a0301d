"""Symbolic-numeric toolkit for k-valued algebroid functions.

An algebroid function W(z) is defined by a monic degree-k polynomial
equation in W with rational-function coefficients. This package classifies
its singular elements through numeric Puiseux expansions, computes residues,
integrates along paths on the function's Riemann surface, audits path
independence, and reconstructs the defining equation of the antiderivative.

Importing the package imports none of its modules: each public name is
looked up in its home module (_EXPORTS) on first use, so a process that
runs one CLI subcommand loads only the layers that subcommand reaches.
"""

import importlib

_EXPORTS = {
    "antideriv": ("AntiderivativeModel", "SheetRouter", "branch_integrals_at",
                  "build_antiderivative", "constant_family", "fit_rational",
                  "symmetric_coeffs", "verify_antiderivative"),
    "config": ("DEFAULT", "Tolerances"),
    "exactalg": ("GaussianRational", "Poly", "RatFunc", "discriminant", "laurent_order",
                 "parse_coefficient", "resultant_w"),
    "paths": ("Arc", "BasePath", "Line", "SurfacePoint", "loop_path", "polyline", "reverse"),
    "puiseux": ("PuiseuxExpansion", "cycle_structure", "growth_bound", "puiseux_expand",
                "residue", "residue_by_contour", "singular_elements"),
    "quad": ("AuditReport", "IntegralElement", "SurfaceIntegralResult", "c_ab",
             "closed_loop_integral", "fiber_integral", "integral_element_continuation_check",
             "path_independence_audit", "residue_theorem_check", "surface_integral"),
    "surface": ("CriticalSet", "DefiningEquation", "Fiber", "SheetPermutation",
                "critical_points", "fiber_at", "irreducibility_check", "monodromy"),
    "tracker": ("TrackResult", "continue_branch"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
