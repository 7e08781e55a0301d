"""Symbolic-numeric toolkit for k-valued algebroid functions.

An algebroid function W(z) is defined by a monic degree-k polynomial
equation in W with rational-function coefficients. This package classifies
its singular elements through numeric Puiseux expansions, computes residues,
integrates along paths on the function's Riemann surface, audits path
independence, and reconstructs the defining equation of the antiderivative.
"""

from .antideriv import (
    AntiderivativeModel,
    SheetRouter,
    branch_integrals_at,
    build_antiderivative,
    constant_family,
    fit_rational,
    symmetric_coeffs,
    verify_antiderivative,
)
from .config import DEFAULT, Tolerances
from .exactalg import (
    GaussianRational,
    Poly,
    RatFunc,
    discriminant,
    laurent_order,
    parse_coefficient,
    resultant_w,
)
from .puiseux import (
    PuiseuxExpansion,
    cycle_structure,
    growth_bound,
    puiseux_expand,
    residue,
    residue_by_contour,
    singular_elements,
)
from .quad import (
    AuditReport,
    IntegralElement,
    SurfaceIntegralResult,
    c_ab,
    closed_loop_integral,
    fiber_integral,
    integral_element_continuation_check,
    path_independence_audit,
    residue_theorem_check,
    surface_integral,
)
from .surface import (
    CriticalSet,
    DefiningEquation,
    Fiber,
    SheetPermutation,
    critical_points,
    fiber_at,
    irreducibility_check,
    monodromy,
)
from .tracker import (
    Arc,
    BasePath,
    Line,
    SurfacePoint,
    TrackResult,
    continue_branch,
    loop_path,
    polyline,
    reverse,
)

__all__ = [
    "AntiderivativeModel",
    "Arc",
    "AuditReport",
    "BasePath",
    "CriticalSet",
    "DEFAULT",
    "DefiningEquation",
    "Fiber",
    "GaussianRational",
    "IntegralElement",
    "Line",
    "Poly",
    "PuiseuxExpansion",
    "RatFunc",
    "SheetPermutation",
    "SheetRouter",
    "SurfaceIntegralResult",
    "SurfacePoint",
    "Tolerances",
    "TrackResult",
    "branch_integrals_at",
    "build_antiderivative",
    "c_ab",
    "closed_loop_integral",
    "constant_family",
    "continue_branch",
    "critical_points",
    "cycle_structure",
    "discriminant",
    "fiber_at",
    "fiber_integral",
    "fit_rational",
    "growth_bound",
    "integral_element_continuation_check",
    "irreducibility_check",
    "laurent_order",
    "loop_path",
    "monodromy",
    "parse_coefficient",
    "path_independence_audit",
    "polyline",
    "puiseux_expand",
    "residue",
    "residue_by_contour",
    "residue_theorem_check",
    "resultant_w",
    "reverse",
    "singular_elements",
    "surface_integral",
    "symmetric_coeffs",
    "verify_antiderivative",
]

__version__ = "0.1.0"
