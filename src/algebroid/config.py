"""Numeric tolerances shared across the toolkit.

All operations accept an optional Tolerances instance; DEFAULT is used
otherwise. Instances are frozen so they can key caches.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # Root polishing target, relative to the residual scale of the equation.
    eps_root: float = 1e-12
    # Collision threshold for tracked sheets, relative to the fiber scale.
    delta_sep: float = 1e-9
    # Critical-point clustering radius, relative to the critical-set scale.
    tol_cluster: float = 1e-9
    # Path safety margin = delta_path_factor * critical-set scale.
    delta_path_factor: float = 1e-3
    # Minimum continuation step as a fraction of the segment parameter.
    h_min_frac: float = 1e-10
    # Quadrature acceptance, applied both absolutely and relatively.
    quad_tol: float = 1e-11
    # Puiseux window -n_max..n_max, and the coefficient cutoff: B_n is kept
    # when |B_n| eps^(n/m) exceeds tol_coeff relative to the sampled circle's
    # scale max(1, max|w|).
    n_max: int = 32
    tol_coeff: float = 1e-9
    # Single-valuedness threshold: the largest period of an edge of the sheet
    # graph, relative to max(1, the largest branch value at the base).
    sv_tol: float = 1e-6
    # Rational fit residual target (relative).
    fit_tol: float = 1e-8
    # Path-independence verdict threshold.
    audit_tol: float = 1e-7
    # Zero-residue gate for antiderivative construction (absolute).
    residue_tol: float = 1e-8
    # Germ matching distance as a fraction of the local fiber separation.
    germ_match_frac: float = 0.25

    def replace(self, **kwargs) -> "Tolerances":
        return dataclasses.replace(self, **kwargs)


DEFAULT = Tolerances()
