"""Downlink coverage probability and area spectral efficiency versus
base-station density, under bounded and unbounded pathloss laws, with
closed-form bounds, scaling envelopes, optimal-density solvers, and an
independent Monte Carlo cross-validator.  Helpers that the quick start,
the command line and the paper's checks do not use live in the submodules."""

from .analytic import (
    AseValue,
    BracketError,
    CpValue,
    QuadratureError,
    UnsupportedPathlossError,
    ase,
    ase_lower,
    ase_upper,
    cp_for_model,
    cp_g1_closed,
    cp_g1_lower,
    cp_g1_quadrature,
    cp_g1_upper,
    cp_g2,
    cp_g2_lower,
    cp_g2_upper,
    cp_upm,
    optimal_density_closed,
    optimal_density_numeric,
    scaling_envelope_check,
)
from .mc import SimEstimate, SimParams, estimate_cp, window_radius
from .model import NetworkConfig, PathlossModel
from .specfun import f1, f2, f3

__all__ = [
    "AseValue", "BracketError", "CpValue", "NetworkConfig", "PathlossModel",
    "QuadratureError", "SimEstimate", "SimParams", "UnsupportedPathlossError",
    "ase", "ase_lower", "ase_upper", "cp_for_model", "cp_g1_closed", "cp_g1_lower",
    "cp_g1_quadrature", "cp_g1_upper", "cp_g2", "cp_g2_lower", "cp_g2_upper",
    "cp_upm", "estimate_cp", "f1", "f2", "f3", "optimal_density_closed",
    "optimal_density_numeric", "scaling_envelope_check", "window_radius",
]
