"""Downlink coverage probability and area spectral efficiency versus
base-station density, under bounded and unbounded pathloss laws, with
closed-form bounds, scaling envelopes, optimal-density solvers, and an
independent Monte Carlo cross-validator."""

from .analytic import (
    AseValue,
    BracketError,
    ConsistencyError,
    CpValue,
    QuadratureError,
    QuadratureSpec,
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
    golden_section_max,
    optimal_density_closed,
    optimal_density_numeric,
    scaling_envelope_check,
)
from .mc import (
    Realization,
    SimEstimate,
    SimParams,
    block_generator,
    estimate_ase,
    estimate_cp,
    realization_from_points,
    sample_block,
    sample_network,
    sir_sample,
    window_radius,
)
from .model import (
    DerivedConstants,
    NetworkConfig,
    PathlossModel,
    ServingDistanceDist,
    derived_constants,
    pathloss_gain,
)
from .specfun import HypParams, erfc, erfcx, f1, f2, f3, hyf1, hyf2

__all__ = [
    "AseValue", "BracketError", "ConsistencyError", "CpValue",
    "DerivedConstants", "HypParams", "NetworkConfig", "PathlossModel",
    "QuadratureError", "QuadratureSpec", "Realization", "ServingDistanceDist",
    "SimEstimate", "SimParams", "UnsupportedPathlossError", "ase", "ase_lower",
    "ase_upper", "block_generator",
    "cp_for_model", "cp_g1_closed", "cp_g1_lower", "cp_g1_quadrature",
    "cp_g1_upper", "cp_g2", "cp_g2_lower", "cp_g2_upper", "cp_upm",
    "derived_constants", "erfc", "erfcx", "estimate_ase", "estimate_cp",
    "f1", "f2", "f3", "golden_section_max", "hyf1", "hyf2",
    "optimal_density_closed", "optimal_density_numeric", "pathloss_gain",
    "realization_from_points", "sample_block", "sample_network",
    "scaling_envelope_check", "sir_sample", "window_radius",
]
