"""Photon statistics of an asymmetric nonlinear optical coupler.

A linear waveguide evanescently probes a quadratic (second-harmonic)
waveguide; the package evaluates the closed-form first-order solution for
the field-mode coefficients, the second-harmonic photon statistics and
Zeno parameter, and validates everything against an exact truncated
Fock-space propagator.
"""

from .coefficients import (
    ModeCoefficients,
    compute_coefficients,
    compute_h2_prime,
)
from .errors import (
    ExcessiveTruncationLoss,
    InvalidParameters,
    NonConvergence,
    ZenoCouplerError,
)
from .fock import (
    FockStateVector,
    PropagationReport,
    TruncationSpec,
    build_coherent_state,
    mode_expectations,
    oracle_zeno_parameter,
    propagate,
)
from .kernels import KERNEL_BACKEND
from .observables import (
    Classification,
    ZenoSample,
    classify,
    mean_photon_b2,
    mean_photon_b2_uncoupled,
    mode_means,
    zeno_parameter,
    zeno_sample,
)
from .params import CoherentInputs, CouplerParams
from .sweep import (
    AxisSpec,
    OracleValidationReport,
    SweepCell,
    SweepResult,
    SweepSpec,
    find_transitions,
    preset_sweep,
    run_sweep,
    validate_against_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "AxisSpec",
    "Classification",
    "CoherentInputs",
    "CouplerParams",
    "ExcessiveTruncationLoss",
    "FockStateVector",
    "InvalidParameters",
    "KERNEL_BACKEND",
    "ModeCoefficients",
    "NonConvergence",
    "OracleValidationReport",
    "PropagationReport",
    "SweepCell",
    "SweepResult",
    "SweepSpec",
    "TruncationSpec",
    "ZenoCouplerError",
    "ZenoSample",
    "build_coherent_state",
    "classify",
    "compute_coefficients",
    "compute_h2_prime",
    "find_transitions",
    "mean_photon_b2",
    "mean_photon_b2_uncoupled",
    "mode_expectations",
    "mode_means",
    "oracle_zeno_parameter",
    "preset_sweep",
    "propagate",
    "run_sweep",
    "validate_against_oracle",
    "zeno_parameter",
    "zeno_sample",
    "__version__",
]
