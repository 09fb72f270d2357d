"""Simulator and verification toolkit for measurement-based state transfer
on nearest-neighbour XX spin chains.

Layers, from cheap to exact:

- chain: coupling profiles, their coupling rates (the coefficient engine's
  one chain input) and the chain Hamiltonian.
- heisenberg: polynomial-cost propagation of evolved end-site operator
  coefficients, and the end-site expectations behind the exact protocol
  on Gaussian mediums (Wick's theorem in an exterior algebra).
- oracle: full 2**n reference engine (states, measurements, fidelity).
- protocol: the initialization-free transfer protocol, exact on small
  chains and, on Gaussian mediums, on long ones, plus its
  operator-identity checks.
- optimize: boundary-coupling search with exact cross-validation.
- cli: `xxqst` command wiring it all together.
"""

__version__ = "0.1.0"

from .chain import (
    CouplingProfile,
    boundary_profile,
    dense_hamiltonian,
    perfect_profile,
)
from .errors import (
    InternalConsistencyError,
    ResourceLimitError,
    ZeroProbabilityError,
)
from .heisenberg import (
    CoefficientTrace,
    CoefficientVector,
    Propagator,
    coefficient_trace,
    estimate_fidelity,
    mirror_propagate,
    propagate,
)
from .oracle import (
    DensityMatrix,
    PauliString,
    StateVector,
    conjugate_operator,
    evolve,
    extract_string_coefficients,
    fidelity,
    measure_site,
    project_site,
    reduced_state,
    string_basis,
    thermal_medium,
)
from .optimize import (
    CrossValidation,
    OptimizationResult,
    RefineResult,
    SweepResult,
    cross_validate,
    optimize_boundary,
    refine,
    refine_time,
    sweep,
)
from .protocol import (
    AXIAL_NAMES,
    REVIVAL_TIME,
    AverageFidelityResult,
    ConditionReport,
    IdentityCheck,
    ProtocolConfig,
    ProtocolResult,
    average_fidelity,
    axial_state,
    bloch_state,
    run_protocol,
    run_protocol_branches,
    verify_protocol_identities,
    verify_transfer_condition,
)

__all__ = [
    "__version__",
    "CouplingProfile",
    "perfect_profile",
    "boundary_profile",
    "dense_hamiltonian",
    "CoefficientVector",
    "CoefficientTrace",
    "Propagator",
    "propagate",
    "mirror_propagate",
    "coefficient_trace",
    "estimate_fidelity",
    "StateVector",
    "DensityMatrix",
    "PauliString",
    "evolve",
    "conjugate_operator",
    "string_basis",
    "extract_string_coefficients",
    "project_site",
    "measure_site",
    "reduced_state",
    "fidelity",
    "thermal_medium",
    "REVIVAL_TIME",
    "AXIAL_NAMES",
    "ProtocolConfig",
    "ProtocolResult",
    "AverageFidelityResult",
    "IdentityCheck",
    "ConditionReport",
    "axial_state",
    "bloch_state",
    "run_protocol",
    "run_protocol_branches",
    "average_fidelity",
    "verify_protocol_identities",
    "verify_transfer_condition",
    "SweepResult",
    "RefineResult",
    "OptimizationResult",
    "CrossValidation",
    "sweep",
    "refine",
    "refine_time",
    "optimize_boundary",
    "cross_validate",
    "InternalConsistencyError",
    "ResourceLimitError",
    "ZeroProbabilityError",
]
