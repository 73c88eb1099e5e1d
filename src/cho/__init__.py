"""Coupled harmonic oscillators: normal modes, bound-state conditions,
energy spectra.

The model is H = (1/2) p^T T p + (1/2) x^T V x with T = diag(1/m_i) and
V built from per-site stiffnesses and pair couplings.  Diagonalizing
S = T^(1/2) V T^(1/2) gives the squared mode frequencies; the system is
bound iff S is positive definite, which the leading principal minors
(and, for small n, explicit polynomial conditions) decide.
"""

from .boundstate import (
    BOUND,
    MARGINAL,
    UNBOUND,
    BoundStateReport,
    CoefficientConditions,
    classify,
    n2_closed_eigenvalues,
    n2_conditions,
    n3_charpoly,
    n3_conditions,
    n3_discriminant,
    n4_condition,
    n5_condition,
    necessary_coefficient_conditions,
    verify_condition_terms,
)
from .cli import (
    AnalysisReport,
    AnalysisRequest,
    main,
    parse_model_file,
    run_analysis,
)
from .diagonalize import (
    MassNormalizedDecomposition,
    ModeDecomposition,
    compute_A,
    compute_S,
    decompose,
    decompose_mass_normalized,
)
from .errors import (
    ChoError,
    ConsistencyError,
    NonConvergence,
    NotPositiveDefinite,
    ParseError,
    SingularMatrix,
    UnboundSystem,
    ValidationError,
    WrongDimension,
)
from .linalg import (
    EigDecomposition,
    SymMatrix,
    jacobi_eigh,
    leading_principal_minors,
    spd_sqrt,
)
from .model import OscillatorModel, build_T, build_V
from .spectrum import EnergyLevel, ground_state_energy, lowest_levels

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "AnalysisRequest",
    "BOUND",
    "BoundStateReport",
    "ChoError",
    "CoefficientConditions",
    "ConsistencyError",
    "EigDecomposition",
    "EnergyLevel",
    "MARGINAL",
    "MassNormalizedDecomposition",
    "ModeDecomposition",
    "NonConvergence",
    "NotPositiveDefinite",
    "OscillatorModel",
    "ParseError",
    "SingularMatrix",
    "SymMatrix",
    "UNBOUND",
    "UnboundSystem",
    "ValidationError",
    "WrongDimension",
    "build_T",
    "build_V",
    "classify",
    "compute_A",
    "compute_S",
    "decompose",
    "decompose_mass_normalized",
    "ground_state_energy",
    "jacobi_eigh",
    "leading_principal_minors",
    "lowest_levels",
    "main",
    "n2_closed_eigenvalues",
    "n2_conditions",
    "n3_charpoly",
    "n3_conditions",
    "n3_discriminant",
    "n4_condition",
    "n5_condition",
    "necessary_coefficient_conditions",
    "parse_model_file",
    "run_analysis",
    "spd_sqrt",
    "verify_condition_terms",
]
