"""corrquant: convex-programming quantifiers of measurement incompatibility,
quantum steering, and Bell nonlocality, with certificate extraction."""

from .conic import ConicProgram, ConicSolution, verify_solution
from .incompat import (
    IncompatKind,
    IncompatResult,
    incompatibility_quantifier,
    is_jointly_measurable,
)
from .nonlocality import (
    BellInequality,
    NonlocalityKind,
    NonlocalityResult,
    behaviour_from_counts,
    bell_certificate,
    is_local,
    nonlocality_quantifier,
    ns_project,
)
from .npa import MomentMatrix, build_npa_block, npa_membership, npa_optimize
from .scenario import (
    Assemblage,
    Behaviour,
    BipartiteState,
    LhsModel,
    LocalModel,
    MeasurementSet,
    ParentPovm,
    behaviour_marginal,
    bloch_measurements,
    dodecahedron,
    lossy,
    make_measurements,
    max_entangled,
    measure,
    paulis,
    pure_theta,
    reduced_state,
    singlet,
    steer,
    werner,
)
from .steering import (
    SteeringInequality,
    SteeringKind,
    SteeringResult,
    has_lhs_model,
    steering_certificate,
    steering_quantifier,
)

__version__ = "0.1.0"

__all__ = [
    "Assemblage", "Behaviour", "BellInequality", "BipartiteState",
    "ConicProgram", "ConicSolution", "IncompatKind",
    "IncompatResult", "LhsModel", "LocalModel", "MeasurementSet",
    "MomentMatrix", "NonlocalityKind", "NonlocalityResult", "ParentPovm",
    "SteeringInequality", "SteeringKind", "SteeringResult",
    "behaviour_from_counts", "behaviour_marginal", "bell_certificate",
    "bloch_measurements", "build_npa_block", "dodecahedron",
    "has_lhs_model", "incompatibility_quantifier",
    "is_jointly_measurable", "is_local", "lossy", "make_measurements",
    "max_entangled", "measure", "nonlocality_quantifier",
    "npa_membership", "npa_optimize", "ns_project", "paulis", "pure_theta",
    "reduced_state", "singlet", "steer", "steering_certificate",
    "steering_quantifier", "verify_solution", "werner",
]
