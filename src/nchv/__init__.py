"""Non-contextual hidden-variable models of finite-precision measurement.

Dense families of pairwise totally incompatible bases stand in for ideal
projective measurements; exact-rational positive-operator resolutions stand
in for ideal POVMs. Truth valuations over the resulting block structure
reproduce Born statistics while staying non-contextual, and a search module
checks projection fixtures for Kochen-Specker style obstructions.
"""

from .basisfamily import (
    BasisFamily,
    FamilyMember,
    generate_family,
    haar_basis,
    min_cross_commutator_norm,
    nearest_member,
    random_nearby_basis,
    repair_member,
)
from .errors import (
    DegenerateTargetError,
    DimensionMismatchError,
    NCHVError,
    NoCandidateError,
    PrecisionError,
    RegistryCollisionError,
    RepairExhaustedError,
    SearchCapError,
    ValidationError,
    WeightNormalizationError,
)
from .kscheck import (
    SearchResult,
    ValuationProblem,
    build_problem,
    discover_resolutions,
    find_truth_functions,
    load_fixture,
    problem_from_family,
    verify_solution,
)
from .opcore import (
    HermitianObservable,
    OrthonormalBasis,
    basis_distance,
    basis_to_json,
    check_density,
    operator_from_json,
    operator_norm,
    operator_to_json,
    spectral_resolution,
    validate_resolution,
)
from .pba import (
    FullnessReport,
    PartialBooleanAlgebra,
    TruthValuation,
    born_weights,
    verify_block_assignment,
    verify_fullness,
    verify_homomorphism,
)
from .povmfamily import (
    RationalOperator,
    RationalResolution,
    ResolutionRegistry,
    TaggedResolution,
    phase_tag,
    rationalize_po,
    snap_resolution,
)
from .simulator import (
    MeasurementOutcome,
    MeasurementRequest,
    SimulationContext,
    TrialReport,
    realize_povm,
    realize_pvm,
    run_noncontextuality_audit,
    run_trials,
    simulate_trial,
)

__version__ = "0.1.0"
