"""Discrete phase space over GF(2^n) for systems of n qubits.

The package builds the N x N phase-space geometry (N = 2^n), derives the
N+1 mutually conjugate measurement bases from its striations, computes
discrete Wigner grids of quantum states, and simulates conjugate-basis
tomography with statistical reconstruction.
"""

from .fields import (
    ContextMismatchError,
    FieldContext,
    FieldElement,
    FieldError,
    field_create,
)
from .geometry import (
    DegenerateLineError,
    Line,
    Point,
    Striation,
    enumerate_striations,
    find_wraparound_witness,
    intersect,
    line_from_equation,
    ring_line_points,
    striation_ascii,
    striation_to_json_dict,
)
from .mub import (
    ConjugacyReport,
    LabelingError,
    StriationBasis,
    basis_for_striation,
    check_conjugacy,
    full_mub_set,
)
from .operators import (
    NonCommutingError,
    QubitLabeling,
    TranslationOperator,
    default_labeling,
    pauli,
    projective_check,
    same_basis_labeling,
    trace_dual_basis,
    trace_dual_labeling,
    translation_unitary,
)
from .states import (
    InvalidStateError,
    parse_state_spec,
    random_density_matrix,
    random_pure_state,
    registry_names,
    registry_vector,
    validate_density_matrix,
)
from .system import PhaseSpaceSystem, build_system
from .tomography import (
    CountsRecord,
    InvalidCountsError,
    MeasurementPlan,
    ReconstructionReport,
    ScalingPoint,
    error_scaling_study,
    estimate_state,
    estimate_wigner,
    fidelity,
    loglog_slope,
    outcome_probabilities,
    project_to_physical,
    simulate_and_estimate,
    simulate_counts,
    trace_distance,
)
from .wigner import (
    NetConstructionError,
    QuantumNet,
    WignerGrid,
    default_net,
    grid_ascii,
    line_sum,
    state_from_wigner,
    translate_grid,
    wigner_from_state,
)

__version__ = "0.1.0"
