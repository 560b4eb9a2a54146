"""Exact integer-arithmetic Hamiltonian cellular automata toolkit."""

from .errors import OntocaError
from .gaussian import (
    CAPairState,
    GaussianInt,
    GaussianIntVector,
    GaussianRational,
    HamiltonianModel,
    Trajectory,
    build_hamiltonian,
    evolve,
    from_xp,
    step,
    stream,
    to_xp,
    two_time_correlation,
    zero_model,
)
from .ontology import (
    CanonicalRay,
    PermutationReport,
    canonical_ray,
    detect_phased_permutation,
    norm_trace,
    preset_hamiltonian,
    standard_basis_rays,
)
from .propagator import (
    DiscretenessScale,
    SpectralDecomposition,
    TransferPolynomial,
    closed_form_state,
    continuum_limit_check,
    dispersion_omega,
    equal_initial_form,
    is_critical,
    phi_operator,
    transfer_polynomial,
    transfer_sequence,
)

__version__ = "0.1.0"
