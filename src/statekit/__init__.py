"""statekit: a desk-scale quantum state-vector toolkit.

Encodes classical data into state vectors three static ways (probability
loading, amplitude, phase) and one dynamical way (features driving a
Trotterized Hamiltonian), then mechanically checks what each encoding can
and cannot express: interference decompositions, phase-lock sign analysis,
diagonal-operator deafness, commutation structure, third-order Trotter
curvature, and spectral-gap resonance.

Qubit 0 is the most significant bit of every basis-state index.
"""
from ._version import __version__
from .encoders import (
    ENCODER_IDS,
    DataVector,
    PhaseProfile,
    amplitude_encoding,
    in_positive_orthant,
    phase_encoding,
    probability_loading,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    EigensolverError,
    InvalidDistributionError,
    NotDiagonalError,
    NotHermitianError,
    NotUnitaryError,
    StatekitError,
)
from .experiments import (
    EXPERIMENT_IDS,
    ExperimentConfig,
    ExperimentReport,
    GramMatrix,
    LabeledDataset,
    distinguishability,
    encode_dataset,
    fidelity_gram,
    gen_parity_dataset,
    nn_classify_loo,
    run_experiment,
)
from .interference import (
    InterferenceReport,
    PairSignReport,
    SignLockReport,
    diagonal_trap_residual,
    interference_decomposition,
    interference_decompositions,
    pairwise_term_signs,
    sign_lock_check,
)
from .qift import (
    CurvatureScan,
    HamiltonianSpec,
    QiftParams,
    build_h_data,
    build_h_topo,
    build_h_topo_dense,
    commutator_norm,
    complete_coupling,
    effective_hamiltonian,
    evolve_vacuum,
    exact_unitary,
    information_curvature,
    ring_coupling,
    sandwich_unitary,
)
from .spectral import (
    ResonanceVerdict,
    SpectralProfile,
    ZeemanTrace,
    overlap_similarity,
    resonance_similarity,
    spectral_profile,
    zeeman_sweep,
)
from .statevec import (
    DenseOperator,
    Distribution,
    HermitianOperator,
    SpectralDecomposition,
    StateStack,
    StateVector,
    apply_unitary,
    basis_state,
    born_probabilities,
    commutator,
    evolve,
    haar_random_unitary,
    hermitian_spectral_decomposition,
    operator_distance,
    pauli_string,
)
from .tolerances import TOLS, Tolerances
