"""The public surface of ``statekit``, and no dead imports behind it.

Adding or removing a public name is an edit of ``PUBLIC_NAMES`` below, so
every change to the API shows up in a test diff.
"""
import ast
import inspect
from pathlib import Path

import pytest

import statekit as sk

SRC = Path(sk.__file__).resolve().parent

PUBLIC_NAMES = [
    "ConfigError",
    "CurvatureScan",
    "DenseOperator",
    "DimensionMismatchError",
    "Distribution",
    "ENCODER_IDS",
    "EXPERIMENT_IDS",
    "EigensolverError",
    "ExperimentConfig",
    "ExperimentReport",
    "GramMatrix",
    "HamiltonianSpec",
    "HermitianOperator",
    "InterferenceReport",
    "InvalidDistributionError",
    "LabeledDataset",
    "NotDiagonalError",
    "NotHermitianError",
    "NotUnitaryError",
    "PairSignReport",
    "QiftParams",
    "ResonanceVerdict",
    "SignLockReport",
    "SpectralDecomposition",
    "SpectralProfile",
    "StateStack",
    "StateVector",
    "StatekitError",
    "TOLS",
    "Tolerances",
    "ZeemanTrace",
    "amplitude_encoding",
    "build_h_data",
    "build_h_topo",
    "build_h_topo_dense",
    "commutator",
    "commutator_norm",
    "complete_coupling",
    "diagonal_trap_residual",
    "distinguishability",
    "effective_hamiltonian",
    "encode_dataset",
    "evolve",
    "evolve_vacuum",
    "exact_unitary",
    "fidelity_gram",
    "gen_parity_dataset",
    "haar_random_unitary",
    "hermitian_spectral_decomposition",
    "in_positive_orthant",
    "information_curvature",
    "interference_decomposition",
    "interference_decompositions",
    "nn_classify_loo",
    "operator_distance",
    "pairwise_term_signs",
    "pauli_string",
    "phase_encoding",
    "probability_loading",
    "resonance_similarity",
    "ring_coupling",
    "run_experiment",
    "sandwich_unitary",
    "sign_lock_check",
    "spectral_profile",
    "zeeman_sweep",
]


def test_public_names():
    public = [
        name for name, value in vars(sk).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    ]
    assert sorted(public) == PUBLIC_NAMES


def unused_imports(path):
    """Names that ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in read)


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
)
def test_no_unused_imports(module):
    # the package's __init__ imports only to re-export; test_public_names covers it
    assert unused_imports(SRC / module) == []
