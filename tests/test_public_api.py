"""The public surface of ``statekit``, and no dead imports behind it.

Adding or removing a public name is an edit of ``PUBLIC_NAMES`` below, so
every change to the API shows up in a test diff.
"""
import ast
import inspect
import typing
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
    "pauli_string",
    "phase_encoding",
    "probability_loading",
    "resonance_similarity",
    "ring_coupling",
    "run_experiment",
    "sandwich_unitary",
    "sign_lock_check",
    "spectral_profile",
]


def test_public_names():
    public = [
        name for name, value in vars(sk).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    ]
    assert sorted(public) == PUBLIC_NAMES


def hinted_types(hint):
    """``hint`` and every type nested in it, as in ``tuple[SpectralProfile, np.ndarray] | None``."""
    yield hint
    for arg in typing.get_args(hint):
        yield from hinted_types(arg)


def test_every_public_type_is_returned_or_taken_by_a_public_function():
    # TOLS is a Tolerances; the error classes are raised, not passed
    values = [getattr(sk, name) for name in PUBLIC_NAMES]
    hinted = {
        t
        for value in values if callable(value)
        for hint in typing.get_type_hints(value.__init__ if inspect.isclass(value) else value).values()
        for t in hinted_types(hint)
    }
    orphans = [
        value.__name__ for value in values
        if inspect.isclass(value) and value is not sk.Tolerances and not issubclass(value, sk.StatekitError)
        and value not in hinted
    ]
    assert orphans == []


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


# top-level names of src/statekit that only perfbench/ reads, as "module.name"; pair_sum is
# also the tests' oracle of pair_sums and the name of perfbench's kernels.pair_sum span, and
# ry_layer, the copying form of the in-place layer the encoder runs, is the tests' rotation
# layer and the name of perfbench's kernels.ry_layer span
READ_ONLY_BY_PERFBENCH = {"_kernels.backend", "_kernels.pair_sum", "_kernels.ry_layer"}


def top_level_names(tree):
    """Functions, classes and constants that a module defines at top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def read_names(tree):
    """Names that a module reads: loaded names, attributes and imported names."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_top_level_name_is_read():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SRC.glob("*.py")}
    read = set().union(*(read_names(tree) for tree in trees.values()))
    dead = sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in top_level_names(tree)
        if name not in read and f"{module}.{name}" not in READ_ONLY_BY_PERFBENCH
    )
    assert dead == []


# calls that a __post_init__ leaves to the one array intake, statevec._own
INTAKE_CALLS = {"np.ascontiguousarray", "np.asarray", "_freeze"}


def intake_bypasses(tree):
    """``Class.__post_init__: call`` for each call of ``INTAKE_CALLS`` in a __post_init__."""
    found = []
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__":
                calls = (ast.unparse(n.func) for n in ast.walk(fn) if isinstance(n, ast.Call))
                found += [f"{cls.name}.__post_init__: {c}" for c in calls if c in INTAKE_CALLS]
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_post_init_takes_arrays_through_the_intake(module):
    assert intake_bypasses(ast.parse((SRC / module).read_text())) == []


# the one conversion of outside arrays
CONVERSIONS = {"statevec._as_array"}


def conversions(module, tree):
    """``module.name`` of the top-level function or class around each
    ``np.asarray`` or ``np.ascontiguousarray`` call of ``tree``."""
    return [
        f"{module}.{getattr(top, 'name', '<module>')}"
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.asarray", "np.ascontiguousarray")
    ]


def test_outside_arrays_are_converted_in_one_place():
    # _kernels.py sees only arrays that statekit has converted already
    found = [
        name
        for path in SRC.glob("*.py")
        if path.name != "_kernels.py"
        for name in conversions(path.stem, ast.parse(path.read_text()))
    ]
    # both ways: a stale entry would let a later conversion in its function pass unseen
    assert sorted(set(found) ^ CONVERSIONS) == []


# the one scalar intake, and three functions that test for a bool as a value of its own:
# the array intake (a bool among numbers) and the two output formatters (JSON values, CSV columns)
SCALAR_RULES = {
    "statevec._is_int", "statevec._as_real", "statevec._as_array", "experiments._jsonify", "experiments._column_cells",
}


def scalar_rules(module, tree):
    """``module.name`` of the top-level function or class around each ``isinstance(..., bool)``
    test (``bool`` alone or in a tuple) and each ``numbers.Real`` of ``tree``."""
    def is_rule(node):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance" and len(node.args) == 2:
            return any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1]))
        return isinstance(node, ast.Attribute) and ast.unparse(node) == "numbers.Real"

    return [f"{module}.{getattr(top, 'name', '<module>')}" for top in tree.body for node in ast.walk(top) if is_rule(node)]


def test_scalars_are_checked_in_one_place():
    found = [name for path in SRC.glob("*.py") for name in scalar_rules(path.stem, ast.parse(path.read_text()))]
    # both ways: a stale entry would let a later scalar rule in its function pass unseen
    assert sorted(set(found) ^ SCALAR_RULES) == []


# every cache in src/statekit: one parser for every CLI call. A cache keeps what it
# holds between calls, so a new one must show up here
CACHES = {"cli.build_parser"}


def caches(module, tree):
    """``module.name`` of each function with a cache decorator (``functools.cache``, ``lru_cache``)."""
    return [
        f"{module}.{fn.name}"
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and any("cache" in ast.unparse(d) for d in fn.decorator_list)
    ]


def test_caches_are_listed():
    found = [name for path in SRC.glob("*.py") for name in caches(path.stem, ast.parse(path.read_text()))]
    # both ways, as for CONVERSIONS
    assert sorted(set(found) ^ CACHES) == []
