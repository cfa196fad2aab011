"""Every domain type owns its arrays.

Each array field passes through one intake: it keeps no memory the caller
can still write, never makes the caller's array read-only, adopts an array
whose memory owner is already read-only, and rejects strings, bools, ragged
rows and complex values in a real field with the type's own error class.
"""
import tracemalloc
import warnings

import numpy as np
import pytest

import statekit as sk
from statekit.errors import ConfigError, EigensolverError, InvalidDistributionError, StatekitError


def curvature(taus=np.array([1.0, 0.0]), errors=np.array([0.0, 1.0])):
    return sk.CurvatureScan(taus, errors, 3.0, 0.01, commuting=False, commutator_norm=1.0)


def report(pairs):
    return sk.InterferenceReport(0, 0.5, 0.0, 0.5, 0.5, pairs)


def sign_lock(arguments):
    return sk.SignLockReport(True, (0, 1), 0, arguments, 0.0, 1e-9)


# "Type.field" -> (valid input, constructor of one argument, error class, real field).
# Entries are 0 or 1 where the type allows, so a bool array would pass every
# later check if it were read as numbers.
CASES = {
    "StateVector.amplitudes": ([0, 1], sk.StateVector, StatekitError, False),
    "StateStack.amplitudes": ([[1, 0], [0, 1]], sk.StateStack, StatekitError, False),
    "DenseOperator.matrix": ([[1, 0], [0, 1]], sk.DenseOperator, StatekitError, False),
    "HermitianOperator.matrix": ([[1, 0], [0, 1]], sk.HermitianOperator, StatekitError, False),
    "SpectralDecomposition.eigenvalues": (
        [0, 1], lambda v: sk.SpectralDecomposition(v, np.eye(2)), EigensolverError, True,
    ),
    "SpectralDecomposition.eigenvectors": (
        [[1, 0], [0, 1]], lambda v: sk.SpectralDecomposition([0.0, 1.0], v), EigensolverError, False,
    ),
    "Distribution.probabilities": ([0, 1], sk.Distribution, InvalidDistributionError, True),
    "HamiltonianSpec.fields": ([0, 1], lambda x: sk.HamiltonianSpec(x, sk.ring_coupling(2)), StatekitError, True),
    "HamiltonianSpec.coupling": (
        [[0, 1], [1, 0]], lambda j: sk.HamiltonianSpec([0.3, 0.5], j), StatekitError, True,
    ),
    "QiftParams.topology": ([[0, 1], [1, 0]], lambda j: sk.QiftParams(topology=j), ConfigError, True),
    "CurvatureScan.taus": ([1, 0], lambda t: curvature(taus=t), StatekitError, True),
    "CurvatureScan.errors": ([0, 1], lambda e: curvature(errors=e), StatekitError, True),
    "LabeledDataset.vectors": (
        [[0, 1], [1, 0]], lambda v: sk.LabeledDataset(v, [1, -1], 0), StatekitError, True,
    ),
    "LabeledDataset.labels": ([1, 1], lambda l: sk.LabeledDataset(np.eye(2), l, 0), StatekitError, True),
    "GramMatrix.entries": ([[1, 0], [0, 1]], sk.GramMatrix, StatekitError, True),
    "SpectralProfile.eigenvalues": (
        [0, 1], lambda v: sk.SpectralProfile(v, 1.0, degenerate=False), StatekitError, True,
    ),
    "ZeemanTrace.epsilons": ([0, 1], lambda e: sk.ZeemanTrace(e, np.ones(2), 0.0), StatekitError, True),
    "ZeemanTrace.gaps": ([1, 1], lambda g: sk.ZeemanTrace(np.zeros(2), g, 0.0), StatekitError, True),
    "InterferenceReport.pairs": ([0, 1], report, StatekitError, False),
    "SignLockReport.arguments": ([0, 1], sign_lock, StatekitError, True),
}


def field_of(name):
    return name.split(".")[1]


def caller_array(name):
    """A fresh writable array of the case's valid input, in the dtype the field stores."""
    valid, _, _, real = CASES[name]
    dtype = np.int64 if name == "LabeledDataset.labels" else np.float64 if real else np.complex128
    return np.array(valid, dtype=dtype)


@pytest.mark.parametrize("name", sorted(CASES))
def test_caller_array_stays_writable(name):
    arr = caller_array(name)
    CASES[name][1](arr)
    assert arr.flags.writeable


@pytest.mark.parametrize("route", ["array", "view"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_later_writes_do_not_leak(name, route):
    if route == "array":
        base = arr = caller_array(name)
    else:  # a C-contiguous view of the right dtype, so no conversion copies it
        base = np.stack([caller_array(name), caller_array(name)])
        arr = base[0]
    obj = CASES[name][1](arr)
    stored = getattr(obj, field_of(name))
    before = stored.copy()
    base[...] = 7
    assert np.array_equal(stored, before)
    assert not np.shares_memory(stored, base)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stored_array_and_its_memory_owner_are_frozen(name):
    valid, build, _, _ = CASES[name]
    stored = getattr(build(valid), field_of(name))  # a list: the intake's own array
    owner = stored
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    assert not stored.flags.writeable and not owner.flags.writeable


def bad_inputs(name):
    valid, _, _, real = CASES[name]
    arr = np.array(valid)
    flat = arr.ravel().tolist()
    cases = {
        "strings": arr.astype(str),
        "bools": arr != 0,
        "ragged": [flat[:1], flat],
    }
    if real:
        cases["complex"] = arr.astype(np.complex128)
    return cases


@pytest.mark.parametrize(
    "name, kind", [(name, kind) for name in sorted(CASES) for kind in bad_inputs(name)]
)
def test_rejects_strings_bools_ragged_rows_and_complex(name, kind):
    _, build, error, _ = CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ComplexWarning is not a rejection
        with pytest.raises(error) as info:
            build(bad_inputs(name)[kind])
    assert isinstance(info.value, StatekitError)


# the label check builds a new int64 array of the labels, which the intake adopts
@pytest.mark.parametrize("name", sorted(set(CASES) - {"LabeledDataset.labels"}))
def test_read_only_array_is_adopted(name):
    arr = caller_array(name)
    arr.flags.writeable = False
    stored = getattr(CASES[name][1](arr), field_of(name))
    assert np.shares_memory(stored, arr)


def test_read_only_gram_is_adopted_without_a_copy():
    k = np.eye(1024)
    k.flags.writeable = False
    tracemalloc.start()
    try:
        g = sk.GramMatrix(k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.entries is k
    assert peak < k.nbytes / 2


def test_fidelity_gram_hands_over_its_gram_without_a_copy(monkeypatch):
    handed = []

    def spy(entries, encoder_id):
        handed.append(entries)
        return sk.GramMatrix(entries, encoder_id)

    monkeypatch.setattr(sk.experiments, "GramMatrix", spy)
    g = sk.fidelity_gram(sk.StateStack(np.eye(4, dtype=complex)))
    assert g.entries is handed[0]


def test_eigendecomposition_hands_over_eigh_output_without_a_copy(monkeypatch):
    made = []
    eigh = np.linalg.eigh

    def spy(matrix):
        made.append(eigh(matrix))
        return made[-1]

    monkeypatch.setattr(np.linalg, "eigh", spy)
    dec = sk.hermitian_spectral_decomposition(sk.pauli_string(2, {0: "X", 1: "Z"}))
    assert np.shares_memory(dec.eigenvalues, made[0][0]) and dec.eigenvectors is made[0][1]


def test_interference_pairs_are_handed_over_without_a_copy(monkeypatch):
    made = []
    pair_terms = sk.interference._kernels.pair_terms

    def spy(t):
        made.append(pair_terms(t))
        return made[-1]

    monkeypatch.setattr(sk.interference._kernels, "pair_terms", spy)
    rep = sk.interference_decomposition(sk.DenseOperator(np.eye(4)), [0.25] * 4, None, 0)
    assert rep.pairs is made[0]


def test_information_curvature_keeps_no_view_of_the_tau_grid():
    spec = sk.HamiltonianSpec([0.4, -0.7], sk.ring_coupling(2))
    taus = np.geomspace(1e-1, 1e-3, 7)
    scan = sk.information_curvature(spec, taus)
    assert taus.flags.writeable
    before = scan.taus.copy()
    taus[...] = np.nan
    assert np.array_equal(scan.taus, before)


def test_zeeman_sweep_keeps_no_view_of_the_epsilon_grid():
    spec = sk.HamiltonianSpec([0.4, -0.7], sk.ring_coupling(2))
    eps = np.linspace(-0.1, 0.1, 5)
    trace = sk.zeeman_sweep(spec, eps)
    assert eps.flags.writeable
    before = trace.epsilons.copy()
    eps[...] = np.nan
    assert np.array_equal(trace.epsilons, before)
