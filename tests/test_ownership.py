"""Every domain type owns its arrays.

Each array field passes through one intake: it keeps no memory the caller
can still write, never makes the caller's array read-only, adopts an array
whose memory owner is already read-only, and rejects strings, bools, ragged
rows and complex values in a real field with the type's own error class.
Functions convert the arrays they take by the same rules, and statekit's
builders hand over what they build frozen, so it is adopted, not copied.
"""
import tracemalloc
import warnings

import numpy as np
import pytest

import statekit as sk
from statekit import cli
from statekit.errors import ConfigError, EigensolverError, InvalidDistributionError, StatekitError


def curvature(taus=np.array([1.0, 0.0]), errors=np.array([0.0, 1.0])):
    return sk.CurvatureScan(taus, errors, 3.0, 0.01, commuting=False, commutator_norm=1.0)


def report(terms):
    return sk.InterferenceReport(0, 0.5, 0.0, 0.5, 0.5, terms)


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
    "InterferenceReport.terms": ([0, 1], report, StatekitError, False),
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


def test_scoring_a_frozen_gram_copies_no_matrix():
    ds = sk.gen_parity_dataset(16, 1024, 0)
    gram = sk.fidelity_gram(sk.encode_dataset(ds, "amplitude"), "amplitude")
    k = gram.entries
    tracemalloc.start()
    try:
        sk.nn_classify_loo(gram, ds.labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < k.nbytes / 2


def test_distinguishability_holds_no_m_by_m_array():
    # scored from each Gram tile as it is built: the whole float64 Gram
    # (8 m^2 bytes) would be twice the bound
    m = 1024
    ds = sk.gen_parity_dataset(16, m, 0)
    states = sk.encode_dataset(ds, "amplitude")
    tracemalloc.start()
    try:
        sk.distinguishability(states, ds.labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * m * m


@pytest.mark.parametrize("encoder", ["amplitude", "phase"])
def test_fidelity_gram_builds_no_m_by_m_intermediate(encoder):
    # the float64 Gram is 8 m^2 bytes; a whole m x m complex product and its abs
    # would add 3 * 8 m^2, where the tiles add a few 128 x 128 blocks
    m = 1024
    states = sk.encode_dataset(sk.gen_parity_dataset(16, m, 0), encoder)
    tracemalloc.start()
    try:
        sk.fidelity_gram(states, encoder)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * m * m


def test_parity_holds_one_gram_at_a_time(tmp_path):
    # one Gram (8 m^2 bytes) is alive while it is built and scored; the previous
    # encoder's Gram, if still alive, would add 8 m^2 more
    m = 1024
    config = sk.ExperimentConfig(
        experiment="parity", n_features=16, count=m, seed=0, output_dir=str(tmp_path),
        encoders=("probability_loading", "amplitude", "phase"),
    )
    tracemalloc.start()
    try:
        sk.experiments.compute_experiment(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * 8 * m * m


def test_parity_holds_no_m_by_m_array(tmp_path):
    # parity scores each Gram tile as it is built, so no m x m array (8 m^2 bytes
    # as float64) is alive at any time, only tiles and the m-row states
    m = 1024
    config = sk.ExperimentConfig(
        experiment="parity", n_features=16, count=m, seed=0, output_dir=str(tmp_path),
        encoders=("probability_loading", "amplitude", "phase"),
    )
    tracemalloc.start()
    try:
        sk.experiments.compute_experiment(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * m * m


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
    before = eps.copy()
    sk.spectral._profile_and_zeeman(spec, eps)
    assert eps.flags.writeable and eps.tobytes() == before.tobytes()


# ---------------------------------------------------------------------------
# functions take outside arrays through the same conversion
# ---------------------------------------------------------------------------

def spec2():
    return sk.HamiltonianSpec([0.4, -0.7], sk.ring_coupling(2))


HADAMARD = sk.DenseOperator(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))

# "function(argument)" -> (valid input, call with that input, error class).
# Entries are 0 or 1 where the function allows, so a bool array would pass
# every later check if it were read as numbers.
FUNCTION_CASES = {
    "build_h_data(fields)": ([0, 1], sk.build_h_data, StatekitError),
    "build_h_topo(coupling)": ([[0, 1], [1, 0]], lambda j: sk.build_h_topo(j, 1.0), StatekitError),
    "build_h_topo_dense(coupling)": ([[0, 1], [1, 0]], lambda j: sk.build_h_topo_dense(j, 1.0), StatekitError),
    "information_curvature(taus)": (
        np.geomspace(1e-1, 1e-3, 5).tolist(), lambda t: sk.information_curvature(spec2(), t), StatekitError,
    ),
    "_profile_and_zeeman(epsilons)": ([0, 1], lambda e: sk.spectral._profile_and_zeeman(spec2(), e), StatekitError),
    "nn_classify_loo(gram)": ([[1, 0], [0, 1]], lambda k: sk.nn_classify_loo(k, [1, -1]), StatekitError),
    "amplitude_encoding(x)": ([0, 1], sk.amplitude_encoding, StatekitError),
    "phase_encoding(phi)": ([0, 1], lambda phi: sk.phase_encoding([0.5, 0.5], phi), StatekitError),
    "sign_lock_check(phases)": (
        [0, 1], lambda phi: sk.sign_lock_check(HADAMARD, 0, (0, 1), [[0.5, 0.5]], [phi]), StatekitError,
    ),
    "probability_loading(p)": ([0, 1], sk.probability_loading, InvalidDistributionError),
}


def function_bad_inputs(name):
    arr = np.array(FUNCTION_CASES[name][0])
    flat = arr.ravel().tolist()
    return {
        "strings": arr.astype(str),
        "bools": arr != 0,
        "ragged": [flat[:1], flat],
        "complex": arr.astype(np.complex128),
    }


@pytest.mark.parametrize(
    "name, kind", [(name, kind) for name in FUNCTION_CASES for kind in function_bad_inputs(name)]
)
def test_functions_reject_strings_bools_ragged_rows_and_complex(name, kind):
    _, call, error = FUNCTION_CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ComplexWarning is not a rejection
        with pytest.raises(error, match="must be an array of numbers safely castable to float64$"):
            call(function_bad_inputs(name)[kind])


@pytest.mark.parametrize("name", FUNCTION_CASES)
def test_functions_leave_the_caller_array_writable_and_unchanged(name):
    valid, call, _ = FUNCTION_CASES[name]
    arr = np.array(valid, dtype=np.float64)
    call(arr)
    assert arr.flags.writeable and np.array_equal(arr, valid)


@pytest.mark.parametrize("content", ["[true, false]", '["3", "4"]', "[[3], [3, 4]]", '[3, "4"]'])
def test_encode_input_rejects_what_is_not_an_array_of_numbers(capsys, tmp_path, content):
    path = tmp_path / "input.json"
    path.write_text(content)
    code = cli.main(["encode", "--encoder", "amplitude", "--input", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: input vector must be an array of numbers safely castable to float64\n"


# ---------------------------------------------------------------------------
# builders hand over what they build
# ---------------------------------------------------------------------------

@pytest.fixture
def handovers(monkeypatch):
    """(type, field, given, stored) for each array a constructor is handed, in order."""
    seen = []
    own = sk.statevec._own

    def spy(obj, name, *args, value=None, **kwargs):
        given = getattr(obj, name)
        stored = own(obj, name, *args, value=value, **kwargs)
        if value is None:  # the constructor's argument, not an array the type derived from it
            seen.append((type(obj).__name__, name, given, stored))
        return stored

    for module in (sk.statevec, sk.qift, sk.spectral, sk.experiments, sk.interference):
        monkeypatch.setattr(module, "_own", spy)
    return seen


OPERATOR_BUILDERS = {
    "build_h_data": lambda s: sk.build_h_data(s.fields),
    "build_h_topo": lambda s: sk.build_h_topo(s.coupling, s.mu),
    "build_h_topo_dense": lambda s: sk.build_h_topo_dense(s.coupling, s.mu),
    "effective_hamiltonian": sk.effective_hamiltonian,
    "sandwich_unitary": sk.sandwich_unitary,
    "sandwich_unitary-dense": lambda s: sk.sandwich_unitary(s, "dense"),
    "exact_unitary": sk.exact_unitary,
    "commutator": lambda s: sk.commutator(sk.build_h_data(s.fields), sk.build_h_topo(s.coupling, s.mu)),
    "pauli_string": lambda s: sk.pauli_string(s.n_qubits, {0: "Y"}),
    "haar_random_unitary": lambda s: sk.haar_random_unitary(s.dim, 0),
}


@pytest.mark.parametrize("name", OPERATOR_BUILDERS)
def test_operator_builders_hand_over_their_matrix_without_a_copy(handovers, name):
    op = OPERATOR_BUILDERS[name](sk.HamiltonianSpec([0.4, -0.7, 0.2], sk.ring_coupling(3)))
    matrices = [(given, stored) for _, field, given, stored in handovers if field == "matrix"]
    assert matrices and matrices[-1][1] is op.matrix
    assert all(stored is given for given, stored in matrices)


# builder -> its tracemalloc peak in MiB at n = 9 when the intake copied its
# 2^9 x 2^9 complex128 matrix (4 MiB); handed over frozen, it is not copied
COPYING_PEAK_MIB = {
    "build_h_data": 16.1,
    "build_h_topo": 16.1,
    "effective_hamiltonian": 20.1,
    "commutator_norm": 20.1,
}


@pytest.mark.parametrize("name", COPYING_PEAK_MIB)
def test_builder_peak_at_nine_qubits_holds_no_copy(name):
    spec = sk.HamiltonianSpec(np.linspace(-1.0, 1.0, 9), sk.ring_coupling(9))
    build = {**OPERATOR_BUILDERS, "commutator_norm": sk.commutator_norm}[name]
    build(spec)  # first-call allocations stay out of the measurement
    tracemalloc.start()
    try:
        build(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (COPYING_PEAK_MIB[name] - 2) * 2**20


STATE_BUILDERS = {
    "probability_loading": lambda: sk.probability_loading([0.2, 0.3, 0.5]),
    "amplitude_encoding": lambda: sk.amplitude_encoding([0.2, -0.3, 0.5]),
    "phase_encoding": lambda: sk.phase_encoding([0.2, 0.3, 0.5], [0.1, 0.2, 0.3]),
    "evolve_vacuum": lambda: sk.evolve_vacuum(sk.HamiltonianSpec([0.4, -0.7], sk.ring_coupling(2))),
    **{
        f"encode_dataset-{enc}": lambda enc=enc: sk.encode_dataset(
            sk.LabeledDataset(np.array([[0.2, -0.3, 0.5], [0.1, 0.4, -0.2]]), [1, -1], 0), enc
        )
        for enc in sk.ENCODER_IDS
        if enc != "qift"
    },
    # the qift encoder evolves a stack of rows as columns, so a stack of two or
    # more rows is made C-contiguous by one copy; one row is handed over as is
    "encode_dataset-qift-one-row": lambda: sk.encode_dataset(
        sk.LabeledDataset(np.array([[0.2, -0.3, 0.5]]), [1], 0), "qift"
    ),
}


@pytest.mark.parametrize("name", STATE_BUILDERS)
def test_state_builders_hand_over_their_amplitudes_without_a_copy(handovers, name):
    state = STATE_BUILDERS[name]()
    (given, stored), = [(g, s) for kind, _, g, s in handovers if kind in ("StateVector", "StateStack")]
    assert np.shares_memory(stored, given)
    if name.startswith("encode_dataset-"):
        assert stored is state.amplitudes
    else:
        # a single-state builder hands a one-row stack its array and returns the stack's
        # row 0, a view of that array; numpy bases a view of evolve_vacuum's transposed
        # stack on the column buffer it evolved
        assert stored.shape == (1, state.dim)
        assert state.amplitudes.base is (stored if stored.base is None else stored.base)
        assert state.amplitudes.ctypes.data == stored.ctypes.data


def test_experiment_and_cli_builders_hand_over_without_a_copy(handovers, capsys, tmp_path):
    config = sk.ExperimentConfig("interference-audit", n_features=2, count=2, seed=3, output_dir=str(tmp_path))
    sk.experiments.compute_experiment(config)
    assert cli.main(["interfere", "--dim", "3", "--seed", "1"]) == 0
    assert cli.main(["interfere", "--probs", "0.5,0.5"]) == 0
    sk.gen_parity_dataset(4, "all", 0)
    capsys.readouterr()
    assert {"Distribution", "DenseOperator", "LabeledDataset"} <= {kind for kind, *_ in handovers}
    copied = {f"{kind}.{field}" for kind, field, given, stored in handovers if not np.shares_memory(stored, given)}
    assert copied == set()
