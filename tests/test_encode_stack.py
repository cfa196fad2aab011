"""Dataset encoding as one state stack.

``encode_dataset`` and every ``ENCODERS`` entry encode a whole (m, n) row
stack at once. The oracles below are the one-row formulas the stacked code
replaced, operation for operation, so a stack must match them byte for byte.
Every row is checked as the single-state encoder checks its input, so the
first bad row of a stack raises exactly what that row raises on its own.
"""
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import statekit as sk
from statekit import _kernels
from statekit import cli
from statekit.errors import ConfigError, StatekitError
from statekit.experiments import ENCODERS, LabeledDataset

from conftest import count_calls, two_copy_ry_layer


def pad(v):
    target = 1 << max(v.size - 1, 1).bit_length()
    return v if v.size == target else np.concatenate([v, np.zeros(target - v.size)])


def loading_oracle(row, params):
    p = pad(row**2 / np.sum(row**2))
    total = p.sum()
    if total != 1.0:
        p = p / total
    return np.sqrt(p).astype(np.complex128)


def amplitude_oracle(row, params):
    v = pad(row)
    return (v / np.linalg.norm(v)).astype(np.complex128)


def phase_oracle(row, params):
    v = pad(row)
    return np.sqrt(np.full(v.size, 1.0 / v.size)) * np.exp(1j * v)


def qift_oracle(row, params):
    tau, mu = float(params.tau), float(params.mu)
    half_angles = (tau / 2.0) * row
    dphase = np.exp(-1j * tau * mu * _kernels.zz_diagonal(params.coupling_for(row.size)))
    amps = np.zeros(1 << row.size, dtype=np.complex128)
    amps[0] = 1.0
    amps = two_copy_ry_layer(amps, half_angles)
    return two_copy_ry_layer(amps * dphase, half_angles)


ORACLES = {
    "probability_loading": loading_oracle,
    "amplitude": amplitude_oracle,
    "phase": phase_oracle,
    "qift": qift_oracle,
}
STATIC = ("probability_loading", "amplitude", "phase")


def assert_matches_oracle(ds, encoder, params=None):
    stack = sk.encode_dataset(ds, encoder, params)
    expected = np.array([ORACLES[encoder](row, params) for row in ds.vectors])
    assert stack.amplitudes.tobytes() == expected.tobytes()


def gaussian_dataset(width, rows=32, seed=11):
    vectors = np.random.default_rng(seed + width).standard_normal((rows, width))
    return LabeledDataset(vectors, np.ones(rows, dtype=np.int64), seed=0)


class TestBytesMatchOneRowFormulas:
    @pytest.mark.parametrize("seed", [7, 1234])
    @pytest.mark.parametrize(
        "encoder, n, count",
        # the qift register grows as 2^n, so it is not run on 16 components
        [(e, n, "all") for e in sk.ENCODER_IDS for n in (2, 4, 8)] + [(e, 16, 2048) for e in STATIC],
    )
    def test_parity_data(self, encoder, n, count, seed):
        params = sk.QiftParams() if encoder == "qift" else None
        assert_matches_oracle(sk.gen_parity_dataset(n, count, seed), encoder, params)

    @pytest.mark.parametrize("width", [1, 3, 4, 5, 8])
    @pytest.mark.parametrize("encoder", STATIC)
    def test_gaussian_rows(self, encoder, width):
        assert_matches_oracle(gaussian_dataset(width), encoder)

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize(
        "params", [sk.QiftParams(), sk.QiftParams(mu=0.7, tau=0.3, topology="complete")]
    )
    def test_qift_rows(self, width, params):
        assert_matches_oracle(gaussian_dataset(width), "qift", params)

    @pytest.mark.parametrize("encoder", sk.ENCODER_IDS)
    def test_single_state_functions_agree(self, encoder):
        ds = gaussian_dataset(3, rows=4)
        params = sk.QiftParams() if encoder == "qift" else None
        single = {
            "probability_loading": lambda r: sk.probability_loading(r**2 / np.sum(r**2)),
            "amplitude": sk.amplitude_encoding,
            "phase": lambda r: sk.phase_encoding(np.full(4, 0.25), pad(r)),
            "qift": lambda r: sk.evolve_vacuum(sk.HamiltonianSpec(r, sk.ring_coupling(3))),
        }[encoder]
        stack = sk.encode_dataset(ds, encoder, params)
        for row, state in zip(ds.vectors, stack):
            assert single(row).amplitudes.tobytes() == state.amplitudes.tobytes()


def test_qift_encoding_builds_one_diagonal_and_two_rotation_layers(monkeypatch):
    calls = Counter()
    for name in ("zz_diagonal", "_ry_layer_in_place"):
        original = getattr(_kernels, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(_kernels, name, counted)
    sk.encode_dataset(sk.gen_parity_dataset(4, "all", 0), "qift", sk.QiftParams())
    assert calls == {"zz_diagonal": 1, "_ry_layer_in_place": 2}


def test_qift_encoding_holds_under_two_and_a_half_stacks():
    # 256 states of 256 amplitudes: a 1 MiB stack. It is built once, and both rotation
    # layers and the diagonal phase act on it in place; a layer's working memory is a
    # half-size copy and a half-size product per qubit: about 2.3 MiB at the peak (a
    # copy of the stack per layer would add one more stack)
    stack = 1 << 20
    ds = sk.gen_parity_dataset(8, "all", 0)
    tracemalloc.start()
    try:
        states = sk.encode_dataset(ds, "qift", sk.QiftParams())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert states.amplitudes.nbytes == stack
    assert peak < 2.5 * stack


@pytest.mark.parametrize(
    "encode",
    [
        lambda: sk.probability_loading([0.5, 0.25, 0.25]),
        lambda: sk.amplitude_encoding([1.0, -2.0, 3.0]),
        lambda: sk.phase_encoding([0.5, 0.25, 0.25], [0.0, 1.0, 2.0]),
        lambda: sk.evolve_vacuum(sk.HamiltonianSpec([0.3, -0.4], sk.ring_coupling(2))),
    ],
    ids=["probability_loading", "amplitude_encoding", "phase_encoding", "evolve_vacuum"],
)
def test_single_state_is_checked_once(monkeypatch, encode):
    checks = count_calls(monkeypatch, "_check_state_rows")
    encode()
    assert len(checks) == 1


@pytest.mark.parametrize("encoder", sk.ENCODER_IDS)
def test_stack_is_checked_once(monkeypatch, encoder):
    params = sk.QiftParams() if encoder == "qift" else None
    checks = count_calls(monkeypatch, "_check_state_rows")
    sk.encode_dataset(sk.gen_parity_dataset(4, "all", 0), encoder, params)
    assert len(checks) == 1


@pytest.mark.parametrize("encoder", sk.ENCODER_IDS)
def test_cli_encode_checks_its_state_once(monkeypatch, capsys, encoder):
    checks = count_calls(monkeypatch, "_check_state_rows")
    assert cli.main(["encode", "--encoder", encoder, "--values", "0.3,-0.7,1.1"]) == 0
    assert len(checks) == 1


def test_iterating_a_stack_checks_nothing(monkeypatch):
    stack = sk.encode_dataset(sk.gen_parity_dataset(4, "all", 0), "amplitude")
    checks = count_calls(monkeypatch, "_check_state_rows")
    assert len(list(stack)) == 16
    assert checks == []


def single_state_error(encoder, row, params):
    """The error the one-row path raises on ``row``."""
    padded = pad(row)
    encode = {
        # the row is checked as a data vector, as amplitude_encoding checks it, before its squares load
        "probability_loading": lambda: (sk.amplitude_encoding(row), sk.probability_loading(row**2 / np.sum(row**2))),
        "amplitude": lambda: sk.amplitude_encoding(row),
        "phase": lambda: sk.phase_encoding(np.full(padded.size, 1.0 / padded.size), padded),
        "qift": lambda: sk.evolve_vacuum(
            sk.HamiltonianSpec(row, params.coupling_for(row.size), mu=params.mu, tau=params.tau)
        ),
    }[encoder]
    with pytest.raises(StatekitError) as info:
        encode()
    return info.value


def assert_raises_like_single_row(encoder, rows, bad_row):
    params = sk.QiftParams() if encoder == "qift" else None
    expected = single_state_error(encoder, rows[bad_row], params)
    with pytest.raises(StatekitError) as info:
        ENCODERS[encoder](rows, params)
    assert type(info.value) is type(expected)
    assert str(info.value) == str(expected)


class TestBadRowInABatch:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("encoder", sk.ENCODER_IDS)
    def test_non_finite_entry(self, encoder, bad):
        rows = np.random.default_rng(3).standard_normal((5, 4))
        rows[2, 1] = bad
        assert_raises_like_single_row(encoder, rows, 2)

    def test_zero_norm_row_for_amplitude(self):
        rows = np.random.default_rng(3).standard_normal((5, 3))
        rows[3] = 0.0
        assert_raises_like_single_row("amplitude", rows, 3)

    def test_zero_row_for_probability_loading(self):
        rows = np.random.default_rng(3).standard_normal((5, 3))
        rows[1] = 0.0
        assert_raises_like_single_row("probability_loading", rows, 1)
        with pytest.raises(StatekitError, match="^data vector has zero norm$"):
            ENCODERS["probability_loading"](rows, None)

    @pytest.mark.parametrize("encoder", ["probability_loading", "amplitude"])
    def test_row_whose_squares_overflow(self, encoder):
        rows = np.random.default_rng(3).standard_normal((5, 4))
        rows[2, 0] = 1e200
        assert_raises_like_single_row(encoder, rows, 2)
        with pytest.raises(StatekitError, match="^non-finite value in the squares of the data vector$"):
            ENCODERS[encoder](rows, None)
        # a sum of squares just inside the float range still encodes
        assert ENCODERS[encoder](np.array([[1.3e154, 0.0, 0.0, 0.0]]), None).amplitudes[0, 0] == 1.0

    @pytest.mark.parametrize(
        "encoder, error, message",
        [
            ("probability_loading", StatekitError, "empty data vector"),
            ("amplitude", StatekitError, "empty data vector"),
            ("phase", StatekitError, "empty phase profile"),
            ("qift", StatekitError, "at least one field strength is required"),
        ],
    )
    def test_zero_width_rows_rejected(self, encoder, error, message):
        ds = LabeledDataset(np.zeros((2, 0)), np.ones(2, dtype=np.int64), seed=0)
        with pytest.raises(error, match=f"^{message}$"):
            sk.encode_dataset(ds, encoder)

    def test_first_bad_row_decides(self):
        rows = np.random.default_rng(3).standard_normal((4, 4))
        rows[1] = 0.0
        rows[2, 0] = np.nan
        with pytest.raises(StatekitError, match="^data vector has zero norm$"):
            ENCODERS["amplitude"](rows, None)
        with pytest.raises(StatekitError, match="^non-finite value in data vector$"):
            ENCODERS["amplitude"](rows[::-1], None)

    def test_shared_qift_checks_run_at_construction(self):
        # mu, tau and the coupling are shared by every row: QiftParams checks
        # them once, before any row is encoded
        with pytest.raises(ConfigError, match="^non-finite value in mu or tau$"):
            sk.QiftParams(tau=np.inf)
        with pytest.raises(ConfigError, match="^coupling matrix must be exactly symmetric$"):
            sk.QiftParams(topology=np.array([[0.0, 1.0], [2.0, 0.0]]))


class TestStateStack:
    def test_len_index_and_iteration(self):
        stack = sk.encode_dataset(gaussian_dataset(3, rows=6), "amplitude")
        assert len(stack) == 6 and stack.amplitudes.shape == (6, 4)
        assert isinstance(stack[2], sk.StateVector)
        assert stack[2].padded_from == 3
        states = list(stack)
        assert len(states) == 6
        assert all(s.amplitudes.tobytes() == a.tobytes() for s, a in zip(states, stack.amplitudes))

    def test_index_is_one_integer(self):
        stack = sk.encode_dataset(gaussian_dataset(3, rows=6), "amplitude")
        assert stack[-1].amplitudes.tobytes() == stack.amplitudes[5].tobytes()
        assert stack[np.int64(2)].padded_from == 3
        assert not stack[0].amplitudes.flags.writeable
        with pytest.raises(TypeError):
            stack[1:3]
        with pytest.raises(IndexError):
            stack[6]

    def test_frozen(self):
        stack = sk.encode_dataset(sk.gen_parity_dataset(2, "all", 0), "phase")
        with pytest.raises(ValueError):
            stack.amplitudes[0, 0] = 0.0

    def test_unpacks_to_its_single_state(self):
        ds = LabeledDataset(np.array([[3.0, 4.0]]), np.array([1]), seed=0)
        (state,) = sk.encode_dataset(ds, "amplitude")
        assert np.array_equal(state.amplitudes, [0.6, 0.8])

    def test_rows_checked_like_state_vectors(self):
        amps = np.array([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(StatekitError) as single:
            sk.StateVector(amps[1])
        with pytest.raises(StatekitError) as stacked:
            sk.StateStack(amps)
        assert str(stacked.value) == str(single.value)
        with pytest.raises(StatekitError, match="non-finite value in state"):
            sk.StateStack(np.array([[1.0, 0.0], [np.nan, 0.0]]))
        with pytest.raises(StatekitError, match="not 2\\^n"):
            sk.StateStack(np.ones((2, 3)) / np.sqrt(3))

    def test_must_be_two_dimensional(self):
        with pytest.raises(StatekitError, match="2-D"):
            sk.StateStack(np.array([1.0, 0.0]))

    def test_empty_dataset_gives_an_empty_stack(self):
        ds = LabeledDataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), seed=0)
        for encoder in sk.ENCODER_IDS:
            assert len(sk.encode_dataset(ds, encoder, sk.QiftParams() if encoder == "qift" else None)) == 0

    def test_gram_of_a_stack_equals_gram_of_its_states(self):
        stack = sk.encode_dataset(gaussian_dataset(5, rows=20), "phase")
        assert sk.fidelity_gram(stack).entries.tobytes() == sk.fidelity_gram(list(stack)).entries.tobytes()
