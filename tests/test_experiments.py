import csv
import ctypes
import functools
import io
import json
import math
import re
import tracemalloc
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

import statekit as sk
from statekit import cli, experiments
from statekit.errors import ConfigError, DimensionMismatchError, StatekitError
from statekit.experiments import _check_gram_block, _tile_pairs, compute_experiment


def parity_config(tmp_path, **overrides):
    raw = {
        "experiment": "parity",
        "n_features": 4,
        "count": "all",
        "seed": 0,
        "encoders": ["probability_loading", "amplitude"],
        "output_dir": str(tmp_path / "out"),
    }
    raw.update(overrides)
    return raw


class TestGenParityDataset:
    def test_two_component_truth_table(self):
        ds = sk.gen_parity_dataset(2, "all", 0)
        assert np.array_equal(ds.labels, [1, -1, -1, 1])
        assert np.array_equal(ds.vectors[0], [1.0, 1.0])
        assert np.array_equal(ds.vectors[3], [-1.0, -1.0])

    def test_four_component_balance(self):
        ds = sk.gen_parity_dataset(4, "all", 0)
        assert len(ds) == 16
        assert (ds.labels == 1).sum() == 8
        assert (ds.labels == -1).sum() == 8

    def test_labels_are_products(self):
        ds = sk.gen_parity_dataset(4, "all", 0)
        assert np.array_equal(ds.labels, np.prod(ds.vectors, axis=1).astype(int))

    def test_seeded_sampling_reproducible(self):
        a = sk.gen_parity_dataset(4, 10, 7)
        b = sk.gen_parity_dataset(4, 10, 7)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.labels, b.labels)

    def test_sampling_without_replacement(self):
        ds = sk.gen_parity_dataset(4, 16, 3)
        keys = {tuple(row) for row in ds.vectors}
        assert len(keys) == 16

    def test_count_too_large(self):
        with pytest.raises(StatekitError):
            sk.gen_parity_dataset(2, 5, 0)

    def test_bad_component_count(self):
        with pytest.raises(StatekitError):
            sk.gen_parity_dataset(3, "all", 0)

    def test_components_capped_at_32(self):
        assert sk.gen_parity_dataset(32, 4, 0).vectors.shape == (4, 32)
        with pytest.raises(StatekitError, match="power of 2"):
            sk.gen_parity_dataset(64, 4, 0)


class TestEncodeDataset:
    def test_probability_loading_erases_signs(self):
        ds = sk.gen_parity_dataset(4, "all", 0)
        states = sk.encode_dataset(ds, "probability_loading")
        for s in states:
            assert np.abs(s.amplitudes - 0.5).max() < 1e-15

    def test_amplitude_keeps_signs(self):
        ds = sk.LabeledDataset(np.array([[1.0, -1.0, 1.0, 1.0]]), np.array([-1]), seed=0)
        (state,) = sk.encode_dataset(ds, "amplitude")
        assert np.abs(state.amplitudes - np.array([0.5, -0.5, 0.5, 0.5])).max() < 1e-15

    def test_phase_encoder_keeps_uniform_statistics(self):
        ds = sk.gen_parity_dataset(4, "all", 0)
        states = sk.encode_dataset(ds, "phase")
        for s in states:
            probs = np.abs(s.amplitudes) ** 2
            assert np.abs(probs - 0.25).max() < 1e-12

    def test_qift_leaves_vacuum(self, rng):
        ds = sk.LabeledDataset(rng.uniform(-1, 1, (3, 4)), np.array([1, -1, 1]), seed=0)
        states = sk.encode_dataset(ds, "qift", sk.QiftParams(mu=1.0, tau=0.1))
        vacuum = sk.StateVector(np.eye(16)[0])
        for s in states:
            assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12
            assert abs(np.vdot(s.amplitudes, vacuum.amplitudes)) ** 2 < 1.0 - 1e-6

    def test_qift_matches_evolve_vacuum(self, rng):
        row = rng.uniform(-1, 1, 3)
        ds = sk.LabeledDataset(row[None, :], np.array([1]), seed=0)
        (state,) = sk.encode_dataset(ds, "qift", sk.QiftParams(mu=0.8, tau=0.2, topology="complete"))
        spec = sk.HamiltonianSpec(row, sk.complete_coupling(3), mu=0.8, tau=0.2)
        ref = sk.evolve_vacuum(spec)
        assert np.array_equal(state.amplitudes, ref.amplitudes)

    def test_invalid_combinations(self):
        ds = sk.gen_parity_dataset(2, "all", 0)
        with pytest.raises(StatekitError):
            sk.encode_dataset(ds, "fourier")
        with pytest.raises(StatekitError):
            sk.encode_dataset(ds, "amplitude", sk.QiftParams())


class TestFidelityGram:
    def test_identical_states_all_ones(self):
        psi = sk.probability_loading([0.25] * 4)
        gram = sk.fidelity_gram([psi] * 5)
        assert np.array_equal(gram.entries, np.ones((5, 5)))

    def test_orthonormal_states_identity(self):
        states = [sk.StateVector(row) for row in np.eye(4)]
        gram = sk.fidelity_gram(states)
        assert np.array_equal(gram.entries, np.eye(4))

    def test_parity_collapse_all_ones(self):
        ds = sk.gen_parity_dataset(4, "all", 0)
        gram = sk.fidelity_gram(sk.encode_dataset(ds, "probability_loading"), "probability_loading")
        assert np.array_equal(gram.entries, np.ones((16, 16)))

    def test_gram_validity_every_encoder(self, rng):
        ds = sk.gen_parity_dataset(4, 8, 5)
        for enc in sk.ENCODER_IDS:
            params = sk.QiftParams() if enc == "qift" else None
            gram = sk.fidelity_gram(sk.encode_dataset(ds, enc, params), enc)
            k = gram.entries
            assert np.abs(k - k.T).max() <= 1e-12
            assert np.abs(np.diagonal(k) - 1.0).max() <= 1e-10
            assert k.min() >= 0.0 and k.max() <= 1.0 + 1e-12

    def test_mixed_dims_rejected(self):
        with pytest.raises(StatekitError):
            sk.fidelity_gram([sk.StateVector(np.eye(2)[0]), sk.StateVector(np.eye(4)[0])])

    def test_empty_matrix_rejected(self):
        with pytest.raises(StatekitError, match="must not be empty"):
            sk.GramMatrix(np.zeros((0, 0)))


@functools.cache
def golden_kernels() -> bool:
    """Whether this process multiplies with the numpy, BLAS (and the core whose kernels it
    picked) and SIMD set recorded in tests/golden/fingerprint.json. On those kernels a
    128-row sub-block product rounds as the same entries of the whole product do, so the
    Gram tests below demand bytes there; other cores (forced Haswell, for one) round them
    differently at ragged sizes. The thread pins and CPU count are left out: the bytes
    hold at one and at two BLAS threads, and a tier-1 run pins no thread count."""
    golden = json.loads((Path(__file__).parent / "golden" / "fingerprint.json").read_text(encoding="utf-8"))
    numerics = experiments._numerics()
    return all(numerics[key] == golden[key] for key in ("numpy", "blas", "simd_found"))


U = 2.0**-53  # the unit roundoff of float64


def gram_error_bound(d: int) -> float:
    """The largest difference between two float64 computations, in any order of their sums,
    of one symmetrised Gram entry |<a|b>|^2 of unit states of dimension ``d``. A complex
    dot product errs by at most g = gamma_{d+2} |a|^T |b| <= gamma_{d+2}, gamma_k =
    k u / (1 - k u) (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
    eq. (3.5) and sect. 3.6), so its squared modulus errs by at most 2 g + g^2; the
    modulus (1 ulp), the square and the average add at most 6 u of an entry <= 1."""
    g = (d + 2) * U / (1 - (d + 2) * U)
    return 2 * (2 * g + g * g + 6 * U)


def assert_gram_equal(got, want, d, what=None):
    """Gram entries equal byte for byte on the goldens' kernels, else within the bound."""
    if golden_kernels():
        assert got.tobytes() == want.tobytes(), what
    else:
        assert got.shape == want.shape and np.abs(got - want).max() <= gram_error_bound(d), what


def assert_distance_equal(got, want, d, what=None):
    """Distances sqrt(max(0, 1 - k)) equal bit for bit on the goldens' kernels, else within
    the Gram bound carried through the square root: |sqrt(a) - sqrt(b)| <= min(sqrt(e),
    e / (sqrt(a) + sqrt(b))) for |a - b| <= e, where e adds the two roundings of 1 - k to
    the Gram bound; max(0, .) widens no difference, and each root rounds by u of itself."""
    if golden_kernels():
        assert got.hex() == want.hex(), what
    else:
        e = gram_error_bound(d) + 2 * U
        bound = math.sqrt(e) if got + want == 0 else min(math.sqrt(e), e / (got + want)) + U * (got + want)
        assert abs(got - want) <= bound, what


def test_gram_tolerance_path_accepts_rounding_and_rejects_a_moved_entry(monkeypatch):
    # the Gram tests' second path, exercised whatever this machine's kernels
    monkeypatch.setitem(globals(), "golden_kernels", lambda: False)
    states = random_states(129, 16, 0)
    k = untiled_gram(states)
    assert_gram_equal(k * (1 + 4 * U), k, 16)
    with pytest.raises(AssertionError):
        assert_gram_equal(k + 1e-13 * np.eye(129), k, 16)
    assert_distance_equal(0.5 * (1 + 4 * U), 0.5, 16)
    assert_distance_equal(1e-8, 0.0, 16)  # the square root of a rounding-size gap
    for got, want in ((0.5 + 1e-12, 0.5), (1e-6, 0.0)):
        with pytest.raises(AssertionError):
            assert_distance_equal(got, want, 16)


def untiled_gram(states):
    """The whole-matrix formula that the tiled assembly reproduces bit for bit."""
    s = np.vstack([st.amplitudes for st in states])
    k = np.abs(s.conj() @ s.T) ** 2
    return 0.5 * (k + k.T)


def random_states(m, d, seed):
    a = np.random.default_rng(seed).normal(size=(m, d, 2)) @ np.array([1.0, 1j])
    return [sk.StateVector(row / np.linalg.norm(row)) for row in a]


class TestTiledGram:
    """``fidelity_gram`` builds the Gram in 128 x 128 tiles; on the goldens' kernels
    (``golden_kernels``) the bytes must not change."""

    @pytest.mark.parametrize("m", [1, 2, 127, 128, 129, 300])
    def test_bitwise_equal_to_untiled_formula(self, m):
        states = random_states(m, 8, m)
        assert_gram_equal(sk.fidelity_gram(states).entries, untiled_gram(states), 8)

    # m = 1 mod 128 would leave a one-row block, whose product takes another BLAS route
    @pytest.mark.parametrize("m", [257, 385, 2049])
    def test_ragged_edge_bitwise_equal_to_untiled_formula(self, m):
        states = sk.StateStack(np.vstack([s.amplitudes for s in random_states(m, 16, m)]))
        assert_gram_equal(sk.fidelity_gram(states).entries, untiled_gram(states), 16)

    def test_tiles_have_no_one_wide_block_and_cover_each_entry_once(self):
        for m in range(1, 1001):
            hits = np.zeros((m, m), dtype=np.int8)
            for rows, cols in _tile_pairs(m):
                assert m == 1 or min(hits[rows, cols].shape) > 1, (m, rows, cols)
                hits[rows, cols] += 1
                if rows != cols:
                    hits[cols, rows] += 1
            assert (hits == 1).all(), m

    def test_symmetrisation_exercised(self):
        states = random_states(129, 8, 0)
        s = np.vstack([st.amplitudes for st in states])
        raw = np.abs(s.conj() @ s.T) ** 2
        # the complex GEMM rounds k[i, j] and k[j, i] differently for some pairs,
        # so the averaging really decides these entries
        assert np.count_nonzero(raw != raw.T) > 0
        assert_gram_equal(sk.fidelity_gram(states).entries, untiled_gram(states), 8)

    def test_real_amplitude_encoding(self):
        for m in (300, 257):
            states = sk.encode_dataset(sk.gen_parity_dataset(16, m, 3), "amplitude")
            gram = sk.fidelity_gram(states, "amplitude")
            assert_gram_equal(gram.entries, untiled_gram(states), 16, m)

    # a stack with no nonzero imaginary part squares the real part of each product,
    # others take the modulus; a route wrongly chosen would change the bytes
    @pytest.mark.parametrize("kind", ["real", "negative-zero-imaginary", "one-imaginary-entry"])
    @pytest.mark.parametrize("m", [127, 129, 257, 300, 2049])
    def test_real_overlap_route_bitwise_equal_to_untiled_formula(self, monkeypatch, m, kind):
        stack = sk.encode_dataset(sk.gen_parity_dataset(16, m, m), "amplitude").amplitudes.copy()
        if kind == "negative-zero-imaginary":
            stack.imag = -0.0
        elif kind == "one-imaginary-entry":
            stack[m // 2, 3] *= np.exp(0.3j)  # a phase keeps the norm
        states = sk.StateStack(stack)
        assert np.signbit(states.amplitudes.imag).all() == (kind == "negative-zero-imaginary")
        expected = untiled_gram(states)
        complex_moduli = []
        absolute = np.abs

        def spy(x, *args, **kwargs):
            complex_moduli.append(np.iscomplexobj(x))
            return absolute(x, *args, **kwargs)

        monkeypatch.setattr(np, "abs", spy)
        assert_gram_equal(sk.fidelity_gram(states).entries, expected, 16, (m, kind))
        assert any(complex_moduli) == (kind == "one-imaginary-entry"), (m, kind)

    def test_scoring_holds_no_conjugate_of_the_stack(self):
        # 4,096 phase states of 32 amplitudes: a 2 MiB stack. The tiles conjugate one
        # block of rows at a time, so scoring holds tiles, not a second stack
        ds = sk.gen_parity_dataset(32, 4096, 0)
        stack = sk.encode_dataset(ds, "phase").amplitudes
        sk.experiments._gram_scores(stack[:300], ds.labels[:300])  # first-call imports are not the stream's
        tracemalloc.start()
        try:
            sk.experiments._gram_scores(stack, ds.labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stack.nbytes == 2 << 20
        assert peak < stack.nbytes


def gram_with_asymmetry(m, i, j, delta):
    k = np.eye(m)
    k[i, j] = 0.5
    k[j, i] = 0.5 + delta
    return k


class TestGramSymmetryCheck:
    """``GramMatrix`` takes max |k - k.T| tile by tile; every tile is covered."""

    @pytest.mark.parametrize(
        "m, i, j",
        [
            (300, 5, 200),  # an off-diagonal tile and its mirror
            (300, 260, 290),  # inside the ragged corner tile
            (129, 3, 128),  # the one-column ragged edge at m = 129
            (129, 128, 127),
        ],
    )
    def test_asymmetry_rejected_in_every_tile(self, m, i, j):
        k = gram_with_asymmetry(m, i, j, 2 * sk.TOLS.gram_symmetry)
        with pytest.raises(StatekitError, match=f"not symmetric within {sk.TOLS.gram_symmetry}"):
            sk.GramMatrix(k)
        with pytest.raises(StatekitError, match="not symmetric"):
            sk.GramMatrix(k.T)

    @pytest.mark.parametrize("m, i, j", [(300, 5, 200), (129, 3, 128)])
    def test_asymmetry_within_tolerance_accepted(self, m, i, j):
        k = gram_with_asymmetry(m, i, j, 0.5 * sk.TOLS.gram_symmetry)
        assert sk.GramMatrix(k).entries.tobytes() == k.tobytes()


def loo_oracle(k, labels):
    """The plain-python leave-one-out double loop, under the documented tie rule."""
    m = len(labels)
    correct = 0
    for i in range(m):
        row = k[i]
        best = -np.inf
        for j in range(m):
            if j != i and row[j] > best:
                best = row[j]
        tied = [j for j in range(m) if j != i and row[j] == best]
        if len(tied) > 1 and len(tied) == m - 1:
            pred = labels[0]
        else:
            pred = labels[tied[0]]
        correct += int(pred == labels[i])
    return correct / m


class TestNNClassifyLOO:
    def test_identity_gram_predicts_first_label(self):
        labels = [1, -1, -1, 1]
        acc = sk.nn_classify_loo(np.eye(4), labels)
        # every row fully degenerate -> everyone predicted as labels[0] = +1
        assert acc == 0.5

    def test_all_ones_gram_balanced_parity(self):
        ds = sk.gen_parity_dataset(4, "all", 0)
        acc = sk.nn_classify_loo(np.ones((16, 16)), ds.labels)
        assert acc == 0.5

    def test_amplitude_parity_brute_force(self):
        ds = sk.gen_parity_dataset(4, "all", 0)
        gram = sk.fidelity_gram(sk.encode_dataset(ds, "amplitude"), "amplitude")
        acc = sk.nn_classify_loo(gram, ds.labels)
        assert acc == 1.0
        # independent brute force over all 16x15 ordered pairs
        k = gram.entries
        correct = 0
        for i in range(16):
            best_j = None
            for j in range(16):
                if j == i:
                    continue
                if best_j is None or k[i, j] > k[i, best_j]:
                    best_j = j
            correct += int(ds.labels[best_j] == ds.labels[i])
        assert correct == 16

    def test_two_sample_case_uses_real_neighbour(self):
        # a single candidate is a genuine nearest neighbour, not a degenerate tie
        k = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert sk.nn_classify_loo(k, [1, -1]) == 0.0

    def test_deterministic_partial_tie(self):
        # samples 1 and 2 tie as neighbours of 0: lowest index wins
        k = np.array([
            [1.0, 0.8, 0.8, 0.1],
            [0.8, 1.0, 0.3, 0.2],
            [0.8, 0.3, 1.0, 0.2],
            [0.1, 0.2, 0.2, 1.0],
        ])
        labels = np.array([1, 1, -1, -1])
        # neighbour of 0 -> 1 (label +1, correct); of 1 -> 0 (+1, correct);
        # of 2 -> 0 (+1, wrong); of 3 -> 1 and 2 tie -> 1 (+1, wrong)
        assert sk.nn_classify_loo(k, labels) == 0.5

    def test_matches_python_loop_on_tie_heavy_grams(self, rng):
        cases = 0
        for m in range(2, 13):
            for trial in range(18 if m > 2 else 20):
                k = rng.integers(0, 3, (m, m)).astype(np.float64)
                k = np.maximum(k, k.T)
                if trial % 6 == 0:
                    k[int(rng.integers(m))] = 1.0  # one all-ones row
                labels = rng.choice([-1, 1], m)
                labels[:2] = (-1, 1)
                assert sk.nn_classify_loo(k, labels) == loo_oracle(k, labels), (m, trial)
                cases += 1
        assert cases == 200

    @pytest.mark.parametrize("m", [127, 128, 129, 300])
    def test_matches_python_loop_across_row_block_edges(self, rng, m):
        # entries in {0, 0.5, 1} with a unit diagonal: a valid Gram full of ties
        for trial in range(3):
            k = rng.integers(0, 3, (m, m)) / 2.0
            k = np.maximum(k, k.T)
            np.fill_diagonal(k, 1.0)
            if trial == 0:
                k[m - 1] = k[:, m - 1] = 1.0  # a fully degenerate last row, in the edge block
            labels = rng.choice([-1, 1], m)
            labels[:2] = (-1, 1)
            expected = loo_oracle(k, labels)
            assert sk.nn_classify_loo(k, labels) == expected, (m, trial)
            assert sk.nn_classify_loo(sk.GramMatrix(k), labels) == expected, (m, trial)

    # a constant off-diagonal makes every row fully degenerate, with the diagonal
    # above it or below it; at m = 2 a row's one candidate is a genuine neighbour
    @pytest.mark.parametrize("diagonal", [1.0, 0.25], ids=["diagonal-above", "diagonal-below"])
    @pytest.mark.parametrize("m", [2, 3, 129, 300])
    def test_constant_off_diagonal_rows_are_degenerate(self, rng, m, diagonal):
        k = np.full((m, m), 0.5)
        np.fill_diagonal(k, diagonal)
        labels = rng.choice([-1, 1], m)
        labels[:2] = (-1, 1)
        expected = 0.0 if m == 2 else np.count_nonzero(labels == labels[0]) / m
        assert loo_oracle(k, labels) == expected
        assert sk.nn_classify_loo(k, labels) == expected, (m, diagonal)

    # one entry off the constant, in the last column block (row 0) or in the last
    # 128-row strip, makes its row no longer degenerate; the columns are chosen so
    # that the row's neighbour has the label opposite to the first sample's
    @pytest.mark.parametrize("value", [0.25, 0.75], ids=["below", "above"])
    @pytest.mark.parametrize("where", ["last-column-block", "last-row-strip"])
    @pytest.mark.parametrize("diagonal", [1.0, 0.25], ids=["diagonal-above", "diagonal-below"])
    @pytest.mark.parametrize("m", [3, 129, 300])
    def test_one_differing_entry_breaks_the_degeneracy(self, rng, m, diagonal, where, value):
        k = np.full((m, m), 0.5)
        np.fill_diagonal(k, diagonal)
        if where == "last-column-block":
            k[0, m - 1 if value > 0.5 else 1] = value  # a lower entry leaves column 1 nearest
        else:
            k[m - 1, 1 if value > 0.5 else 0] = value  # a lower entry at 0 leaves column 1 nearest
        labels = rng.choice([-1, 1], m)
        labels[:2], labels[-1] = (-1, 1), 1
        degenerate = np.count_nonzero(labels == labels[0]) / m
        expected = loo_oracle(k, labels)
        assert expected != degenerate
        assert sk.nn_classify_loo(k, labels) == expected, (m, diagonal, where, value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gram_rejected(self, bad):
        k = np.eye(3)
        k[0, 1] = k[1, 0] = bad
        with pytest.raises(StatekitError, match="non-finite"):
            sk.nn_classify_loo(k, [1, -1, 1])

    def test_single_class_flagged(self):
        with pytest.raises(StatekitError):
            sk.nn_classify_loo(np.eye(3), [1, 1, 1])

    def test_too_few_samples(self):
        with pytest.raises(StatekitError):
            sk.nn_classify_loo(np.ones((1, 1)), [1])

    def test_shape_mismatch(self):
        with pytest.raises(StatekitError):
            sk.nn_classify_loo(np.eye(3), [1, -1])


def cross_block_distinguishability(k, labels):
    """The whole cross-block formula that the row-block maximum reproduces bit for bit."""
    pos, neg = np.flatnonzero(labels == 1), np.flatnonzero(labels == -1)
    return float(np.sqrt(np.maximum(0.0, 1.0 - k[np.ix_(pos, neg)])).min())


def parity_rows_oracle(ds, encoders):
    """Parity table rows from the untiled Gram, the python LOO loop and the cross block."""
    rows = []
    for enc in encoders:
        k = untiled_gram(sk.encode_dataset(ds, enc))
        rows.append((enc, loo_oracle(k, ds.labels), cross_block_distinguishability(k, ds.labels)))
    return rows


class TestDistinguishability:
    # the largest cross pair at the first and last row of each 128-row tile: an
    # opposite-label copy of a state has fidelity 1 up to rounding, and a copy
    # scaled by 1 + 1e-13 (a norm within TOLS.state_norm) fidelity above 1, where
    # max(0, .) clamps; with no copy the largest cross fidelity is below 1
    @pytest.mark.parametrize("scale", [None, 1.0, 1.0 + 1e-13], ids=["no-copy", "copy", "scaled-copy"])
    @pytest.mark.parametrize("m", [2, 129, 300])
    def test_bitwise_equal_to_cross_block_at_tile_edges(self, rng, m, scale):
        for r in sorted({0, 127, 128, 255, 256, m - 1} & set(range(m))):
            labels = rng.choice([-1, 1], m)
            labels[:2] = (1, -1)
            stack = np.vstack([s.amplitudes for s in random_states(m, 8, int(rng.integers(2**31)))])
            if scale is not None:
                stack[r] = scale * stack[rng.choice(np.flatnonzero(labels != labels[r]))]
            states = sk.StateStack(stack)
            expected = cross_block_distinguishability(untiled_gram(states), labels)
            assert_distance_equal(sk.distinguishability(states, labels), expected, 8, (m, r, scale))
            if scale is None:
                assert expected > 0.0, (m, r)
            elif scale > 1:
                assert expected == 0.0, (m, r)  # set by the clamp

    @pytest.mark.parametrize("enc", sk.ENCODER_IDS)
    def test_bitwise_equal_to_cross_block_on_parity_states(self, enc):
        ds = sk.gen_parity_dataset(8, "all", 0)
        states = sk.encode_dataset(ds, enc)
        expected = cross_block_distinguishability(untiled_gram(states), ds.labels)
        assert_distance_equal(sk.distinguishability(states, ds.labels), expected, states.amplitudes.shape[1])

    def test_collapse_gives_zero(self):
        ds = sk.gen_parity_dataset(4, "all", 0)
        states = sk.encode_dataset(ds, "probability_loading")
        assert sk.distinguishability(states, ds.labels) == 0.0

    def test_amplitude_positive(self):
        ds = sk.gen_parity_dataset(4, "all", 0)
        states = sk.encode_dataset(ds, "amplitude")
        assert sk.distinguishability(states, ds.labels) > 0.5

    def test_identical_states_opposite_labels(self):
        psi = sk.probability_loading([0.5, 0.5])
        assert sk.distinguishability([psi, psi], [1, -1]) == 0.0

    def test_requires_both_classes(self):
        psi = sk.probability_loading([0.5, 0.5])
        with pytest.raises(StatekitError):
            sk.distinguishability([psi, psi], [1, 1])

    @pytest.mark.parametrize(
        "n_states, labels", [(2, [1, -1, 1]), (3, [1, -1])], ids=["more-labels", "more-states"]
    )
    def test_label_count_must_match_state_count(self, n_states, labels):
        states = [sk.probability_loading(p) for p in ([1.0, 0.0], [0.0, 1.0], [1.0, 0.0])][:n_states]
        with pytest.raises(DimensionMismatchError, match=f"^{n_states} states do not match {len(labels)} labels$"):
            sk.distinguishability(states, labels)


NOT_STATES_MESSAGE = "states must be a StateStack or a sequence of StateVectors"
# what is not a StateStack or a sequence of StateVectors, and an empty sequence
NOT_STATES = {
    "ndarray": (np.eye(4, dtype=complex), NOT_STATES_MESSAGE),
    "list-with-an-array": ([sk.StateVector(np.eye(4)[0]), np.eye(4)[1]], NOT_STATES_MESSAGE),
    "list-of-lists": (np.eye(4).tolist(), NOT_STATES_MESSAGE),
    "empty": ([], "at least one state is required"),
}


@pytest.mark.parametrize("kind", NOT_STATES)
@pytest.mark.parametrize("call", ["fidelity_gram", "distinguishability"])
def test_states_intake_rejects_what_is_not_states(call, kind):
    states, message = NOT_STATES[kind]
    args = (states,) if call == "fidelity_gram" else (states, [1, -1, 1, -1])
    with pytest.raises(StatekitError, match=f"^{message}$"):
        getattr(sk, call)(*args)


def stream_stack(kind, m):
    """(m, d) complex states: basis states cycled with period 4, so fidelities are
    exactly 0 or 1 and ties cross tile edges; one state repeated, so every row is
    fully degenerate; the same with the last state replaced, so that only the last
    row is, and the others differ only in the last column block; or random states."""
    if kind == "basis":
        return np.eye(4, dtype=complex)[np.arange(m) % 4]
    if kind in ("identical", "last-apart"):
        stack = np.full((m, 4), 0.5, dtype=complex)
        if kind == "last-apart":
            stack[-1] = (1, 0, 0, 0)  # fidelity 1/4 with the others
        return stack
    return np.vstack([s.amplitudes for s in random_states(m, 8, m)])


class TestGramScoreStream:
    """Parity and ``distinguishability`` score each Gram tile as it is built; the
    scores must be those of the stored Gram."""

    @pytest.mark.parametrize("kind", ["basis", "identical", "random", "last-apart"])
    @pytest.mark.parametrize("m", [2, 3, 129, 257, 300, 385])
    def test_equal_to_scores_of_the_stored_gram(self, rng, kind, m):
        stack = stream_stack(kind, m)
        labels = rng.choice([-1, 1], m)
        labels[:2] = (1, -1)
        states = sk.StateStack(stack)
        acc, dist = sk.experiments._gram_scores(stack, labels)
        assert acc == sk.nn_classify_loo(sk.fidelity_gram(states), labels)
        assert_distance_equal(dist, cross_block_distinguishability(untiled_gram(states), labels), stack.shape[1])

    # identical states have fidelity 1 everywhere: every row is fully degenerate and
    # predicts the first label, except at m = 2, where each has one genuine neighbour
    @pytest.mark.parametrize("m", [2, 3, 129, 300])
    def test_identical_states_predict_the_first_label(self, rng, m):
        labels = rng.choice([-1, 1], m)
        labels[:2] = (1, -1)
        acc, dist = sk.experiments._gram_scores(stream_stack("identical", m), labels)
        assert acc == (0.0 if m == 2 else np.count_nonzero(labels == labels[0]) / m)
        assert dist == 0.0

    def test_basis_stack_exercises_ties_and_degenerate_rows(self):
        k = sk.fidelity_gram(sk.StateStack(stream_stack("basis", 300))).entries
        assert set(np.unique(k)) == {0.0, 1.0}
        assert (sk.fidelity_gram(sk.StateStack(stream_stack("identical", 300))).entries == 1.0).all()

    # the nearest-neighbour merge needs each block of rows to meet its column
    # blocks in ascending order, so that the lowest tied column is kept
    @pytest.mark.parametrize("m", [1, 2, 127, 128, 129, 257, 385])
    def test_tiles_cover_the_gram_once_in_ascending_column_order(self, m):
        states = sk.StateStack(stream_stack("random", m))
        k = untiled_gram(states)
        hits = np.zeros((m, m), dtype=np.int8)
        met = {}
        for rows, cols, blk in sk.experiments._gram_tiles(states.amplitudes):
            assert_gram_equal(blk, k[rows, cols], 8, (m, rows, cols))
            hits[rows, cols] += 1
            met.setdefault(rows.start, []).append(cols.start)
        assert (hits == 1).all(), m
        assert all(starts == sorted(starts) for starts in met.values()), m

    @pytest.mark.parametrize(
        "labels, message",
        [([1], "need at least 2 samples"), ([1, 1, 1], "degenerate single-class input")],
    )
    def test_label_checks_match_nn_classify_loo(self, labels, message):
        stack = stream_stack("random", len(labels))
        with pytest.raises(StatekitError, match=message):
            sk.experiments._gram_scores(stack, np.array(labels))
        with pytest.raises(StatekitError, match=message):
            sk.nn_classify_loo(sk.fidelity_gram(sk.StateStack(stack)), labels)

    @pytest.mark.parametrize("fault", ["nan", "diagonal"])
    def test_tiles_are_checked(self, fault):
        stack = stream_stack("random", 300)
        if fault == "nan":
            stack[200, 3] = np.nan
        else:  # |<a|a>|^2 = (1 + eps)^4 with 4 eps = 2 * TOLS.gram_diagonal
            stack[200] *= 1 + 0.5 * sk.TOLS.gram_diagonal
        message = GRAM_FAULTS[fault][1]
        with pytest.raises(StatekitError, match=f"^{message}$"):
            sk.experiments._gram_scores(stack, np.tile([1, -1], 150))


# states of dimension 4 with entries in {0, +-1/2, +-1, +-i/2}: each overlap sums at most four
# multiples of 1/4 exactly, so every Gram entry is the same on any kernel, in any order of
# sums, wherever the two rows sit, and a scorer that skips repeated rows must give the scores
# of the stored Gram bit for bit; fidelities are 0, 1/4, 1/2 and 1, and ties abound
EXACT_STATES = np.vstack([
    np.eye(4), -np.eye(4)[:1],
    0.5 * np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [-1, -1, -1, -1]]),
    0.5 * np.array([[1, 1j, -1, -1j]]),
]).astype(complex)


class TestDistinctStateScores:
    """Parity scores a stack of one state through the lowest two rows of each label, and
    any other stack row by row; the scores must be those of the stored Gram."""

    def assert_stored_gram_scores(self, stack, labels):
        gram = sk.fidelity_gram(sk.StateStack(stack))  # bit for bit the untiled formula's, entries being exact
        acc, dist = sk.experiments._gram_scores(stack, labels)
        assert acc == sk.nn_classify_loo(gram, labels)
        assert dist == cross_block_distinguishability(gram.entries, labels)
        return acc, dist

    @pytest.mark.parametrize("m", [2, 3, 129, 2048])
    def test_one_distinct_state(self, rng, m):
        labels = rng.choice([-1, 1], m)
        labels[:2] = (1, -1)
        acc, dist = self.assert_stored_gram_scores(np.tile(EXACT_STATES[5], (m, 1)), labels)
        assert acc == (0.0 if m == 2 else np.count_nonzero(labels == labels[0]) / m)
        assert dist == 0.0

    # groups of random size, label mix and place, and groups whose members sit on both sides
    # of the 128-row tile edges; without the complex state the tiles skip the modulus
    @pytest.mark.parametrize("complex_state", [True, False])
    @pytest.mark.parametrize("m", [5, 130, 300, 385])
    def test_repeated_states(self, rng, m, complex_state):
        pool = EXACT_STATES if complex_state else EXACT_STATES[:-1]
        for _ in range(5):
            pick = rng.integers(len(pool), size=m)
            pick[[e for e in (126, 127, 128, 129, 255, 256, 257) if e < m]] = pick[0]
            labels = rng.choice([-1, 1], m)
            labels[:2] = (1, -1)
            self.assert_stored_gram_scores(pool[pick], labels)

    def test_a_group_holding_both_labels(self):
        # rows 0 and 3 are one state with opposite labels: the cross-class distance is 0
        stack = EXACT_STATES[[0, 1, 2, 0, 5, 5]]
        acc, dist = self.assert_stored_gram_scores(stack, np.array([1, 1, -1, -1, 1, 1]))
        assert dist == 0.0

    def test_ties_go_to_the_lowest_sample_of_any_group(self):
        # samples 0 and 5 are one group; sample 3 is its state times -1, at fidelity 1 too.
        # Sample 0 picks 3, the lowest of its tied neighbours, not its group's 5, and
        # predicts -1; sample 5 picks 0 and sample 3 picks 0; 1, 2 and 4 are degenerate
        stack = EXACT_STATES[[0, 1, 2, 4, 3, 0]]
        labels = np.array([1, 1, -1, -1, -1, 1])
        acc, dist = self.assert_stored_gram_scores(stack, labels)
        assert acc == 2 / 6  # samples 1 and 5
        assert dist == 0.0

    # repeats of inexact states among others: copies of a state in different tiles may get
    # entries an ulp apart, so only scoring every row gives the stored Gram's scores
    def test_partial_repeats_of_inexact_states(self):
        rng = np.random.default_rng(50)
        differ = []
        for case in range(400):
            m, d = rng.integers(3, 401), 2 ** rng.integers(1, 6)  # d = 2 to 32
            pool = rng.normal(size=(rng.integers(2, m), d, 2)) @ np.array([1.0, 1j])  # fewer states than rows
            pool /= np.linalg.norm(pool, axis=1, keepdims=True)
            pick = rng.integers(len(pool), size=m)
            pick[:2] = (0, 1)  # two distinct states at least
            labels = rng.choice([-1, 1], m)
            labels[:2] = (1, -1)
            stack = pool[pick]
            gram = sk.fidelity_gram(sk.StateStack(stack))
            want = (sk.nn_classify_loo(gram, labels), cross_block_distinguishability(gram.entries, labels))
            if sk.experiments._gram_scores(stack, labels) != want:
                differ.append((case, m, d))
        assert differ == []

    # the faulty row is a state of its own, so every row is scored, and its tile raises what
    # the whole Gram's would
    @pytest.mark.parametrize("fault", ["nan", "diagonal"])
    def test_a_faulty_row_among_repeats_is_checked(self, fault):
        stack = np.tile(EXACT_STATES[5], (300, 1))
        stack[200] = EXACT_STATES[0]  # fidelity 1/4 with the others, so only its diagonal can fail
        if fault == "nan":
            stack[200, 3] = np.nan
        else:
            stack[200] *= 1 + 0.5 * sk.TOLS.gram_diagonal
        with pytest.raises(StatekitError, match=f"^{GRAM_FAULTS[fault][1]}$"):
            sk.experiments._gram_scores(stack, np.tile([1, -1], 150))

    # the work the one-state rule saves: probability loading sends every sign vector to one
    # state (the lowest two rows of each label, one tile), amplitude to 2,048 distinct ones
    # (16 row blocks: 16 diagonal tiles and 120 tile pairs, each yielded with its mirror);
    # half of each, one state repeated among distinct ones, is scored row by row
    @pytest.mark.parametrize("enc, tiles", [("probability_loading", 1), ("amplitude", 256), ("half-each", 256)])
    def test_tiles_per_parity_encoder(self, monkeypatch, enc, tiles):
        yielded = []
        gram_tiles = sk.experiments._gram_tiles

        def counted(stack):
            for tile in gram_tiles(stack):
                yielded.append(tile[:2])
                yield tile

        monkeypatch.setattr(sk.experiments, "_gram_tiles", counted)
        ds = sk.gen_parity_dataset(16, 2048, 0)
        stack = {e: sk.encode_dataset(ds, e).amplitudes for e in ("probability_loading", "amplitude")}
        stack["half-each"] = np.vstack([stack["probability_loading"][:1024], stack["amplitude"][1024:]])
        sk.experiments._gram_scores(stack[enc], ds.labels)
        assert len(yielded) == tiles


GRAM_FAULTS = {
    "nan": (np.nan, "non-finite value in Gram matrix"),
    "inf": (np.inf, "non-finite value in Gram matrix"),
    "-inf": (-np.inf, "non-finite value in Gram matrix"),  # reaches only the minimum
    "diagonal": (1 + 2 * sk.TOLS.gram_diagonal, f"Gram diagonal deviates from 1 beyond {sk.TOLS.gram_diagonal}"),
    "negative": (-1e-3, r"Gram entries leave \[0, 1\] beyond tolerance"),
}


class TestGramBlockCheck:
    """``GramMatrix`` checks its whole matrix, parity each tile, with one helper."""

    # faults in the first and in the ragged last diagonal tile, and in an off-diagonal
    # tile; a negative diagonal entry would fail the diagonal check first
    @pytest.mark.parametrize(
        "fault, i, j",
        [
            ("nan", 5, 5), ("nan", 290, 290), ("nan", 5, 200),
            ("inf", 290, 290), ("inf", 5, 200), ("-inf", 5, 200), ("-inf", 260, 290),
            ("diagonal", 5, 5), ("diagonal", 290, 290),
            ("negative", 5, 200), ("negative", 260, 290),
        ],
    )
    def test_tile_raises_gram_matrix_message(self, fault, i, j):
        value, message = GRAM_FAULTS[fault]
        k = np.eye(300)
        k[i, j] = k[j, i] = value
        with pytest.raises(StatekitError, match=f"^{message}$"):
            sk.GramMatrix(k)
        for rows, cols in _tile_pairs(300):
            tile = k[rows, cols]
            if rows.start <= i < rows.stop and cols.start <= j < cols.stop:
                with pytest.raises(StatekitError, match=f"^{message}$"):
                    _check_gram_block(tile, diagonal=rows == cols)
            else:
                _check_gram_block(tile, diagonal=rows == cols)

    def test_off_diagonal_tile_skips_the_diagonal_check(self):
        _check_gram_block(np.zeros((128, 128)), diagonal=False)
        with pytest.raises(StatekitError, match="Gram diagonal deviates"):
            _check_gram_block(np.zeros((128, 128)), diagonal=True)


# labels that are not +1 or -1: fractions that int64 would truncate to +-1,
# a zero, bools, strings, a complex number and ragged rows
BAD_LABELS = {
    "fractions": [1.5, -1.9],
    "zero": [1, 0],
    "bools": [True, False],
    "a-bool-among-ints": [True, -1],
    "strings": ["1", "-1"],
    "complex": [1 + 0j, -1],
    "ragged": [[1], [1, -1]],
}


class TestLabels:
    @pytest.mark.parametrize("labels", list(BAD_LABELS.values()), ids=list(BAD_LABELS))
    def test_labeled_dataset(self, labels):
        with pytest.raises(StatekitError, match=r"^labels must be \+1 or -1$"):
            sk.LabeledDataset(np.ones((2, 2)), labels, 0)

    @pytest.mark.parametrize("labels", list(BAD_LABELS.values()), ids=list(BAD_LABELS))
    def test_nn_classify_loo(self, labels):
        with pytest.raises(StatekitError, match=r"^labels must be \+1 or -1$"):
            sk.nn_classify_loo(np.eye(2), labels)

    @pytest.mark.parametrize("labels", list(BAD_LABELS.values()), ids=list(BAD_LABELS))
    def test_distinguishability(self, labels):
        psi = sk.probability_loading([0.5, 0.5])
        with pytest.raises(StatekitError, match=r"^labels must be \+1 or -1$"):
            sk.distinguishability([psi, psi], labels)

    def test_no_label_is_dropped(self):
        # a third state labelled 2 used to be left out of both classes
        states = [sk.probability_loading(p) for p in ([1.0, 0.0], [0.0, 1.0], [1.0, 0.0])]
        with pytest.raises(StatekitError, match=r"^labels must be \+1 or -1$"):
            sk.distinguishability(states, [1, -1, 2])

    @pytest.mark.parametrize("labels", [[1, -1], [1.0, -1.0], np.array([1, -1], dtype=np.int8)])
    def test_integral_floats_and_small_ints_are_read(self, labels):
        ds = sk.LabeledDataset(np.eye(2), labels, 0)
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, -1]
        assert sk.nn_classify_loo(np.eye(2), labels) == 0.0


RING_3 = sk.ring_coupling(3).tolist()  # an explicit topology of the wrong size for 4 qubits
WRONG_SHAPE = "explicit coupling matrix has shape (3, 3), expected (4, 4)"
RING_4_TRUE = [[bool(v) or 0 for v in row] for row in sk.ring_coupling(4).tolist()]  # JSON true for each 1


class TestExperimentConfig:
    def test_unknown_key_rejected(self, tmp_path):
        raw = parity_config(tmp_path, extra=1)
        with pytest.raises(ConfigError, match="unknown config keys"):
            sk.ExperimentConfig.from_dict(raw)

    def test_missing_key_rejected(self, tmp_path):
        raw = parity_config(tmp_path)
        del raw["seed"]
        with pytest.raises(ConfigError, match="missing config keys"):
            sk.ExperimentConfig.from_dict(raw)

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown experiment"):
            sk.ExperimentConfig.from_dict(parity_config(tmp_path, experiment="teleport"))

    def test_unknown_encoder(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown encoder"):
            sk.ExperimentConfig.from_dict(parity_config(tmp_path, encoders=["basis"]))

    def test_duplicate_encoder(self, tmp_path):
        raw = parity_config(tmp_path, encoders=["amplitude", "phase", "amplitude"])
        with pytest.raises(ConfigError, match="^encoder 'amplitude' is listed more than once$"):
            sk.ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "encoders, message",
        [
            (("basis",), "^unknown encoder 'basis'; expected one of "),
            (("amplitude", "amplitude"), "^encoder 'amplitude' is listed more than once$"),
        ],
    )
    def test_validate_checks_encoder_ids(self, tmp_path, encoders, message):
        # a config built directly, not by from_dict, meets the same checks
        with pytest.raises(ConfigError, match=message):
            sk.ExperimentConfig(
                experiment="parity", n_features=2, count="all", seed=0,
                output_dir=str(tmp_path), encoders=encoders,
            )

    def test_bool_is_not_an_integer(self, tmp_path):
        with pytest.raises(ConfigError):
            sk.ExperimentConfig.from_dict(parity_config(tmp_path, seed=True))

    def test_numpy_integers_are_integers(self, tmp_path):
        raw = parity_config(tmp_path, n_features=np.int64(4), count=np.int32(3), seed=np.uint8(7))
        cfg = sk.ExperimentConfig.from_dict(raw)
        assert [type(v) for v in (cfg.n_features, cfg.count, cfg.seed)] == [int, int, int]
        assert json.dumps(cfg.to_jsonable()) == json.dumps(sk.ExperimentConfig.from_dict(parity_config(
            tmp_path, n_features=4, count=3, seed=7)).to_jsonable())

    @pytest.mark.parametrize("count", [np.array([3, 4]), np.array([3])], ids=["two", "one"])
    def test_an_array_count_is_a_config_error(self, tmp_path, count):
        # two elements once raised a bare ValueError from the comparison with "all"
        with pytest.raises(ConfigError, match=f"^count must be an integer >= 1, got {re.escape(repr(count))}$"):
            sk.ExperimentConfig.from_dict(parity_config(tmp_path, count=count))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("n_features", 0, "^n_features must be an integer >= 1, got 0$"),
            ("count", 2.0, "^count must be an integer >= 1, got 2.0$"),
            ("seed", -1, "^seed must be an integer >= 0, got -1$"),
        ],
        ids=["n_features", "count", "seed"],
    )
    def test_integer_fields_through_the_scalar_intake(self, tmp_path, key, value, message):
        with pytest.raises(ConfigError, match=message):
            sk.ExperimentConfig.from_dict(parity_config(tmp_path, **{key: value}))

    def test_count_all_accepted(self, tmp_path):
        cfg = sk.ExperimentConfig.from_dict(parity_config(tmp_path))
        assert cfg.count == "all"

    def test_qift_block_strict(self, tmp_path):
        raw = parity_config(tmp_path, qift={"mu": 1.0, "gamma": 2.0})
        with pytest.raises(ConfigError, match="unknown qift keys"):
            sk.ExperimentConfig.from_dict(raw)

    def test_qift_topology_matrix(self, tmp_path):
        j = [[0.0, 1.0], [1.0, 0.0]]
        raw = parity_config(tmp_path, n_features=2, encoders=["qift"], qift={"topology": j})
        cfg = sk.ExperimentConfig.from_dict(raw)
        assert np.array_equal(cfg.qift_params().coupling_for(2), np.array(j))

    def test_qift_bad_tau(self, tmp_path):
        with pytest.raises(ConfigError, match="tau"):
            sk.ExperimentConfig.from_dict(parity_config(tmp_path, qift={"tau": -0.1}))

    @pytest.mark.parametrize(
        "block, message",
        [
            ('{"mu": NaN}', "^non-finite value in mu or tau$"),
            ('{"mu": Infinity}', "^non-finite value in mu or tau$"),
            ('{"tau": NaN}', "^non-finite value in mu or tau$"),
            ('{"tau": Infinity}', "^non-finite value in mu or tau$"),
            ('{"mu": true}', "^mu must be a real number, got True$"),
            ('{"mu": 1' + "0" * 400 + "}", "^non-finite value in mu or tau$"),
        ],
        ids=["mu-nan", "mu-infinity", "tau-nan", "tau-infinity", "mu-bool", "mu-beyond-float"],
    )
    def test_qift_mu_and_tau_are_finite_numbers(self, tmp_path, block, message):
        raw = parity_config(tmp_path, encoders=["qift"], qift=json.loads(block))
        with pytest.raises(ConfigError, match=message):
            sk.ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "topology, message",
        [
            ([["a", "b"], ["c", "d"]], "^topology must be an array of numbers safely castable to float64$"),
            ([[0.0, 1.0], [1.0]], "^topology must be an array of numbers safely castable to float64$"),
            ([[0.0, 1.0], [2.0, 0.0]], "^coupling matrix must be exactly symmetric$"),
            ([[1.0, 1.0], [1.0, 0.0]], "^coupling matrix must have zero diagonal$"),
        ],
        ids=["strings", "ragged", "asymmetric", "diagonal"],
    )
    def test_qift_bad_topology(self, tmp_path, topology, message):
        raw = parity_config(tmp_path, n_features=2, encoders=["qift"], qift={"topology": topology})
        with pytest.raises(ConfigError, match=message):
            sk.ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "experiment, encoders", [("curvature-scan", []), ("resonance", []), ("parity", ["amplitude", "qift"])]
    )
    def test_qift_topology_of_the_wrong_size(self, tmp_path, experiment, encoders):
        qift = {"topology": sk.ring_coupling(3).tolist()}
        raw = parity_config(tmp_path, experiment=experiment, count=2, encoders=encoders, qift=qift)
        with pytest.raises(ConfigError, match=r"^explicit coupling matrix has shape \(3, 3\), expected \(4, 4\)$"):
            sk.ExperimentConfig.from_dict(raw)
        # interference-audit, and parity without the qift encoder, build no Hamiltonian and refuse the block
        with pytest.raises(ConfigError, match="^interference-audit does not read qift$"):
            sk.ExperimentConfig.from_dict(dict(raw, experiment="interference-audit", encoders=[]))
        with pytest.raises(ConfigError, match="^parity reads qift only with the qift encoder$"):
            sk.ExperimentConfig.from_dict(dict(raw, experiment="parity", encoders=["amplitude"]))

    def test_qift_block_echo(self, tmp_path):
        raw = parity_config(tmp_path, n_features=2, encoders=["qift"], qift={"mu": 1, "topology": [[0, 1], [1, 0]]})
        echo = sk.ExperimentConfig.from_dict(raw).to_jsonable()["qift"]
        assert echo == {"mu": 1.0, "tau": 0.1, "topology": [[0.0, 1.0], [1.0, 0.0]]}
        assert type(echo["mu"]) is float and type(echo["topology"][0][1]) is float

    def test_the_dataclass_fields_are_the_json_schema(self, tmp_path):
        names, qift_names = [f.name for f in fields(sk.ExperimentConfig)], [f.name for f in fields(sk.QiftParams)]
        # resonance reads qift and tolerance, and an empty encoder list is no input: every field can be named
        qift = {f.name: f.default for f in fields(sk.QiftParams)}
        raw = parity_config(tmp_path, experiment="resonance", n_features=2, count=3, encoders=[], qift=qift, tolerance=0.5)
        assert sorted(raw) == sorted(names) and sorted(qift) == sorted(qift_names)
        echo = sk.ExperimentConfig.from_dict(raw).to_jsonable()
        assert (list(echo), list(echo["qift"])) == (names, qift_names)  # field order, output_dir before encoders
        assert sk.ExperimentConfig.from_dict(echo).to_jsonable() == echo
        unset = sk.ExperimentConfig.from_dict(dict(raw, qift=None, tolerance=None)).to_jsonable()
        assert list(unset) == [name for name in names if name not in ("qift", "tolerance")]
        required = [f.name for f in fields(sk.ExperimentConfig) if f.default is MISSING is f.default_factory]
        assert required[-1] == "output_dir"
        for name in required:
            with pytest.raises(ConfigError, match=f"^missing config keys: \\['{name}'\\]$"):
                sk.ExperimentConfig.from_dict({k: v for k, v in raw.items() if k != name})

    def test_parity_requires_encoders(self, tmp_path):
        with pytest.raises(ConfigError, match="encoders"):
            sk.ExperimentConfig.from_dict(parity_config(tmp_path, encoders=[]))

    def test_parity_requires_power_of_two(self, tmp_path):
        with pytest.raises(ConfigError, match="power of 2"):
            sk.ExperimentConfig.from_dict(parity_config(tmp_path, n_features=3))

    def test_resonance_needs_integer_count(self, tmp_path):
        raw = parity_config(tmp_path, experiment="resonance", count="all", encoders=[])
        with pytest.raises(ConfigError, match="count"):
            sk.ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("experiment", ["curvature-scan", "resonance", "interference-audit"])
    def test_qubit_experiments_capped_at_12(self, tmp_path, experiment):
        count = 1 if experiment == "curvature-scan" else 2
        raw = parity_config(tmp_path, experiment=experiment, n_features=12, count=count, encoders=[])
        assert sk.ExperimentConfig.from_dict(raw).n_features == 12
        for n in (13, 15):
            with pytest.raises(ConfigError, match="12 qubits"):
                sk.ExperimentConfig.from_dict(dict(raw, n_features=n))

    def test_parity_components_capped_at_32(self, tmp_path):
        assert sk.ExperimentConfig.from_dict(parity_config(tmp_path, n_features=32, count=4))
        with pytest.raises(ConfigError, match="32 components"):
            sk.ExperimentConfig.from_dict(parity_config(tmp_path, n_features=64, count=4))

    def test_parity_samples_capped(self, tmp_path):
        limit = sk.experiments.MAX_PARITY_SAMPLES
        assert limit == 4096
        for n, count in ((16, limit), (8, "all"), (4, "all")):
            assert sk.ExperimentConfig.from_dict(parity_config(tmp_path, n_features=n, count=count))
        for n, count in ((16, limit + 1), (16, "all"), (32, "all")):
            with pytest.raises(ConfigError, match="4096 samples"):
                sk.ExperimentConfig.from_dict(parity_config(tmp_path, n_features=n, count=count))

    def test_resonance_specs_capped(self, tmp_path):
        limit = sk.experiments.MAX_RESONANCE_SPECS
        assert limit == 1024
        raw = parity_config(tmp_path, experiment="resonance", n_features=2, encoders=[])
        assert sk.ExperimentConfig.from_dict(dict(raw, count=limit)).count == limit
        for count in (limit + 1, 10_000):
            with pytest.raises(ConfigError, match="at most 1024 specs"):
                sk.ExperimentConfig.from_dict(dict(raw, count=count))

    def test_qift_encoder_capped_at_12_qubits(self, tmp_path):
        raw = parity_config(tmp_path, n_features=16, count=4, encoders=["amplitude"])
        assert sk.ExperimentConfig.from_dict(raw)
        with pytest.raises(ConfigError, match="12 qubits"):
            sk.ExperimentConfig.from_dict(dict(raw, encoders=["amplitude", "qift"]))

    # one row per rule: a valid config of the experiment, changed by the overrides, and
    # the whole message it must raise; the last rows give more than one fault and pin
    # which rule is met first (a known encoder, then an input the experiment reads, then its
    # own rules: the qubit cap, then the topology's shape, then the count, and parity's qift
    # block without the qift encoder last)
    @pytest.mark.parametrize(
        "experiment, overrides, message",
        [
            ("teleport", {}, "unknown experiment 'teleport'; expected one of "
             "('parity', 'curvature-scan', 'resonance', 'interference-audit')"),
            (["parity"], {}, "unknown experiment ['parity']; expected one of "
             "('parity', 'curvature-scan', 'resonance', 'interference-audit')"),
            ("parity", {"encoders": []}, "parity experiment requires a non-empty encoders list"),
            ("parity", {"n_features": 3}, "parity experiment requires n_features to be a power of 2 (>= 2)"),
            ("parity", {"n_features": 1}, "parity experiment requires n_features to be a power of 2 (>= 2)"),
            ("parity", {"n_features": 64, "count": 4}, "parity supports at most 32 components, got 64"),
            ("parity", {"n_features": 16}, "parity supports at most 4096 samples, got 65536"),
            ("parity", {"n_features": 16, "count": 4097}, "parity supports at most 4096 samples, got 4097"),
            ("parity", {"count": 17}, "count 17 exceeds the 16 distinct sign vectors"),
            ("parity", {"n_features": 16, "count": 4, "encoders": ["qift"]},
             "the qift encoder supports at most 12 qubits, got 16"),
            ("parity", {"encoders": ["qift"], "qift": {"topology": RING_3}}, WRONG_SHAPE),
            ("curvature-scan", {"n_features": 13}, "curvature-scan supports at most 12 qubits, got 13"),
            ("resonance", {"n_features": 13}, "resonance supports at most 12 qubits, got 13"),
            ("interference-audit", {"n_features": 13}, "interference-audit supports at most 12 qubits, got 13"),
            ("curvature-scan", {"qift": {"topology": RING_3}}, WRONG_SHAPE),
            ("resonance", {"qift": {"topology": RING_3}}, WRONG_SHAPE),
            ("curvature-scan", {"qift": {"topology": RING_4_TRUE}},
             "topology must be an array of numbers safely castable to float64"),
            ("resonance", {"count": 1}, "resonance experiment requires an integer count >= 2"),
            ("resonance", {"count": "all"}, "resonance experiment requires an integer count >= 2"),
            ("resonance", {"count": 1025}, "resonance supports at most 1024 specs, got 1025"),
            ("curvature-scan", {"count": "all"}, "curvature-scan requires an integer count"),
            ("interference-audit", {"count": "all"}, "interference-audit requires an integer count"),
            ("curvature-scan", {"count": 2}, "curvature-scan requires count 1, got 2"),
            ("curvature-scan", {"encoders": ["amplitude"]}, "curvature-scan does not read encoders"),
            ("resonance", {"encoders": ["amplitude"]}, "resonance does not read encoders"),
            ("interference-audit", {"encoders": ["amplitude"]}, "interference-audit does not read encoders"),
            ("interference-audit", {"qift": {}}, "interference-audit does not read qift"),
            ("parity", {"qift": {}}, "parity reads qift only with the qift encoder"),
            ("interference-audit", {"encoders": ["warp"]}, "unknown encoder 'warp'; expected one of "
             "('probability_loading', 'amplitude', 'phase', 'qift')"),
            ("resonance", {"n_features": 13, "encoders": ["qift"], "count": 1}, "resonance does not read encoders"),
            ("interference-audit", {"n_features": 13, "qift": {}}, "interference-audit does not read qift"),
            ("parity", {"n_features": 3, "qift": {}}, "parity experiment requires n_features to be a power of 2 (>= 2)"),
            ("resonance", {"n_features": 13, "qift": {"topology": RING_3}, "count": "all"},
             "resonance supports at most 12 qubits, got 13"),
            ("resonance", {"qift": {"topology": RING_3}, "count": "all"}, WRONG_SHAPE),
            ("curvature-scan", {"n_features": 13, "count": "all"}, "curvature-scan supports at most 12 qubits, got 13"),
            ("interference-audit", {"n_features": 13, "count": "all"},
             "interference-audit supports at most 12 qubits, got 13"),
            ("curvature-scan", {"n_features": 13, "count": 2}, "curvature-scan supports at most 12 qubits, got 13"),
        ],
    )
    def test_every_rule_raises_its_own_message(self, tmp_path, experiment, overrides, message):
        raw = parity_config(tmp_path, experiment=experiment)
        if experiment != "parity":
            raw.update(count=1 if experiment == "curvature-scan" else 2, encoders=[])
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            sk.ExperimentConfig.from_dict(dict(raw, **overrides))
        if experiment in sk.EXPERIMENT_IDS:
            assert sk.ExperimentConfig.from_dict(raw)  # the fault alone is rejected


class TestRunExperiment:
    def test_parity_contrast_report(self, tmp_path):
        cfg = sk.ExperimentConfig.from_dict(parity_config(tmp_path))
        report = sk.run_experiment(cfg)
        per = report.results["per_encoder"]
        assert per["probability_loading"]["accuracy"] == 0.5
        assert per["probability_loading"]["distinguishability"] == 0.0
        assert per["amplitude"]["accuracy"] == 1.0
        assert per["amplitude"]["distinguishability"] > 0.0
        assert (tmp_path / "out" / "parity_results.csv").exists()
        assert (tmp_path / "out" / "report.json").exists()

    def test_report_json_structure(self, tmp_path):
        cfg = sk.ExperimentConfig.from_dict(parity_config(tmp_path))
        sk.run_experiment(cfg)
        with open(tmp_path / "out" / "report.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert set(doc) == {"config", "results", "provenance"}
        assert doc["provenance"]["version"] == sk.__version__
        assert doc["provenance"]["seed"] == 0
        assert "timestamp" in doc["provenance"]
        assert doc["config"]["experiment"] == "parity"

    def test_report_json_records_the_numeric_environment(self, tmp_path):
        sk.run_experiment(sk.ExperimentConfig.from_dict(parity_config(tmp_path)))
        doc = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        numerics = doc["provenance"]["numerics"]
        assert set(numerics) == {"numpy", "blas", "simd_found", "thread_pins", "cpus"}
        assert numerics["numpy"] == np.__version__
        assert numerics["blas"]["name"] == np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        assert set(numerics["thread_pins"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert isinstance(numerics["simd_found"], list) and numerics["cpus"] >= 1

    def test_numeric_environment_is_a_fresh_copy(self):
        # np.show_config(mode="dicts") hands out numpy's own configuration dict
        numerics = experiments._numerics()
        numerics["simd_found"].append("bogus")
        numerics["blas"]["name"] = "bogus"
        config = np.show_config(mode="dicts")
        assert "bogus" not in config["SIMD Extensions"]["found"]
        assert config["Build Dependencies"]["blas"]["name"] != "bogus"
        assert experiments._numerics()["simd_found"] == config["SIMD Extensions"]["found"]

    def test_numeric_environment_names_the_openblas_core_or_none(self, monkeypatch):
        # read from the library numpy.linalg loads, which links the BLAS; another BLAS has no such symbol
        core = experiments._numerics()["blas"]["core"]
        assert core is None or isinstance(core, str) and core
        monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
        assert experiments._numerics()["blas"]["core"] is None

    def test_byte_identical_csv_across_runs(self, tmp_path):
        cfg_a = sk.ExperimentConfig.from_dict(parity_config(tmp_path, output_dir=str(tmp_path / "a")))
        cfg_b = sk.ExperimentConfig.from_dict(parity_config(tmp_path, output_dir=str(tmp_path / "b")))
        sk.run_experiment(cfg_a)
        sk.run_experiment(cfg_b)
        bytes_a = (tmp_path / "a" / "parity_results.csv").read_bytes()
        bytes_b = (tmp_path / "b" / "parity_results.csv").read_bytes()
        assert bytes_a == bytes_b
        assert b"\r\n" in bytes_a  # RFC-4180 line endings

    def test_no_partial_files_on_invalid_config(self, tmp_path):
        raw = parity_config(tmp_path, encoders=["probability_loading", "warp"])
        with pytest.raises(ConfigError):
            sk.ExperimentConfig.from_dict(raw)
        assert not (tmp_path / "out").exists()

    def test_failing_compute_writes_nothing(self, tmp_path, monkeypatch):
        # a valid config, but the run itself fails: its third spectrum raises
        raw = parity_config(tmp_path, experiment="resonance", n_features=2, count=3, encoders=[])
        cfg = sk.ExperimentConfig.from_dict(raw)
        profiles = []

        def failing_profile(spec):
            profiles.append(spec)
            if len(profiles) == 3:
                raise StatekitError("eigensolver failed")
            return sk.spectral_profile(spec)

        monkeypatch.setattr(experiments, "spectral_profile", failing_profile)
        with pytest.raises(StatekitError, match=r"^eigensolver failed$"):
            sk.run_experiment(cfg)
        assert len(profiles) == 3
        assert not (tmp_path / "out").exists()

    def test_curvature_scan_run(self, tmp_path):
        raw = {
            "experiment": "curvature-scan",
            "n_features": 3,
            "count": 1,
            "seed": 11,
            "qift": {"mu": 1.0, "tau": 0.1, "topology": "ring"},
            "output_dir": str(tmp_path / "scan"),
        }
        report = sk.run_experiment(sk.ExperimentConfig.from_dict(raw))
        assert 2.8 <= report.results["fitted_slope"] <= 3.2
        csv_text = (tmp_path / "scan" / "curvature_scan.csv").read_text()
        assert csv_text.startswith("tau,error")
        assert len(csv_text.strip().splitlines()) == 14  # header + 13 points

    def test_curvature_scan_refuses_a_count_other_than_one(self, tmp_path):
        # the scan draws one spec from seed, so a count of more specs would go unread
        raw = {"experiment": "curvature-scan", "n_features": 3, "count": 1, "seed": 11,
               "output_dir": str(tmp_path / "scan")}
        assert sk.ExperimentConfig.from_dict(raw).count == 1
        with pytest.raises(ConfigError, match="^curvature-scan requires count 1, got 7$"):
            sk.ExperimentConfig.from_dict(dict(raw, count=7))

    @pytest.mark.parametrize("experiment", ["parity", "curvature-scan", "interference-audit"])
    @pytest.mark.parametrize("form", ["key", "flag"])
    def test_only_resonance_reads_a_tolerance(self, tmp_path, capsys, experiment, form):
        # the config's "tolerance" key, or `statekit run --tol`, which writes that key
        raw = parity_config(tmp_path, experiment=experiment, n_features=2)
        if experiment != "parity":
            raw.update(count=1, encoders=[])
        sk.ExperimentConfig.from_dict(raw)  # valid without the tolerance
        if form == "key":
            with pytest.raises(ConfigError, match=f"^{experiment} does not read tolerance$"):
                sk.ExperimentConfig.from_dict(dict(raw, tolerance=1e-3))
        else:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(raw))
            assert cli.main(["run", str(path), "--tol", "1e-3"]) == 2
            assert capsys.readouterr().err == f"error: {experiment} does not read tolerance\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "tolerance, message",
        [
            (float("nan"), "tolerance must be finite and > 0, got nan"),
            (float("inf"), "tolerance must be finite and > 0, got inf"),
            (0, "tolerance must be finite and > 0, got 0"),
            (-1e-3, "tolerance must be finite and > 0, got -0.001"),
            (True, "tolerance must be a real number, got True"),
            ("0.1", "tolerance must be a real number, got '0.1'"),
        ],
        ids=["nan", "inf", "zero", "negative", "bool", "string"],
    )
    def test_resonance_tolerance_is_checked_at_load(self, tmp_path, tolerance, message):
        raw = parity_config(tmp_path, experiment="resonance", n_features=2, count=3, encoders=[], tolerance=tolerance)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            sk.ExperimentConfig.from_dict(raw)

    def test_tolerance_is_echoed_only_when_set(self, tmp_path):
        raw = parity_config(tmp_path, experiment="resonance", n_features=2, count=3, encoders=[])
        assert "tolerance" not in sk.ExperimentConfig.from_dict(raw).to_jsonable()
        assert sk.ExperimentConfig.from_dict(dict(raw, tolerance=None)).tolerance is None  # JSON null: not set
        cfg = sk.ExperimentConfig.from_dict(dict(raw, tolerance=1))
        assert cfg.tolerance == 1.0 and type(cfg.tolerance) is float
        assert cfg.to_jsonable()["tolerance"] == 1.0
        assert compute_experiment(cfg)[0]["tolerance"] == 1.0

    def test_resonance_run(self, tmp_path):
        raw = {
            "experiment": "resonance",
            "n_features": 2,
            "count": 4,
            "seed": 2,
            "output_dir": str(tmp_path / "res"),
        }
        report = sk.run_experiment(sk.ExperimentConfig.from_dict(raw))
        assert report.results["n_pairs"] == 6
        assert len(report.results["gaps"]) == 4
        assert report.results["tolerance"] == sk.TOLS.resonance

    @pytest.mark.parametrize("count", [2, 3, 5])
    def test_resonance_one_eigendecomposition_per_spec(self, tmp_path, eigh_calls, count):
        raw = {"experiment": "resonance", "n_features": 3, "count": count, "seed": 4,
               "output_dir": str(tmp_path / "res")}
        compute_experiment(sk.ExperimentConfig.from_dict(raw))
        assert len(eigh_calls) == count

    # 92 specs make 4,186 pairs, more than one block of CSV rows
    @pytest.mark.parametrize("n, count", [(3, 6), (2, 92)])
    def test_resonance_rows_match_pairwise_verdicts(self, tmp_path, n, count):
        qift = {"mu": 0.8, "tau": 0.1, "topology": "complete"}
        raw = {"experiment": "resonance", "n_features": n, "count": count, "seed": 9, "qift": qift,
               "tolerance": 0.5, "output_dir": str(tmp_path / "res")}
        results, (table,) = compute_experiment(sk.ExperimentConfig.from_dict(raw))
        # the runner draws each spec's fields uniformly from [-pi, pi], in order
        draws = np.random.default_rng(9)
        specs = [
            sk.HamiltonianSpec(draws.uniform(-np.pi, np.pi, n), sk.complete_coupling(n), mu=0.8)
            for _ in range(count)
        ]
        pairs = count * (count - 1) // 2
        assert results["gaps"] == [sk.spectral_profile(s).mass_gap for s in specs]
        assert len(table.rows) == pairs
        for a, b, gap_a, gap_b, delta, resonant in table.rows:
            v = sk.resonance_similarity(specs[a], specs[b], 0.5)
            assert (gap_a, gap_b, delta, resonant) == (v.gap_a, v.gap_b, v.delta, v.resonant)
        assert 0 < results["n_resonant"] < pairs
        assert results["n_resonant"] == sum(row[5] for row in table.rows)

    def test_interference_audit_run(self, tmp_path):
        raw = {
            "experiment": "interference-audit",
            "n_features": 2,
            "count": 6,
            "seed": 5,
            "output_dir": str(tmp_path / "audit"),
        }
        report = sk.run_experiment(sk.ExperimentConfig.from_dict(raw))
        assert report.results["max_decomposition_residual"] < 1e-10
        assert report.results["max_trap_residual"] < 1e-12

    def test_interference_audit_checks_each_operator_once(self, tmp_path, unitary_checks):
        raw = {"experiment": "interference-audit", "n_features": 3, "count": 2, "seed": 5,
               "output_dir": str(tmp_path / "audit")}
        compute_experiment(sk.ExperimentConfig.from_dict(raw))
        # per case: one Haar U for all 8 outcomes, one diagonal D for the trap
        assert len(unitary_checks) == 4
        assert [u.dim for u in unitary_checks] == [8] * 4

    @pytest.mark.parametrize(
        "n_features, count, encoders",
        [(16, 300, ("probability_loading", "amplitude", "phase")), (8, "all", sk.ENCODER_IDS)],
    )
    def test_parity_rows_equal_the_oracle_recomputation(self, tmp_path, n_features, count, encoders):
        raw = parity_config(tmp_path, n_features=n_features, count=count, seed=5, encoders=list(encoders))
        _, (table,) = compute_experiment(sk.ExperimentConfig.from_dict(raw))
        expected = parity_rows_oracle(sk.gen_parity_dataset(n_features, count, 5), encoders)
        assert repr(table.rows) == repr(tuple(expected))

    def test_compute_experiment_touches_no_files(self, tmp_path):
        cfg = sk.ExperimentConfig.from_dict(parity_config(tmp_path))
        results, tables = compute_experiment(cfg)
        assert not (tmp_path / "out").exists()
        assert tables[0].name == "parity_results"
        assert results["per_encoder"]["amplitude"]["accuracy"] == 1.0

    def test_qift_encoder_in_parity_run(self, tmp_path):
        raw = parity_config(tmp_path, encoders=["probability_loading", "qift"],
                            qift={"mu": 1.0, "tau": 0.1, "topology": "ring"})
        report = sk.run_experiment(sk.ExperimentConfig.from_dict(raw))
        per = report.results["per_encoder"]
        assert 0.0 <= per["qift"]["accuracy"] <= 1.0
        assert per["qift"]["distinguishability"] > 0.0


def oracle_cell(value):
    """One cell's text, by a rule chosen for each value from its Python or numpy type."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def csv_oracle(header, columns):
    """The CSV text row by row: csv.writer with oracle_cell on each value as the columns hold it."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([oracle_cell(v) for v in row])
    return buf.getvalue()


class TestTable:
    def test_rejects_a_column_count_other_than_the_header(self):
        with pytest.raises(StatekitError, match="1 columns for 2 header fields"):
            experiments.Table("t", ("a", "b"), ([1, 2],))
        with pytest.raises(StatekitError, match="3 columns for 2 header fields"):
            experiments.Table("t", ("a", "b"), ([1], [2], [3]))

    @pytest.mark.parametrize("short", [0, 2, 4])
    def test_rejects_columns_of_unequal_length(self, short):
        # zip would silently drop the rows of the longer columns
        with pytest.raises(StatekitError, match="table columns differ in length"):
            experiments.Table("t", ("a", "b", "c"), (np.arange(3), [0.5] * short, np.ones(3, dtype=bool)))

    def test_rows_hold_plain_python_values(self):
        table = experiments.Table("t", ("i", "x", "ok", "s"),
                                  (np.arange(2), np.array([0.5, -0.0]), np.array([True, False]), ("a", "b")))
        assert table.rows == ((0, 0.5, True, "a"), (1, -0.0, False, "b"))
        assert [type(v) for v in table.rows[1]] == [int, float, bool, str]

    BLOCK = experiments._CSV_ROWS

    @pytest.mark.parametrize("m", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7])
    def test_csv_equals_the_row_by_row_writer(self, m):
        rng = np.random.default_rng(m)
        floats = rng.normal(size=m) * 10.0 ** rng.integers(-320, 300, size=m)
        special = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072009e-308, 0.1, 1e300]
        floats[::997] = np.resize(special, floats[::997].size)
        strings = ["plain", "a,b", 'say "hi"', "two\nlines", "", " pad "]
        columns = (
            np.arange(m) - m // 2,
            np.arange(m, dtype=np.uint8),
            rng.random(m) < 0.5,
            [bool(v) for v in rng.random(m) < 0.5],
            [int(v) for v in rng.integers(-2**62, 2**62, size=m)],
            floats,
            floats.tolist(),
            rng.normal(size=m).astype(np.float32),
            [strings[i % len(strings)] for i in range(m)],
        )
        header = ("int64", "uint8", "np_bool", "bool", "int", "float64", "float", "float32", "name, quoted")
        table = experiments.Table("t", header, columns)
        buf = io.StringIO()
        experiments.write_csv(buf, table)
        assert buf.getvalue() == csv_oracle(header, columns)

    def test_a_resonance_pair_table_equals_the_row_by_row_writer(self, tmp_path):
        raw = {"experiment": "resonance", "n_features": 2, "count": 64, "seed": 7, "output_dir": str(tmp_path)}
        _, (table,) = compute_experiment(sk.ExperimentConfig.from_dict(raw))
        # gathered gaps, int64 spec indices and a bool verdict: every kind a column holds
        assert [c.dtype for c in table.columns] == [np.int64] * 2 + [np.float64] * 3 + [np.bool_]
        assert len(table.columns[0]) == 64 * 63 // 2
        buf = io.StringIO()
        experiments.write_csv(buf, table)
        assert buf.getvalue() == csv_oracle(table.header, table.columns)

    def test_every_written_table_holds_one_kind_per_column(self, capsys, monkeypatch, tmp_path):
        # the writer reads a column's rule from its first value, so no column may mix kinds
        written = []

        def record(write):
            def recording(fh, table):
                written.append(table)
                return write(fh, table)
            return recording

        monkeypatch.setattr(experiments, "write_csv", record(experiments.write_csv))
        monkeypatch.setattr(cli, "write_csv", record(cli.write_csv))
        configs = [
            parity_config(tmp_path, encoders=list(sk.ENCODER_IDS)),
            {"experiment": "curvature-scan", "n_features": 2, "count": 1, "seed": 3},
            {"experiment": "resonance", "n_features": 2, "count": 5, "seed": 3},
            {"experiment": "interference-audit", "n_features": 2, "count": 3, "seed": 3},
        ]
        for raw in configs:
            sk.run_experiment(sk.ExperimentConfig.from_dict({**raw, "output_dir": str(tmp_path / "out")}))
        for argv in (
            ["encode", "--encoder", "amplitude", "--values", "1,2,3"],
            ["interfere", "--dim", "4", "--unitary", "haar", "--seed", "1"],
            ["trotter-scan", "--n", "2", "--seed", "1"],
            ["spectrum", "--x", "1,0.5", "--zeeman=-0.1:0.1:5"],
            ["resonance", "--x-a", "1,0.5", "--x-b=-1,0.5"],
        ):
            assert cli.main(argv) == 0
        capsys.readouterr()
        names = [t.name for t in written]
        assert names == ["parity_results", "curvature_scan", "resonance_pairs", "interference_audit",
                         "state", "interference", "curvature_scan", "spectrum", "zeeman_trace", "resonance"]
        for table in written:
            for field, column in zip(table.header, table.columns):
                kinds = {type(v) for v in (column.tolist() if isinstance(column, np.ndarray) else column)}
                assert kinds in ({bool}, {int}, {float}, {str}), (table.name, field, kinds)

    def test_write_outputs_writes_the_csv_bytes(self, tmp_path):
        columns = (np.arange(5000), np.linspace(-1.0, 1.0, 5000), np.arange(5000) % 3 == 0)
        table = experiments.Table("t", ("i", "x", "b"), columns)
        experiments.write_outputs(tmp_path, [table], "summary.json", {})
        expected = csv_oracle(table.header, columns).encode("utf-8")
        assert (tmp_path / "t.csv").read_bytes() == expected
        assert expected.count(b"\r\n") == 5001


def test_encoder_table_and_qift_params_are_re_exported():
    import statekit.encoders
    import statekit.experiments
    import statekit.qift

    assert statekit.experiments.QiftParams is statekit.qift.QiftParams
    assert statekit.experiments.ENCODERS is statekit.encoders.ENCODERS
    assert statekit.experiments.ENCODER_IDS is statekit.encoders.ENCODER_IDS


# raise branches of this module that a public call reaches and no other test runs
@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda tmp: sk.LabeledDataset(np.ones((3, 2)), [1, -1], 0), StatekitError,
         "vectors and labels must have matching first dimension"),
        (lambda tmp: sk.GramMatrix(np.ones((2, 3))), StatekitError, "Gram matrix must be square, got (2, 3)"),
        (lambda tmp: sk.gen_parity_dataset(4, 0), StatekitError, "count must be a positive integer or 'all'"),
        (lambda tmp: sk.ExperimentConfig.from_dict(parity_config(tmp, encoders="amplitude")), ConfigError,
         "encoders must be a list"),
        (lambda tmp: sk.ExperimentConfig.from_dict(parity_config(tmp, output_dir="")), ConfigError,
         "output_dir must be a non-empty string"),
        (lambda tmp: sk.ExperimentConfig.from_dict(parity_config(tmp, output_dir=["out"])), ConfigError,
         "output_dir must be a non-empty string"),
        (lambda tmp: sk.ExperimentConfig.from_dict(parity_config(tmp, encoders=["qift"], qift=[1.0])), ConfigError,
         "qift block must be a JSON object"),
    ],
    ids=["dataset-rows", "gram-square", "parity-count", "encoders-list", "output-dir-empty", "output-dir-list",
         "qift-object"],
)
def test_intake_rule_raises_its_message(tmp_path, call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(tmp_path)
