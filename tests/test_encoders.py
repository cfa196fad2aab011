import numpy as np
import pytest

import statekit as sk
from statekit.errors import DimensionMismatchError, StatekitError

SQ2 = 1.0 / np.sqrt(2.0)


class TestProbabilityLoading:
    def test_uniform_two(self):
        psi = sk.probability_loading([0.5, 0.5])
        assert np.abs(psi.amplitudes - np.array([SQ2, SQ2])).max() < 1e-15

    def test_degenerate(self):
        psi = sk.probability_loading([1.0, 0.0])
        assert np.array_equal(psi.amplitudes, [1.0, 0.0])

    def test_round_trip_dirichlet(self, rng):
        for _ in range(50):
            p = rng.dirichlet(np.ones(8))
            psi = sk.probability_loading(p)
            back = np.abs(psi.amplitudes) ** 2
            assert np.abs(back - p).max() < 1e-12

    def test_negative_entry_rejected(self):
        with pytest.raises(StatekitError):
            sk.probability_loading([1.2, -0.2])

    def test_bad_sum_rejected(self):
        with pytest.raises(StatekitError):
            sk.probability_loading([0.7, 0.7])

    def test_padding_recorded(self):
        psi = sk.probability_loading([0.5, 0.25, 0.25])
        assert psi.dim == 4
        assert psi.padded_from == 3

    def test_result_in_positive_orthant(self, rng):
        for _ in range(10):
            psi = sk.probability_loading(rng.dirichlet(np.ones(4)))
            assert sk.in_positive_orthant(psi)


class TestAmplitudeEncoding:
    def test_ones(self):
        psi = sk.amplitude_encoding([1.0, 1.0])
        assert np.abs(psi.amplitudes - np.array([SQ2, SQ2])).max() < 1e-15

    def test_sign_orthogonality(self):
        a = sk.amplitude_encoding([1.0, -1.0])
        b = sk.amplitude_encoding([1.0, 1.0])
        assert abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2 < 1e-12

    def test_normalization_arithmetic(self):
        psi = sk.amplitude_encoding([3.0, 4.0, 0.0, 0.0])
        assert np.abs(psi.amplitudes - np.array([0.6, 0.8, 0.0, 0.0])).max() < 1e-15

    def test_zero_vector_rejected(self):
        with pytest.raises(StatekitError):
            sk.amplitude_encoding([0.0, 0.0])

    def test_padding(self):
        psi = sk.amplitude_encoding([1.0, 2.0, 3.0])
        assert psi.dim == 4
        assert psi.padded_from == 3
        assert psi.amplitudes[3] == 0.0

    def test_global_sign_flip_fidelity_one(self, rng):
        x = rng.standard_normal(8)
        a = sk.amplitude_encoding(x)
        b = sk.amplitude_encoding(-x)
        assert abs(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2 - 1.0) < 1e-12


class TestPhaseEncoding:
    def test_zero_phases_reduce_to_loading(self, rng):
        p = rng.dirichlet(np.ones(4))
        a = sk.phase_encoding(p, np.zeros(4))
        b = sk.probability_loading(p)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_pi_phase_gives_minus(self):
        psi = sk.phase_encoding([0.5, 0.5], [0.0, np.pi])
        assert np.abs(psi.amplitudes - np.array([SQ2, -SQ2])).max() < 1e-12

    def test_born_statistics_unchanged(self, rng):
        for _ in range(100):
            dim = 1 << int(rng.integers(1, 5))
            p = rng.dirichlet(np.ones(dim))
            phi = rng.uniform(0, 2 * np.pi, dim)
            probs = np.abs(sk.phase_encoding(p, phi).amplitudes) ** 2
            ref = np.abs(sk.probability_loading(p).amplitudes) ** 2
            assert np.abs(probs - ref).max() < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            sk.phase_encoding([0.5, 0.5], [0.0, 0.0, 0.0, 0.0])


class TestPositiveOrthant:
    def test_loaded_state_true(self, rng):
        psi = sk.probability_loading(rng.dirichlet(np.ones(8)))
        assert sk.in_positive_orthant(psi)

    def test_negative_amplitude_false(self):
        psi = sk.StateVector(np.array([SQ2, -SQ2]))
        assert not sk.in_positive_orthant(psi)

    def test_tolerance_boundary(self):
        psi = sk.phase_encoding([0.5, 0.5], [0.0, 1e-14])
        assert sk.in_positive_orthant(psi, tol=1e-12)

    def test_complex_phase_false(self):
        psi = sk.phase_encoding([0.5, 0.5], [0.0, 0.3])
        assert not sk.in_positive_orthant(psi, tol=1e-12)

    def test_tol_must_be_positive(self):
        with pytest.raises(StatekitError):
            sk.in_positive_orthant(sk.StateVector(np.eye(2)[0]), tol=0.0)


class TestStateCollapse:
    def test_sign_patterns_collapse_to_one_state(self, rng):
        # any sign pattern applied to the data yields the identical loaded state
        x = rng.standard_normal(8)
        x[np.abs(x) < 1e-3] += 1.0
        ref = None
        for _ in range(20):
            signs = rng.choice([-1.0, 1.0], size=8)
            flipped = signs * x
            p = flipped**2 / np.sum(flipped**2)
            psi = sk.probability_loading(p)
            if ref is None:
                ref = psi
            assert abs(abs(np.vdot(ref.amplitudes, psi.amplitudes)) ** 2 - 1.0) < 1e-12
            assert np.array_equal(ref.amplitudes, psi.amplitudes)

    def test_amplitude_encoding_keeps_signs_apart(self):
        a = sk.amplitude_encoding([1.0, 1.0])
        b = sk.amplitude_encoding([1.0, -1.0])
        assert abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2 < 1e-12
