import numpy as np
import pytest

import statekit as sk
from statekit.errors import (
    DimensionMismatchError,
    EigensolverError,
    NotHermitianError,
    StatekitError,
)
from statekit.statevec import _row_norms

from conftest import pauli_matrix_oracle, random_hermitian


class TestTypes:
    def test_state_requires_power_of_two(self):
        with pytest.raises(StatekitError):
            sk.StateVector(np.array([1.0, 0.0, 0.0]))

    def test_state_rejects_bad_norm(self):
        with pytest.raises(StatekitError):
            sk.StateVector(np.array([1.0, 1.0]))

    def test_state_norm_tolerance_boundary(self):
        amps = np.array([1.0 + 5e-11, 0.0])
        s = sk.StateVector(amps)
        assert s.n_qubits == 1

    def test_state_is_immutable(self):
        s = sk.StateVector(np.eye(4)[0])
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    def test_operator_must_be_square_power_of_two(self):
        with pytest.raises(StatekitError):
            sk.DenseOperator(np.zeros((2, 3)))
        with pytest.raises(StatekitError):
            sk.DenseOperator(np.zeros((3, 3)))

    def test_hermitian_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitianError):
            sk.HermitianOperator(m)

    def test_distribution_rejects_negative(self):
        with pytest.raises(StatekitError):
            sk.Distribution(np.array([1.1, -0.1]))

    def test_distribution_rejects_bad_sum(self):
        with pytest.raises(StatekitError):
            sk.Distribution(np.array([0.6, 0.6]))

    def test_distribution_silent_renormalization(self):
        p = sk.Distribution(np.array([0.5, 0.5 + 3e-11]))
        assert p.probabilities.sum() == pytest.approx(1.0, abs=1e-15)

    def test_distribution_pads_to_power_of_two(self):
        p = sk.Distribution(np.array([0.5, 0.25, 0.25]))
        assert p.dim == 4
        assert p.original_length == 3
        assert p.probabilities[3] == 0.0


class TestPauliString:
    def test_single_site_z(self):
        op = sk.pauli_string(1, {0: "Z"})
        assert np.array_equal(op.matrix, np.diag([1.0 + 0j, -1.0 + 0j]))

    def test_two_site_zz(self):
        op = sk.pauli_string(2, {0: "Z", 1: "Z"})
        assert np.array_equal(np.diagonal(op.matrix).real, [1, -1, -1, 1])

    def test_y_on_two_qubits_involutory(self):
        op = sk.pauli_string(2, {0: "Y"})
        # direct 4x4 multiplication oracle
        assert np.abs(op.matrix @ op.matrix - np.eye(4)).max() < 1e-15
        assert np.abs(op.matrix - op.matrix.conj().T).max() == 0.0

    @pytest.mark.parametrize("n,assignments", [
        (1, {0: "X"}),
        (2, {1: "Y"}),
        (3, {0: "X", 2: "Z"}),
        (4, {0: "Y", 1: "Z", 3: "X"}),
    ])
    def test_matches_elementwise_oracle(self, n, assignments):
        op = sk.pauli_string(n, assignments)
        assert np.abs(op.matrix - pauli_matrix_oracle(n, assignments)).max() < 1e-15

    def test_involution_and_hermiticity_property(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            sites = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            assignments = {int(s): str(rng.choice(["X", "Y", "Z"])) for s in sites}
            op = sk.pauli_string(n, assignments)
            dim = 1 << n
            assert np.abs(op.matrix @ op.matrix - np.eye(dim)).max() < 1e-12
            assert np.abs(op.matrix - op.matrix.conj().T).max() < 1e-12

    def test_errors(self):
        with pytest.raises(StatekitError):
            sk.pauli_string(2, {})
        with pytest.raises(StatekitError):
            sk.pauli_string(2, {2: "Z"})
        with pytest.raises(StatekitError):
            sk.pauli_string(2, {0: "Q"})


class TestSpectralDecomposition:
    def test_diagonal_input(self):
        dec = sk.hermitian_spectral_decomposition(sk.HermitianOperator(np.diag([3.0, 1.0])))
        assert np.array_equal(dec.eigenvalues, [1.0, 3.0])

    def test_pauli_y_spectrum(self):
        dec = sk.hermitian_spectral_decomposition(sk.pauli_string(1, {0: "Y"}))
        assert np.abs(dec.eigenvalues - np.array([-1.0, 1.0])).max() < 1e-14

    def test_reconstruction_residual(self, rng):
        h = sk.HermitianOperator(random_hermitian(8, rng))
        dec = sk.hermitian_spectral_decomposition(h)
        recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert np.linalg.norm(recon - h.matrix) < 1e-9 * max(1.0, np.linalg.norm(h.matrix))

    def test_eigenvectors_unitary(self, rng):
        h = sk.HermitianOperator(random_hermitian(16, rng))
        dec = sk.hermitian_spectral_decomposition(h)
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.linalg.norm(gram - np.eye(16)) < 1e-9

    def test_sorted_invariant_enforced(self):
        with pytest.raises(EigensolverError):
            sk.SpectralDecomposition(np.array([2.0, 1.0]), np.eye(2))


class TestEvolve:
    def test_zero_time_is_identity(self, rng):
        h = sk.HermitianOperator(random_hermitian(4, rng))
        u = sk.evolve(h, 0.0)
        assert np.abs(u.matrix - np.eye(4)).max() < 1e-12

    def test_sigma_z_quarter_period(self):
        u = sk.evolve(sk.pauli_string(1, {0: "Z"}), np.pi / 2)
        expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        assert np.abs(u.matrix - expected).max() < 1e-12

    def test_unitarity(self, rng):
        h = sk.HermitianOperator(random_hermitian(8, rng))
        u = sk.evolve(h, 0.3)
        assert np.abs(u.matrix.conj().T @ u.matrix - np.eye(8)).max() < 1e-10

    def test_group_property(self, rng):
        for _ in range(20):
            h = sk.HermitianOperator(random_hermitian(8, rng))
            s, t = rng.uniform(-1, 1, 2)
            lhs = sk.evolve(h, s).matrix @ sk.evolve(h, t).matrix
            rhs = sk.evolve(h, s + t).matrix
            assert np.abs(lhs - rhs).max() < 1e-9


class TestOperatorDistance:
    def test_zero_iff_equal(self, rng):
        a = sk.DenseOperator(rng.standard_normal((4, 4)))
        assert sk.operator_distance(a, a) == 0.0

    def test_spectral_of_two_i(self):
        a = sk.DenseOperator(np.eye(2))
        b = sk.DenseOperator(-np.eye(2))
        assert sk.operator_distance(a, b) == pytest.approx(2.0)

    def test_errors(self):
        a = sk.DenseOperator(np.eye(2))
        b = sk.DenseOperator(np.eye(4))
        with pytest.raises(DimensionMismatchError):
            sk.operator_distance(a, b)


class TestHaarRandomUnitary:
    def test_seed_determinism(self):
        u1 = sk.haar_random_unitary(8, 13)
        u2 = sk.haar_random_unitary(8, 13)
        assert np.array_equal(u1.matrix, u2.matrix)

    def test_unitarity(self, rng):
        for dim in (2, 4, 8, 16):
            u = sk.haar_random_unitary(dim, rng)
            assert np.abs(u.matrix.conj().T @ u.matrix - np.eye(dim)).max() < 1e-12

    def test_negative_seed_rejected(self):
        with pytest.raises(StatekitError):
            sk.haar_random_unitary(4, -1)


@pytest.mark.parametrize("complex_rows", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("d", [2, 4, 16, 256])
@pytest.mark.parametrize("m", [1, 2, 300])
def test_row_norms_bitwise_equal_to_norm_of_each_row(rng, m, d, complex_rows):
    rows = rng.normal(size=(m, d)) / 3.0
    if complex_rows:
        rows = rows + 1j * rng.normal(size=(m, d)) / 3.0
    expected = np.array([np.linalg.norm(row) for row in rows])
    assert _row_norms(rows).tobytes() == expected.tobytes()
