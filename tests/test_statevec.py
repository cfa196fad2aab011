import re

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
from statekit.tolerances import TOLS

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

    # eigh converges and reconstructs on every H that HermitianOperator admits: a stub reaches the two raises
    def test_eigensolver_failure_raises(self, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(EigensolverError, match="^eigensolver failed to converge: Eigenvalues did not converge$"):
            sk.hermitian_spectral_decomposition(sk.pauli_string(1, {0: "X"}))

    @pytest.mark.parametrize("scale", [1.0, 1e154], ids=["unit", "near-overflow"])
    def test_perturbed_eigenvectors_fail_the_reconstruction(self, monkeypatch, rng, scale):
        # at 1e154 the squares of H's entries overflow: an unscaled bound is infinite and passes any residual
        h = sk.HermitianOperator(scale * random_hermitian(8, rng))
        eigh = np.linalg.eigh

        def perturbed(matrix):
            vals, vecs = eigh(matrix)
            return vals, vecs + 1e-6

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        number = r"\d\.\d{3}e[-+]\d+"
        with pytest.raises(EigensolverError, match=f"^reconstruction residual {number} exceeds {number}$"):
            sk.hermitian_spectral_decomposition(h)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e100])
    def test_reconstruction_verdict_is_the_unscaled_formulas(self, monkeypatch, rng, scale):
        # the norms are taken on H scaled by a power of two, which is exact: the verdict does not move
        h = sk.HermitianOperator(scale * random_hermitian(8, rng))
        vals, vecs = np.linalg.eigh(h.matrix)
        bound = TOLS.spectral_residual * max(1.0, np.linalg.norm(h.matrix))
        verdicts = set()
        for shift in bound * np.linspace(0.34, 0.37, 61):  # a residual of about sqrt(8) shift crosses the bound
            passes = np.linalg.norm((vecs * (vals + shift)) @ vecs.conj().T - h.matrix) <= bound
            monkeypatch.setattr(np.linalg, "eigh", lambda matrix, shifted=vals + shift: (shifted, vecs))
            try:
                sk.hermitian_spectral_decomposition(h)
            except EigensolverError:
                assert not passes
            else:
                assert passes
            verdicts.add(bool(passes))
        assert verdicts == {True, False}


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

    @pytest.mark.parametrize("dim", [3, 1500])
    def test_a_dim_not_a_power_of_2_is_rejected_before_the_draw(self, dim):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(StatekitError, match=f"^operator dimension {dim} is not a power of 2$"):
            sk.haar_random_unitary(dim, rng)
        assert rng.bit_generator.state == state


@pytest.mark.parametrize("complex_rows", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("d", [2, 4, 16, 256])
@pytest.mark.parametrize("m", [1, 2, 300])
def test_row_norms_bitwise_equal_to_norm_of_each_row(rng, m, d, complex_rows):
    rows = rng.normal(size=(m, d)) / 3.0
    if complex_rows:
        rows = rows + 1j * rng.normal(size=(m, d)) / 3.0
    expected = np.array([np.linalg.norm(row) for row in rows])
    assert _row_norms(rows).tobytes() == expected.tobytes()


HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)

# call -> the one message its bad scalar raises. Each call was accepted, or raised a bare
# TypeError, ValueError or RuntimeWarning, while the scalar rules were written out per function.
BAD_SCALARS = {
    "gen_parity_dataset(2.0)": (lambda: sk.gen_parity_dataset(2.0), "n_components must be a power of 2 in [2, 32]"),
    "gen_parity_dataset(seed='x')": (lambda: sk.gen_parity_dataset(4, "all", seed="x"), "seed must be an integer >= 0, got 'x'"),
    "LabeledDataset(seed='x')": (
        lambda: sk.LabeledDataset(np.ones((1, 2)), [1], seed="x"), "seed must be an integer >= 0, got 'x'"),
    "pauli_string(1.5)": (lambda: sk.pauli_string(1.5, {0: "X"}), "n_qubits must be an integer >= 1, got 1.5"),
    "pauli_string(True)": (lambda: sk.pauli_string(True, {0: "X"}), "n_qubits must be an integer >= 1, got True"),
    "pauli_string(site 0.5)": (lambda: sk.pauli_string(2, {0.5: "X"}), "site 0.5 out of range for 2 qubits"),
    "pauli_string(site True)": (lambda: sk.pauli_string(2, {True: "X"}), "site True out of range for 2 qubits"),
    "haar_random_unitary(-4)": (lambda: sk.haar_random_unitary(-4, 0), "dim must be an integer >= 1, got -4"),
    "haar_random_unitary(2.0)": (lambda: sk.haar_random_unitary(2.0, 0), "dim must be an integer >= 1, got 2.0"),
    "ring_coupling(-1)": (lambda: sk.ring_coupling(-1), "n must be an integer >= 0, got -1"),
    "ring_coupling(2.5)": (lambda: sk.ring_coupling(2.5), "n must be an integer >= 0, got 2.5"),
    "complete_coupling(-1)": (lambda: sk.complete_coupling(-1), "n must be an integer >= 0, got -1"),
    "complete_coupling(2.5)": (lambda: sk.complete_coupling(2.5), "n must be an integer >= 0, got 2.5"),
    "evolve(True)": (lambda: sk.evolve(sk.pauli_string(1, {0: "X"}), True), "t must be a real number, got True"),
    "evolve('1')": (lambda: sk.evolve(sk.pauli_string(1, {0: "X"}), "1"), "t must be a real number, got '1'"),
    "evolution(inf)": (
        lambda: sk.hermitian_spectral_decomposition(sk.pauli_string(1, {0: "X"})).evolution(np.inf),
        "non-finite value in t",
    ),
    # a phase exponent is checked where it is formed: each product is finite, or none is formed
    "evolve(t 1e308)": (lambda: sk.evolve(sk.build_h_data([1.0, 2.0]), 1e308), "non-finite value in t times the spectrum"),
    "sandwich_unitary(mu 1e300)": (
        lambda: sk.sandwich_unitary(sk.HamiltonianSpec([1.0, 2.0], sk.ring_coupling(2), mu=1e300, tau=1e10)),
        "non-finite value in tau times mu times the z-z diagonal",
    ),
    "sandwich_unitary(tau 1e308)": (
        lambda: sk.sandwich_unitary(sk.HamiltonianSpec([4.0, 4.0], sk.ring_coupling(2), tau=1e308)),
        "non-finite value in tau times the fields",
    ),
    "evolve_vacuum(mu 1e300)": (
        lambda: sk.evolve_vacuum(sk.HamiltonianSpec([1.0, 2.0], sk.ring_coupling(2), mu=1e300, tau=1e10)),
        "non-finite value in tau times mu times the z-z diagonal",
    ),
    "evolve_vacuum(tau 1e308)": (
        lambda: sk.evolve_vacuum(sk.HamiltonianSpec([4.0, 4.0], sk.ring_coupling(2), tau=1e308)),
        "non-finite value in tau times the fields",
    ),
    "build_h_topo(mu 1e308)": (
        lambda: sk.build_h_topo(sk.complete_coupling(3), 1e308), "non-finite value in mu times the z-z diagonal"),
    "effective_hamiltonian(mu 1e308)": (
        lambda: sk.effective_hamiltonian(sk.HamiltonianSpec([1.0, 1.0, 1.0], sk.complete_coupling(3), mu=1e308)),
        "non-finite value in mu times the z-z diagonal",
    ),
    "commutator_norm(mu 1e300)": (
        lambda: sk.commutator_norm(sk.HamiltonianSpec([1.0, 2.0], sk.ring_coupling(2), mu=1e300)),
        "non-finite value in the commutator [H_data, H_topo]",
    ),
    "in_positive_orthant(True)": (
        lambda: sk.in_positive_orthant(sk.amplitude_encoding([1.0, 1.0]), True), "tolerance must be a real number, got True"),
    "resonance_similarity(True)": (
        lambda: sk.resonance_similarity(sk.QiftParams().spec([0.3]), sk.QiftParams().spec([0.5]), True),
        "tolerance must be a real number, got True",
    ),
    "sign_lock_check(pair 3)": (
        lambda: sk.sign_lock_check(sk.DenseOperator(HADAMARD), 0, (0, 1, 1), [[0.5, 0.5]]),
        "pair must be two distinct basis indices in [0, 2), got (0, 1, 1)",
    ),
    "sign_lock_check(pair 1)": (
        lambda: sk.sign_lock_check(sk.DenseOperator(HADAMARD), 0, (0,), [[0.5, 0.5]]),
        "pair must be two distinct basis indices in [0, 2), got (0,)",
    ),
    "sign_lock_check(pair int)": (
        lambda: sk.sign_lock_check(sk.DenseOperator(HADAMARD), 0, 5, [[0.5, 0.5]]),
        "pair must be two distinct basis indices in [0, 2), got 5",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_SCALARS))
def test_bad_scalar_raises_one_statekit_error(case):
    call, message = BAD_SCALARS[case]
    with pytest.raises(StatekitError, match=f"^{re.escape(message)}$"):
        call()


def test_numpy_integers_are_integers():
    assert np.array_equal(sk.pauli_string(np.int64(2), {np.int8(1): "Z"}).matrix, sk.pauli_string(2, {1: "Z"}).matrix)
    assert np.array_equal(sk.haar_random_unitary(np.int32(4), np.uint8(3)).matrix, sk.haar_random_unitary(4, 3).matrix)
    a, b = sk.gen_parity_dataset(np.int64(4), np.int64(5), np.int64(7)), sk.gen_parity_dataset(4, 5, 7)
    assert np.array_equal(a.vectors, b.vectors) and type(a.seed) is int
    # a register of no qubits is legal for the presets: QiftParams.spec sizes the coupling before it is checked
    assert sk.ring_coupling(0).shape == sk.complete_coupling(np.int64(0)).shape == (0, 0)


# raise branches of this module that a public call reaches and no other test runs
@pytest.mark.parametrize(
    "vals, vecs, message",
    [
        ([1.0, 0.0], np.eye(2), r"^eigenvalues are not sorted ascending$"),
        ([0.0, 1.0], [[1.0, 1.0], [0.0, 1.0]], r"^eigenvector orthonormality residual \d\.\d{3}e[-+]\d+$"),
    ],
    ids=["descending", "not-orthonormal"],
)
def test_decomposition_rule_raises_its_message(vals, vecs, message):
    with pytest.raises(EigensolverError, match=message):
        sk.SpectralDecomposition(np.array(vals), np.array(vecs, dtype=complex))
