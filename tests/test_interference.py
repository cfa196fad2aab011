import numpy as np
import pytest

import statekit as sk
from statekit.errors import DimensionMismatchError, NotDiagonalError, NotUnitaryError, StatekitError

from conftest import decomposition_oracle

HADAMARD = sk.DenseOperator(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))


def haar(dim, seed):
    return sk.haar_random_unitary(dim, seed)


class TestDecomposition:
    def test_identity_has_no_cross_terms(self, rng):
        p = rng.dirichlet(np.ones(4))
        for y in range(4):
            rep = sk.interference_decomposition(sk.DenseOperator(np.eye(4)), p, None, y)
            assert rep.interference_term == 0.0
            assert rep.classical_term == pytest.approx(p[y], abs=1e-15)

    def test_hadamard_plus_state(self):
        rep = sk.interference_decomposition(HADAMARD, [0.5, 0.5], None, 0)
        assert rep.classical_term == pytest.approx(0.5, abs=1e-12)
        assert rep.interference_term == pytest.approx(0.5, abs=1e-12)
        assert rep.total == pytest.approx(1.0, abs=1e-12)

    def test_hadamard_minus_state(self):
        rep = sk.interference_decomposition(HADAMARD, [0.5, 0.5], [0.0, np.pi], 0)
        assert rep.classical_term == pytest.approx(0.5, abs=1e-12)
        assert rep.interference_term == pytest.approx(-0.5, abs=1e-12)
        assert rep.total == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_oracle(self, rng):
        for k in range(30):
            dim = 8
            u = haar(dim, rng)
            p = rng.dirichlet(np.ones(dim))
            phi = rng.uniform(0, 2 * np.pi, dim) if k % 2 else None
            y = int(rng.integers(dim))
            rep = sk.interference_decomposition(u, p, phi, y)
            classical, interference, born = decomposition_oracle(u.matrix, p, phi, y)
            assert rep.classical_term == pytest.approx(classical, abs=1e-12)
            assert rep.interference_term == pytest.approx(interference.real, abs=1e-12)
            assert abs(interference.imag) < 1e-12
            assert rep.born_probability == pytest.approx(born, abs=1e-12)

    def test_identity_invariant_all_outcomes(self, rng):
        for k in range(50):
            dim = 8
            u = haar(dim, rng)
            p = rng.dirichlet(np.ones(dim))
            phi = rng.uniform(0, 2 * np.pi, dim) if k % 2 else None
            for y in range(dim):
                rep = sk.interference_decomposition(u, p, phi, y)
                assert rep.residual < 1e-10

    def test_pair_terms_conjugate_structure(self, rng):
        u = haar(4, rng)
        p = rng.dirichlet(np.ones(4))
        rep = sk.interference_decomposition(u, p, None, 1)
        assert rep.pairs.shape == (6,)
        assert not rep.pairs.flags.writeable
        t = np.sqrt(p) * u.matrix[1, :]
        for value, x, xp in zip(rep.pairs, *np.triu_indices(4, 1)):
            assert value == pytest.approx(t[x] * np.conj(t[xp]), abs=1e-15)
        total_from_pairs = 2.0 * rep.pairs.sum().real
        assert total_from_pairs == pytest.approx(rep.interference_term, abs=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            sk.interference_decomposition(sk.DenseOperator(np.ones((2, 2))), [0.5, 0.5], None, 0)

    def test_rejects_bad_outcome(self):
        with pytest.raises(StatekitError):
            sk.interference_decomposition(HADAMARD, [0.5, 0.5], None, 5)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            sk.interference_decomposition(sk.DenseOperator(np.eye(4)), [0.5, 0.5], None, 0)


def single_outcome_oracle(u, p, phi, y):
    """The single-outcome decomposition formula, one call per outcome, with the
    pair kernels written out: (classical, interference, total, born, pairs)."""
    probs = sk.Distribution(p).probabilities
    c = np.sqrt(probs).astype(np.complex128)
    if phi is not None:
        c = c * np.exp(1j * sk.PhaseProfile(phi).phases)
    t = c * u.matrix[y, :]
    classical = float(probs @ (np.abs(u.matrix[y, :]) ** 2))
    pairs = np.outer(t, t.conj())[np.triu_indices(t.size, 1)]
    interference = float((pairs + pairs.conj()).sum().real)
    born = float(np.abs(u.matrix @ c)[y] ** 2)
    return classical, interference, classical + interference, born, pairs


class TestDecompositions:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("phased", [False, True])
    def test_bit_equal_to_single_outcome_formula(self, n, phased):
        dim = 1 << n
        rng = np.random.default_rng(100 + n)
        u = haar(dim, rng)
        p = rng.dirichlet(np.ones(dim))
        phi = rng.uniform(0, 2 * np.pi, dim) if phased else None
        reports = list(sk.interference_decompositions(u, p, phi, range(dim)))
        assert [r.outcome for r in reports] == list(range(dim))
        for y, rep in enumerate(reports):
            classical, interference, total, born, pairs = single_outcome_oracle(u, p, phi, y)
            assert rep.classical_term == classical
            assert rep.interference_term == interference
            assert rep.total == total
            assert rep.born_probability == born
            assert rep.pairs.tobytes() == pairs.tobytes()

    def test_keeps_outcome_order_and_repeats(self, rng):
        u = haar(4, rng)
        p = rng.dirichlet(np.ones(4))
        phi = rng.uniform(0, 2 * np.pi, 4)
        reports = list(sk.interference_decompositions(u, p, phi, [3, 0, 3]))
        assert [r.outcome for r in reports] == [3, 0, 3]
        for rep in reports:
            single = sk.interference_decomposition(u, p, phi, rep.outcome)
            assert rep.total == single.total
            assert rep.pairs.tobytes() == single.pairs.tobytes()

    @pytest.mark.parametrize("outcome", [-1, 4])
    def test_rejects_out_of_range_outcome(self, rng, outcome):
        u = haar(4, rng)
        with pytest.raises(StatekitError, match=f"^outcome {outcome} out of range for dim 4$"):
            list(sk.interference_decompositions(u, [0.25] * 4, None, [0, outcome]))


class TestSignLock:
    def test_locked_over_dirichlet_ensemble(self, rng):
        dists = [rng.dirichlet(np.ones(2)) for _ in range(50)]
        rep = sk.sign_lock_check(HADAMARD, 0, (0, 1), dists)
        assert rep.locked
        assert rep.max_spread < 1e-9

    def test_unlocked_when_phases_vary(self, rng):
        dists = [np.full(2, 0.5) for _ in range(50)]
        phases = [rng.uniform(0, 2 * np.pi, 2) for _ in range(50)]
        rep = sk.sign_lock_check(HADAMARD, 0, (0, 1), dists, phases)
        assert not rep.locked
        assert rep.max_spread > 0.1

    def test_single_distribution_trivially_locked(self):
        rep = sk.sign_lock_check(HADAMARD, 1, (0, 1), [[0.3, 0.7]])
        assert rep.locked
        assert rep.max_spread == 0.0

    def test_zero_probability_pair_rejected(self):
        with pytest.raises(StatekitError):
            sk.sign_lock_check(HADAMARD, 0, (0, 1), [[1.0, 0.0]])

    def test_bool_protocol(self, rng):
        dists = [rng.dirichlet(np.ones(2)) for _ in range(5)]
        assert sk.sign_lock_check(HADAMARD, 0, (0, 1), dists)


class TestDiagonalTrap:
    def test_rz_rotation(self):
        theta = 1.234
        d = sk.DenseOperator(np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)]))
        assert sk.diagonal_trap_residual([0.3, 0.7], d) < 1e-12

    def test_identity_near_exact_zero(self):
        # only the sqrt/square round trip is left: one ulp, not structure
        assert sk.diagonal_trap_residual([0.3, 0.7], sk.DenseOperator(np.eye(2))) < 1e-15

    def test_seeded_ensemble_dim8(self, rng):
        for _ in range(100):
            p = rng.dirichlet(np.ones(8))
            d = sk.DenseOperator(np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 8))))
            assert sk.diagonal_trap_residual(p, d) < 1e-12

    def test_rejects_non_diagonal(self):
        with pytest.raises(NotDiagonalError):
            sk.diagonal_trap_residual([0.5, 0.5], HADAMARD)

    def test_rejects_non_unitary_diagonal(self):
        with pytest.raises(NotUnitaryError):
            sk.diagonal_trap_residual([0.5, 0.5], sk.DenseOperator(np.diag([1.0, 2.0])))


class TestCommutator:
    def test_diagonal_matrices_commute_exactly(self, rng):
        for _ in range(20):
            a = sk.DenseOperator(np.diag(rng.standard_normal(8)))
            b = sk.DenseOperator(np.diag(rng.standard_normal(8)))
            c = sk.commutator(a, b)
            assert np.abs(c.matrix).max() < 1e-14

    def test_pauli_algebra(self):
        c = sk.commutator(sk.pauli_string(1, {0: "Y"}), sk.pauli_string(1, {0: "Z"}))
        expected = 2j * sk.pauli_string(1, {0: "X"}).matrix
        assert np.abs(c.matrix - expected).max() < 1e-15

    def test_self_commutator_zero(self, rng):
        a = sk.DenseOperator(rng.standard_normal((4, 4)))
        assert np.abs(sk.commutator(a, a).matrix).max() == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            sk.commutator(sk.DenseOperator(np.eye(2)), sk.DenseOperator(np.eye(4)))


class TestPairwiseTermSigns:
    def test_permutation_unitary_has_no_cross_terms(self, rng):
        perm = sk.DenseOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
        rep = sk.pairwise_term_signs(perm, rng.dirichlet(np.ones(2)), 0)
        assert all(v == 0.0 for _, _, v in rep.terms)
        assert not rep.any_negative

    def test_hadamard_negative_pair(self):
        rep = sk.pairwise_term_signs(HADAMARD, [0.5, 0.5], 1)
        assert rep.terms == ((0, 1, pytest.approx(-0.5, abs=1e-12)),)
        assert rep.any_negative

    def test_signs_immune_to_distribution_rescaling(self, rng):
        # the sign pattern is a property of U alone; sweeping P never flips it
        u = haar(4, rng)
        y = 2
        reference = None
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            rep = sk.pairwise_term_signs(u, p, y)
            signs = tuple(np.sign(v) for _, _, v in rep.terms)
            if reference is None:
                reference = signs
            assert signs == reference
