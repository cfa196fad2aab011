import itertools
import tracemalloc

import numpy as np
import pytest

import statekit as sk
from statekit.errors import DimensionMismatchError, NotDiagonalError, NotUnitaryError, StatekitError

from conftest import count_calls, decomposition_oracle
from statekit import interference
from statekit.experiments import compute_experiment

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
        c = c * np.exp(1j * phi)
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

    @pytest.mark.parametrize(
        "outcome", [None, 1.0, np.float64(1.0), True, np.True_], ids=["None", "float", "np-float", "bool", "np-bool"]
    )
    def test_rejects_an_outcome_that_is_not_an_integer(self, outcome):
        with pytest.raises(StatekitError, match=f"^outcome {outcome} out of range for dim 2$"):
            sk.interference_decomposition(HADAMARD, [0.5, 0.5], None, outcome)

    def test_reads_a_numpy_integer_outcome(self):
        rep = sk.interference_decomposition(HADAMARD, [0.3, 0.7], None, np.int64(1))
        assert rep.total == sk.interference_decomposition(HADAMARD, [0.3, 0.7], None, 1).total


def phased_fourier(dim, seed):
    """A unitary that is cheap at any size: the DFT with a random phase per column."""
    rng = np.random.default_rng(seed)
    return sk.DenseOperator(np.fft.fft(np.eye(dim), norm="ortho") * np.exp(1j * rng.uniform(0, 2 * np.pi, dim)))


class TestDecompositionBlocks:
    """The block route of the audit and of ``interference_decompositions``."""

    def test_every_field_bit_equal_over_many_outcomes(self):
        # born is pow(|U c|_y, 2), which a vector square misses about once in 1,300
        for seed in range(40):
            rng = np.random.default_rng(seed)
            u = haar(64, rng)
            p = rng.dirichlet(np.ones(64))
            phi = rng.uniform(0, 2 * np.pi, 64) if seed % 2 else None
            oracle = [single_outcome_oracle(u, p, phi, y)[:4] for y in range(64)]
            reports = sk.interference_decompositions(u, p, phi, range(64))
            assert [(r.classical_term, r.interference_term, r.total, r.born_probability) for r in reports] == oracle
            blocks = interference._decomposition_blocks(u, p, phi, range(64))
            assert [row for block in blocks for row in zip(*(a.tolist() for a in block[1:5]))] == oracle

    @pytest.mark.parametrize("dim, outcomes", [(64, range(64)), (1024, [0, 511, 1023]), (2048, [0, 2047])])
    def test_interference_term_is_twice_the_pair_sum(self, dim, outcomes):
        rng = np.random.default_rng(dim)
        u = haar(dim, rng) if dim <= 1024 else phased_fourier(dim, rng)
        p = rng.dirichlet(np.ones(dim))
        phi = rng.uniform(0, 2 * np.pi, dim)
        for rep in sk.interference_decompositions(u, p, phi, outcomes):
            assert np.float64(rep.interference_term).tobytes() == (2 * rep.pairs.sum().real).tobytes()

    def test_audit_builds_no_report_and_no_pair_array(self, monkeypatch):
        reports = []
        post_init = sk.InterferenceReport.__post_init__
        monkeypatch.setattr(sk.InterferenceReport, "__post_init__", lambda rep: reports.append(rep) or post_init(rep))
        pair_sums = count_calls(monkeypatch, "pair_sum", module="_kernels")
        pair_terms = count_calls(monkeypatch, "pair_terms", module="_kernels")
        config = sk.ExperimentConfig.from_dict(
            {"experiment": "interference-audit", "n_features": 6, "count": 2, "seed": 7, "output_dir": "unused"}
        )
        results, _ = compute_experiment(config)
        assert results["cases"] == 2
        assert reports == [] and pair_sums == [] and pair_terms == []

    def test_audit_route_builds_no_index_pair_from_n_11(self, triu_calls):
        u = phased_fourier(2048, 11)
        p = np.random.default_rng(11).dirichlet(np.ones(2048))
        (block,) = interference._decomposition_blocks(u, p, None, [5, 2047, 0, 5])
        assert block[0].tolist() == [5, 2047, 0, 5]
        assert triu_calls == []

    def test_blocks_are_bounded_and_in_order(self):
        rng = np.random.default_rng(3)
        u = haar(256, rng)
        blocks = list(interference._decomposition_blocks(u, rng.dirichlet(np.ones(256)), None, range(255, -1, -1)))
        assert [len(b[0]) for b in blocks] == [32] * 8
        assert np.concatenate([b[0] for b in blocks]).tolist() == list(range(255, -1, -1))

    @pytest.mark.parametrize("outcomes", [[0, 1, True], [0, np.True_], [1, 2.0], [3, 4]])
    def test_first_bad_outcome_of_a_block_is_named(self, outcomes):
        bad = next(y for y in outcomes if isinstance(y, (bool, np.bool_, float)) or y >= 4)
        with pytest.raises(StatekitError, match=f"^outcome {bad} out of range for dim 4$"):
            list(interference._decomposition_blocks(haar(4, 0), [0.25] * 4, None, outcomes))

    def test_reports_are_built_one_outcome_at_a_time(self, monkeypatch):
        pair_terms = count_calls(monkeypatch, "pair_terms", module="_kernels")
        reports = sk.interference_decompositions(haar(4, 0), [0.25] * 4, None, itertools.count())
        assert next(reports).outcome == 0 and len(pair_terms) == 0
        assert [next(reports).outcome for _ in range(3)] == [1, 2, 3]
        with pytest.raises(StatekitError, match="^outcome 4 out of range for dim 4$"):
            next(reports)

    def test_a_held_report_keeps_its_terms_and_forms_its_pairs_when_read(self, monkeypatch):
        pair_terms = count_calls(monkeypatch, "pair_terms", module="_kernels")
        u, p = haar(16, 2), np.random.default_rng(2).dirichlet(np.ones(16))
        phi = np.random.default_rng(3).uniform(0, 2 * np.pi, 16)
        reports = list(sk.interference_decompositions(u, p, phi, range(16)))
        assert pair_terms == []
        for y, rep in enumerate(reports):
            assert rep.terms.shape == (16,) and not rep.terms.flags.writeable
            assert rep.terms.tobytes() == (sk.phase_encoding(p, phi).amplitudes * u.matrix[y]).tobytes()
        pairs = reports[5].pairs
        assert len(pair_terms) == 1 and not pairs.flags.writeable
        assert pairs.tobytes() == interference._kernels.pair_terms(reports[5].terms).tobytes()
        with pytest.raises(AttributeError):
            reports[5].pairs = pairs

    def test_holding_every_report_at_n_9_costs_its_terms_not_its_pairs(self):
        # N = 512 terms a report (8 KB) against M = 130,816 pair terms (2 MB)
        u = phased_fourier(512, 9)
        p = np.random.default_rng(9).dirichlet(np.ones(512))
        tracemalloc.start()
        try:
            reports = list(sk.interference_decompositions(u, p, None, range(512)))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(reports) == 512 and held < 16 * 2**20

    def test_a_failed_check_names_its_outcome(self, monkeypatch):
        # the Born identity broken at outcome 2 only, through the interference terms
        real = interference._kernels.pair_sums
        monkeypatch.setattr(interference._kernels, "pair_sums", lambda t: real(t) + np.array([0, 0, 1e-9, 1e-9]))
        with pytest.raises(StatekitError, match=r"^decomposition violates the Born identity by 1\.000e-09 at outcome 2$"):
            list(interference._decomposition_blocks(haar(4, 0), [0.25] * 4, None, range(4)))
        monkeypatch.setattr(interference._kernels, "pair_sums", lambda t: real(t) + np.array([0, np.nan, 0, 0]))
        with pytest.raises(StatekitError, match="^total nan is not a probability$"):
            list(interference._decomposition_blocks(haar(4, 0), [0.25] * 4, None, range(4)))

    @pytest.mark.parametrize("fields, message", [
        ((0.1, 0.0, 0.2, 0.2), "^report total is not the sum of its terms$"),
        ((0.1, 0.0, float("nan"), 0.1), "^total nan is not a probability$"),
        ((1.5, 0.0, 1.5, 1.5), "^total 1.5 is not a probability$"),
        ((0.1, 0.0, 0.1, 0.1 + 1e-9), r"^decomposition violates the Born identity by 1\.000e-09 at outcome 2$"),
    ])
    def test_a_report_checks_itself_with_the_block_messages(self, fields, message):
        with pytest.raises(StatekitError, match=message):
            sk.InterferenceReport(2, *fields, terms=np.zeros(0))
        outcomes, *arrays = (np.array([3, 2]), *(np.array([0.0, value]) for value in fields))
        with pytest.raises(StatekitError, match=message):
            interference._check_decompositions(outcomes, *arrays)


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

    @pytest.mark.parametrize("pair", [(0, 5), (0, -1), (-2, 1), (2, 0), (1, 1)])
    def test_rejects_pair_outside_dimension(self, pair):
        with pytest.raises(StatekitError, match=r"^pair must be two distinct basis indices in \[0, 2\)"):
            sk.sign_lock_check(HADAMARD, 0, pair, [[0.5, 0.5]])

    @pytest.mark.parametrize(
        "pair", [(0, 1.0), (np.float64(0), 1), (True, 0), (0, np.True_), (0, None)],
        ids=["float", "np-float", "bool", "np-bool", "None"],
    )
    def test_rejects_a_pair_index_that_is_not_an_integer(self, pair):
        with pytest.raises(StatekitError, match=r"^pair must be two distinct basis indices in \[0, 2\)"):
            sk.sign_lock_check(HADAMARD, 0, pair, [[0.5, 0.5]])

    @pytest.mark.parametrize("outcome", [None, 1.0, True])
    def test_rejects_an_outcome_that_is_not_an_integer(self, outcome):
        with pytest.raises(StatekitError, match=f"^outcome {outcome} out of range for dim 2$"):
            sk.sign_lock_check(HADAMARD, outcome, (0, 1), [[0.5, 0.5]])

    def test_rejects_pair_outside_a_smaller_distribution(self):
        u = sk.DenseOperator(np.eye(4))
        with pytest.raises(DimensionMismatchError):
            sk.sign_lock_check(u, 0, (0, 3), [[0.5, 0.5]])

    def test_an_array_of_distributions_is_read_as_its_rows(self, rng):
        u = haar(4, 5)
        dists = rng.dirichlet(np.ones(4), size=3)
        phases = rng.uniform(0.0, 2.0 * np.pi, (3, 4))
        for phi in (None, phases):
            got = sk.sign_lock_check(u, 0, (0, 1), dists, phi)
            want = sk.sign_lock_check(u, 0, (0, 1), list(dists), None if phi is None else list(phi))
            assert got.arguments.tobytes() == want.arguments.tobytes()
            assert (got.locked, got.max_spread) == (want.locked, want.max_spread)

    def test_an_empty_array_of_distributions_is_refused_with_the_rule(self):
        with pytest.raises(StatekitError, match="^at least one distribution is required$"):
            sk.sign_lock_check(haar(4, 5), 0, (0, 1), np.zeros((0, 4)))

    def test_generators_of_distributions_and_phases_are_read(self, rng):
        dists = [rng.dirichlet(np.ones(4)) for _ in range(3)]
        phases = [rng.uniform(0.0, 2.0 * np.pi, 4) for _ in range(3)]
        got = sk.sign_lock_check(haar(4, 5), 0, (0, 1), (d for d in dists), (p for p in phases))
        want = sk.sign_lock_check(haar(4, 5), 0, (0, 1), dists, phases)
        assert got.arguments.tobytes() == want.arguments.tobytes()


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
    """The signs of the pair terms' real parts at a phase-locked input, read from
    ``InterferenceReport.pairs`` (pairs in ``np.triu_indices`` order). An outcome that is
    not an integer is rejected in ``TestDecomposition``."""

    def test_permutation_unitary_has_no_cross_terms(self, rng):
        perm = sk.DenseOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
        pairs = sk.interference_decomposition(perm, rng.dirichlet(np.ones(2)), None, 0).pairs
        assert pairs.shape == (1,) and (pairs.real == 0.0).all()

    def test_hadamard_negative_pair(self):
        pairs = sk.interference_decomposition(HADAMARD, [0.5, 0.5], None, 1).pairs
        assert pairs.shape == (1,)
        assert pairs[0].real == pytest.approx(-0.25, abs=1e-12)

    def test_signs_immune_to_distribution_rescaling(self, rng):
        # the sign pattern is a property of U alone: the data weights sqrt(p_x p_x')
        # are positive, so sweeping P never flips it
        u = haar(4, rng)
        signs = set()
        for _ in range(20):
            pairs = sk.interference_decomposition(u, rng.dirichlet(np.ones(4)), None, 2).pairs
            assert pairs.shape == (6,) and (pairs.real != 0.0).all()
            signs.add(tuple(np.sign(pairs.real)))
        assert len(signs) == 1


# raise branches of this module that a public call reaches and no other test runs
@pytest.mark.parametrize(
    "u, distributions, phases, error, message",
    [
        (HADAMARD, [], None, StatekitError, r"at least one distribution is required"),
        (HADAMARD, [[0.5, 0.5], [0.25, 0.75]], [[0.0, 1.0]], DimensionMismatchError,
         r"phases list must match distributions list in length"),
        (HADAMARD, [[0.5, 0.5], [1.0, 0.0]], None, StatekitError,
         r"distribution 1 has zero probability on pair \(0, 1\); argument undefined"),
        # the identity sends no amplitude of basis state 1 to outcome 0
        (sk.DenseOperator(np.eye(2, dtype=complex)), [[0.5, 0.5]], None, StatekitError,
         r"pair term \(0, 1\) vanishes at outcome 0; argument undefined"),
    ],
    ids=["no-distribution", "phases-length", "zero-probability", "vanishing-term"],
)
def test_sign_lock_rule_raises_its_message(u, distributions, phases, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        sk.sign_lock_check(u, 0, (0, 1), distributions, phases)
