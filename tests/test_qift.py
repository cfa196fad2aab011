from dataclasses import fields, replace

import numpy as np
import pytest

import statekit as sk
from statekit import _kernels
from statekit.errors import ConfigError, StatekitError
from statekit.qift import COUPLINGS

from conftest import count_calls, pauli_matrix_oracle, random_coupling, zz_energy_oracle


def seeded_spec(rng, n, topology="ring", mu=1.0, tau=0.1):
    x = rng.uniform(-np.pi, np.pi, n)
    coupling = sk.ring_coupling(n) if topology == "ring" else sk.complete_coupling(n)
    return sk.HamiltonianSpec(x, coupling, mu=mu, tau=tau)


def oracle_specs(rng, n, mus=(1.0, 0.7, 0.0, -1.0), taus=(0.1,)):
    """Seeded specs of n qubits over both presets and a random coupling, ``mus`` and
    ``taus``, with random fields, all +0.0, all -0.0, and random fields with zeros
    of both signs."""
    specs = []
    for topology in ("ring", "complete", random_coupling(n, rng)):
        for mu in mus:
            mixed = rng.uniform(-np.pi, np.pi, n)
            mixed[::2] = 0.0
            mixed[1::3] = -0.0
            for x in (rng.uniform(-np.pi, np.pi, n), np.zeros(n), np.full(n, -0.0), mixed):
                params = sk.QiftParams(mu=mu, topology=topology)
                specs += [replace(params.spec(x), tau=tau) for tau in taus]
    return specs


class TestHamiltonianSpec:
    def test_rejects_asymmetric_coupling(self):
        j = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(StatekitError):
            sk.HamiltonianSpec([1.0, 1.0], j)

    def test_rejects_nonzero_diagonal(self):
        j = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(StatekitError):
            sk.HamiltonianSpec([1.0, 1.0], j)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(StatekitError):
            sk.HamiltonianSpec([1.0], np.zeros((1, 1)), tau=0.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(StatekitError):
            sk.HamiltonianSpec([1.0, 2.0], np.zeros((3, 3)))

    @pytest.mark.parametrize("field", ["mu", "tau"])
    @pytest.mark.parametrize("value", [True, "0.5", None])
    def test_rejects_a_mu_or_tau_that_is_not_a_real_number(self, field, value):
        with pytest.raises(StatekitError, match=f"^{field} must be a real number, got {value!r}$"):
            sk.HamiltonianSpec([1.0], np.zeros((1, 1)), **{field: value})

    def test_single_qubit_spec_allowed(self):
        spec = sk.HamiltonianSpec([0.7], np.zeros((1, 1)))
        assert spec.n_qubits == 1
        assert spec.dim == 2


class TestQiftParams:
    @pytest.mark.parametrize("topology", ["ring", "complete", "explicit"])
    def test_spec_equals_the_hand_built_spec(self, rng, topology):
        n = 4
        x = rng.uniform(-np.pi, np.pi, n)
        if topology == "explicit":
            topo = coupling = random_coupling(n, rng)
        else:
            topo, coupling = topology, COUPLINGS[topology](n)
        spec = sk.QiftParams(mu=0.7, tau=0.3, topology=topo).spec(x)
        expected = sk.HamiltonianSpec(x, coupling, mu=0.7, tau=0.3)
        for f in fields(sk.HamiltonianSpec):
            got, want = getattr(spec, f.name), getattr(expected, f.name)
            assert type(got) is type(want)
            assert np.asarray(got).shape == np.asarray(want).shape
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_explicit_matrix_of_the_wrong_shape(self):
        params = sk.QiftParams(topology=np.zeros((3, 3)))
        with pytest.raises(ConfigError, match=r"^explicit coupling matrix has shape \(3, 3\), expected \(2, 2\)$"):
            params.spec([0.1, 0.2])

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"mu": float("nan")}, r"^non-finite value in mu or tau$"),
            ({"tau": float("inf")}, r"^non-finite value in mu or tau$"),
            ({"mu": 10**400}, r"^non-finite value in mu or tau$"),
            ({"tau": 0.0}, r"^tau must be > 0, got 0.0$"),
            ({"mu": True}, r"^mu must be a real number, got True$"),
            ({"tau": "0.1"}, r"^tau must be a real number, got '0.1'$"),
            ({"topology": "Ring"}, r"^unknown topology preset 'Ring'; expected one of \('ring', 'complete'\)$"),
            ({"topology": [["0", "1"], ["1", "0"]]}, r"^topology must be an array of numbers safely castable to float64$"),
            ({"topology": [[0.0, 1.0], [1.0]]}, r"^topology must be an array of numbers safely castable to float64$"),
            ({"topology": [[0, 1j], [-1j, 0]]}, r"^topology must be an array of numbers safely castable to float64$"),
            ({"topology": {"ring": 1}}, r"^topology must be an array of numbers safely castable to float64$"),
            ({"topology": np.zeros(3)}, r"^coupling must be square, got shape \(3,\)$"),
            ({"topology": [[0.0, 1.0], [2.0, 0.0]]}, r"^coupling matrix must be exactly symmetric$"),
            ({"topology": np.eye(2)}, r"^coupling matrix must have zero diagonal$"),
            ({"topology": [[0.0, np.nan], [np.nan, 0.0]]}, r"^non-finite value in coupling matrix$"),
        ],
    )
    def test_checked_on_construction(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            sk.QiftParams(**kwargs)

    def test_ragged_fields_rejected(self):
        with pytest.raises(StatekitError, match="^fields must be an array of numbers safely castable to float64$"):
            sk.QiftParams().spec([[1.0], [2.0, 3.0]])

    def test_mu_and_tau_are_stored_as_floats(self):
        params = sk.QiftParams(mu=1, tau=np.float64(0.5))
        assert type(params.mu) is float and type(params.tau) is float
        assert (params.mu, params.tau) == (1.0, 0.5)

    def test_explicit_matrix_is_a_frozen_copy(self):
        j = sk.ring_coupling(3)
        params = sk.QiftParams(topology=j)
        assert j.flags.writeable and not params.topology.flags.writeable
        j[0, 1] = j[1, 0] = 5.0
        assert params.coupling_for(3)[0, 1] == 1.0


def h_data_pauli_sum(x):
    """Kronecker route to sum_q x_q sigma_y_q: the Pauli-string sum, skipping zero fields."""
    n = len(x)
    h = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for q in range(n):
        if x[q] != 0.0:
            h += x[q] * sk.pauli_string(n, {q: "Y"}).matrix
    return h


class TestBuildHData:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_pauli_string_sum_bitwise(self, rng, n):
        mixed = rng.uniform(-np.pi, np.pi, n)
        mixed[::2] = -0.0
        mixed[1::3] = 0.0
        for x in (
            rng.uniform(-np.pi, np.pi, n),
            -rng.uniform(0.1, 2.0, n),
            mixed,
            np.zeros(n),
            np.full(n, -0.0),
        ):
            built = sk.build_h_data(x).matrix
            assert np.array_equal(built.view(np.uint64), h_data_pauli_sum(x).view(np.uint64))

    def test_zero_field_gives_zero_operator(self):
        assert np.abs(sk.build_h_data([0.0]).matrix).max() == 0.0

    def test_single_qubit_spectrum(self):
        a = 0.83
        vals = np.linalg.eigvalsh(sk.build_h_data([a]).matrix)
        assert np.abs(vals - np.array([-a, a])).max() < 1e-14

    def test_two_qubit_kronecker_oracle(self):
        h = sk.build_h_data([1.0, 2.0])
        expected = pauli_matrix_oracle(2, {0: "Y"}) + 2.0 * pauli_matrix_oracle(2, {1: "Y"})
        assert np.abs(h.matrix - expected).max() < 1e-15

    def test_traceless(self, rng):
        h = sk.build_h_data(rng.uniform(-1, 1, 3))
        assert abs(np.trace(h.matrix)) < 1e-12


class TestBuildHTopo:
    def test_zero_coupling(self):
        assert np.abs(sk.build_h_topo(np.zeros((2, 2)), 1.0).matrix).max() == 0.0

    def test_two_qubit_zz(self):
        h = sk.build_h_topo(sk.ring_coupling(2), 1.0)
        assert np.array_equal(np.diagonal(h.matrix).real, [1, -1, -1, 1])

    @pytest.mark.parametrize("build", [sk.build_h_topo, sk.build_h_topo_dense])
    @pytest.mark.parametrize(
        "mu, message",
        [
            ("1", "^mu must be a real number, got '1'$"),
            (True, "^mu must be a real number, got True$"),
            (float("nan"), "^non-finite value in mu$"),
            (10**400, "^non-finite value in mu$"),
        ],
        ids=["string", "bool", "nan", "int-beyond-float"],
    )
    def test_mu_checked(self, build, mu, message):
        with pytest.raises(StatekitError, match=message):
            build(sk.ring_coupling(2), mu)

    def test_ring_matches_pauli_sum_oracle(self):
        h = sk.build_h_topo(sk.ring_coupling(3), 0.5)
        expected = 0.5 * (
            pauli_matrix_oracle(3, {0: "Z", 1: "Z"})
            + pauli_matrix_oracle(3, {1: "Z", 2: "Z"})
            + pauli_matrix_oracle(3, {0: "Z", 2: "Z"})
        )
        assert np.abs(h.matrix - expected).max() < 1e-15

    def test_fast_path_equals_dense_oracle(self, rng):
        for n in (2, 3, 4, 5):
            j = random_coupling(n, rng)
            mu = rng.uniform(0.2, 2.0)
            fast = sk.build_h_topo(j, mu)
            dense = sk.build_h_topo_dense(j, mu)
            assert np.abs(fast.matrix - dense.matrix).max() < 1e-12

    def test_diagonal_in_computational_basis(self, rng):
        h = sk.build_h_topo(random_coupling(4, rng), 1.3)
        off = h.matrix - np.diag(np.diagonal(h.matrix))
        assert np.abs(off).max() == 0.0

    def test_rejects_bad_coupling(self):
        with pytest.raises(StatekitError):
            sk.build_h_topo(np.array([[0.0, 1.0], [0.5, 0.0]]), 1.0)
        with pytest.raises(StatekitError):
            sk.build_h_topo(np.array([[1.0, 0.0], [0.0, 0.0]]), 1.0)

    @pytest.mark.parametrize(
        "j, message",
        [
            ([[0.0, 1.0], [0.5, 0.0]], "exactly symmetric"),
            ([[1.0, 0.0], [0.0, 0.0]], "zero diagonal"),
            ([[0.0, np.inf], [np.inf, 0.0]], "non-finite"),
        ],
    )
    def test_spec_and_build_h_topo_share_coupling_checks(self, j, message):
        with pytest.raises(StatekitError, match=message):
            sk.build_h_topo(np.array(j), 1.0)
        with pytest.raises(StatekitError, match=message):
            sk.HamiltonianSpec([1.0, 1.0], np.array(j))

    @pytest.mark.parametrize(
        "j, message",
        [
            ([[0.0, 1.0], [2.0, 0.0]], "^coupling matrix must be exactly symmetric$"),
            ([[1.0, 0.0], [0.0, 0.0]], "^coupling matrix must have zero diagonal$"),
            ([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], r"^coupling must be square, got shape \(2, 3\)$"),
        ],
    )
    def test_dense_oracle_rejects_what_the_fast_path_rejects(self, j, message):
        with pytest.raises(StatekitError, match=message):
            sk.build_h_topo(j, 1.0)
        with pytest.raises(StatekitError, match=message):
            sk.build_h_topo_dense(j, 1.0)

    def test_coupling_shape_messages(self):
        with pytest.raises(StatekitError, match="must be square"):
            sk.build_h_topo(np.zeros((2, 3)), 1.0)
        with pytest.raises(StatekitError, match="does not match 2 fields"):
            sk.HamiltonianSpec([1.0, 2.0], np.zeros((3, 3)))


class TestSandwichUnitary:
    def test_zero_coupling_merges_half_steps(self, rng):
        spec = sk.HamiltonianSpec(rng.uniform(-1, 1, 3), np.zeros((3, 3)), tau=0.37)
        u = sk.sandwich_unitary(spec)
        ref = sk.evolve(sk.build_h_data(spec.fields), spec.tau)
        assert sk.operator_distance(u, ref) < 1e-12

    def test_zero_field_reduces_to_topo(self, rng):
        spec = sk.HamiltonianSpec(np.zeros(3), sk.ring_coupling(3), mu=0.8, tau=0.25)
        u = sk.sandwich_unitary(spec)
        ref = sk.evolve(sk.build_h_topo(spec.coupling, spec.mu), spec.tau)
        assert sk.operator_distance(u, ref) < 1e-12

    def test_dense_and_factorized_paths_agree(self, rng):
        for _ in range(10):
            spec = seeded_spec(rng, 3)
            fast = sk.sandwich_unitary(spec, method="factorized")
            dense = sk.sandwich_unitary(spec, method="dense")
            assert sk.operator_distance(fast, dense) < 1e-12

    def test_unitarity(self, rng):
        spec = seeded_spec(rng, 4, topology="complete")
        u = sk.sandwich_unitary(spec)
        assert np.abs(u.matrix.conj().T @ u.matrix - np.eye(16)).max() < 1e-10

    def test_time_reversal_adjoint(self, rng):
        # adjoint of the symmetric product equals the product run at -tau
        spec = seeded_spec(rng, 3, tau=0.21)
        adj = sk.sandwich_unitary(spec).matrix.conj().T
        half = sk.evolve(sk.build_h_data(spec.fields), -spec.tau / 2).matrix
        mid = sk.evolve(sk.build_h_topo(spec.coupling, spec.mu), -spec.tau).matrix
        assert np.abs(adj - half @ mid @ half).max() < 1e-12

    def test_rejects_bad_arguments(self, rng):
        spec = seeded_spec(rng, 2)
        with pytest.raises(StatekitError):
            sk.sandwich_unitary(spec, method="sparse")

    @staticmethod
    def ry_layer_product(spec):
        """The factorized step with its rotation matrix built by ry_layer from the identity."""
        rot = _kernels.ry_layer(np.eye(spec.dim), (spec.tau / 2.0) * spec.fields)
        phase = np.exp(-1j * spec.tau * spec.mu * _kernels.zz_diagonal(spec.coupling))
        return rot @ (phase[:, None] * rot)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_factorized_bytes_equal_the_ry_layer_product(self, n, rng):
        for spec in oracle_specs(rng, n, taus=(0.1, 1e-3)):
            assert sk.sandwich_unitary(spec).matrix.tobytes() == self.ry_layer_product(spec).tobytes()

    def test_single_qubit_factorized_equals_the_ry_layer_product(self, rng):
        # at one qubit only the sign of a zero entry may differ
        for spec in oracle_specs(rng, 1, taus=(0.1, 1e-3)):
            assert np.array_equal(sk.sandwich_unitary(spec).matrix, self.ry_layer_product(spec))


class TestExactUnitary:
    def test_trivial_spec_is_identity(self):
        spec = sk.HamiltonianSpec(np.zeros(2), np.zeros((2, 2)))
        assert np.abs(sk.exact_unitary(spec).matrix - np.eye(4)).max() < 1e-12

    def test_single_qubit_equals_sandwich(self, rng):
        spec = sk.HamiltonianSpec([rng.uniform(0.1, 1.0)], np.zeros((1, 1)), tau=0.4)
        assert sk.operator_distance(sk.exact_unitary(spec), sk.sandwich_unitary(spec)) < 1e-12

    def test_unitarity(self, rng):
        spec = seeded_spec(rng, 2)
        u = sk.exact_unitary(spec)
        assert np.abs(u.matrix.conj().T @ u.matrix - np.eye(4)).max() < 1e-10


class TestEffectiveHamiltonian:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_bytes_equal_the_sum_of_both_terms(self, n, rng):
        for spec in oracle_specs(rng, n):
            expected = sk.build_h_data(spec.fields).matrix + sk.build_h_topo(spec.coupling, spec.mu).matrix
            assert sk.effective_hamiltonian(spec).matrix.tobytes() == expected.tobytes()


class TestCommutatorNorm:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_bit_equal_to_the_dense_commutator(self, n, rng):
        for spec in oracle_specs(rng, n, mus=(0.7, 0.0, -1.0)):
            a = sk.build_h_data(spec.fields)
            b = sk.build_h_topo(spec.coupling, spec.mu)
            dense = np.linalg.norm(sk.commutator(a, b).matrix, 2)
            assert np.float64(sk.commutator_norm(spec)).tobytes() == dense.tobytes()

    def test_zero_coupling(self, rng):
        spec = sk.HamiltonianSpec(rng.uniform(-1, 1, 3), np.zeros((3, 3)))
        assert sk.commutator_norm(spec) == 0.0

    def test_zero_field(self):
        spec = sk.HamiltonianSpec(np.zeros(3), sk.ring_coupling(3))
        assert sk.commutator_norm(spec) == 0.0

    def test_direct_oracle_small_case(self):
        spec = sk.HamiltonianSpec([1.0, 1.0], sk.ring_coupling(2), mu=1.0)
        a = sk.build_h_data(spec.fields).matrix
        b = sk.build_h_topo(spec.coupling, spec.mu).matrix
        oracle = np.linalg.norm(a @ b - b @ a, 2)
        value = sk.commutator_norm(spec)
        assert value == pytest.approx(oracle, abs=1e-12)
        assert value > 0.1


class TestInformationCurvature:
    def test_commuting_case_flagged(self, rng):
        spec = sk.HamiltonianSpec(rng.uniform(-2, 2, 4), np.zeros((4, 4)), tau=0.1)
        scan = sk.information_curvature(spec)
        assert scan.commuting
        assert scan.errors.max() < 1e-12
        assert scan.fitted_slope is None
        assert scan.fit_residual is None

    def test_third_order_slope(self, rng):
        spec = seeded_spec(rng, 3)
        scan = sk.information_curvature(spec)
        assert not scan.commuting
        assert 2.8 <= scan.fitted_slope <= 3.2

    def test_errors_monotone_in_tau(self, rng):
        spec = seeded_spec(rng, 3)
        scan = sk.information_curvature(spec)
        order = np.argsort(scan.taus)
        assert np.all(np.diff(scan.errors[order]) >= 0)

    def test_stronger_fields_curve_harder(self, rng):
        x = rng.uniform(-1.0, 1.0, 3)
        j = sk.ring_coupling(3)
        base = sk.HamiltonianSpec(x, j, tau=0.05)
        doubled = sk.HamiltonianSpec(2 * x, j, tau=0.05)
        err = lambda s: sk.operator_distance(sk.sandwich_unitary(s), sk.exact_unitary(s))
        assert err(doubled) > err(base)

    def test_one_eigendecomposition_per_scan(self, rng, eigh_calls):
        sk.information_curvature(seeded_spec(rng, 3))
        assert len(eigh_calls) == 1

    def test_one_build_per_scan(self, rng, monkeypatch, eigh_calls):
        h_data = count_calls(monkeypatch, "build_h_data", "qift")
        h_topo = count_calls(monkeypatch, "build_h_topo", "qift")
        layers = count_calls(monkeypatch, "_ry_layer_in_place", "_kernels")
        sk.information_curvature(seeded_spec(rng, 4, "complete"))
        assert (len(h_data), len(h_topo), len(layers), len(eigh_calls)) == (1, 0, 0, 1)

    def test_errors_equal_per_tau_exact_unitary(self, rng):
        spec = seeded_spec(rng, 4, "complete", mu=0.7)
        scan = sk.information_curvature(spec)
        expected = []
        for t in scan.taus:
            s = replace(spec, tau=float(t))
            expected.append(sk.operator_distance(sk.sandwich_unitary(s), sk.exact_unitary(s)))
        assert np.array_equal(scan.errors, expected)

    @pytest.mark.parametrize("topology", ["ring", "complete"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_errors_within_commutator_bound(self, n, topology):
        # Childs et al., PRX 11, 011020 (2021), for S2 = e^{-i tau A/2} e^{-i tau B} e^{-i tau A/2}:
        # ||S2(tau) - e^{-i tau (A+B)}|| <= tau^3/12 ||[B,[B,A]]|| + tau^3/24 ||[A,[A,B]]||
        rng = np.random.default_rng([n, len(topology)])
        for _ in range(4):
            spec = seeded_spec(rng, n, topology, mu=rng.uniform(0.2, 2.0))
            a = sk.build_h_data(spec.fields)
            b = sk.build_h_topo(spec.coupling, spec.mu)
            bba = np.linalg.norm(sk.commutator(b, sk.commutator(b, a)).matrix, 2)
            aab = np.linalg.norm(sk.commutator(a, sk.commutator(a, b)).matrix, 2)
            scan = sk.information_curvature(spec)
            bound = scan.taus**3 / 12 * bba + scan.taus**3 / 24 * aab + sk.TOLS.curvature_floor
            assert np.all(scan.errors <= bound), (scan.errors / bound).max()

    def test_grid_validation(self, rng):
        spec = seeded_spec(rng, 2)
        with pytest.raises(StatekitError):
            sk.information_curvature(spec, [0.1, 0.05, 0.01])  # too few
        with pytest.raises(StatekitError):
            sk.information_curvature(spec, [0.1, 0.09, 0.08, 0.07, 0.06])  # too narrow
        with pytest.raises(StatekitError):
            sk.information_curvature(spec, [0.1, 0.01, 0.05, 0.002, 0.001])  # not monotone
        with pytest.raises(StatekitError):
            sk.information_curvature(spec, [0.1, 0.01, 0.0, -0.01, -0.1])  # not positive

    def test_a_grid_of_one_row_scans_as_the_flat_grid(self, rng):
        spec = seeded_spec(rng, 3)
        flat = sk.information_curvature(spec, [0.1, 0.05, 0.01, 0.005, 0.001])
        row = sk.information_curvature(spec, [[0.1, 0.05, 0.01, 0.005, 0.001]])
        assert row.taus.tobytes() == flat.taus.tobytes() and row.errors.tobytes() == flat.errors.tobytes()
        assert (row.fitted_slope, row.fit_residual) == (flat.fitted_slope, flat.fit_residual)

    # rows-monotone: each row descends but the whole grid does not; checked by rows it would reach the tau loop
    @pytest.mark.parametrize(
        "taus, message",
        [
            ([[0.1, 0.01], [0.001, 0.0001]], "tau grid needs at least 5 points"),
            ([[0.1, 0.01, 0.001], [0.1, 0.01, 0.001]], "tau grid must be strictly monotone"),
        ],
        ids=["short", "rows-monotone"],
    )
    def test_a_bad_grid_of_rows_is_refused_before_any_decomposition(self, rng, eigh_calls, taus, message):
        with pytest.raises(StatekitError, match=f"^{message}$"):
            sk.information_curvature(seeded_spec(rng, 3), taus)
        assert eigh_calls == []


class TestEvolveVacuum:
    def test_zero_field_leaves_vacuum(self, rng):
        spec = sk.HamiltonianSpec(np.zeros(3), sk.ring_coupling(3), mu=1.7, tau=0.5)
        psi = sk.evolve_vacuum(spec)
        assert abs(abs(psi.amplitudes[0]) - 1.0) < 1e-12

    def test_single_qubit_rotation_arithmetic(self):
        # exp(-i*theta*sigma_y)|0> = (cos(theta), sin(theta))
        tau = 0.1
        spec = sk.HamiltonianSpec([(np.pi / 4) / tau], np.zeros((1, 1)), tau=tau)
        psi = sk.evolve_vacuum(spec)
        assert np.abs(np.abs(psi.amplitudes) - 1 / np.sqrt(2)).max() < 1e-12
        spec2 = sk.HamiltonianSpec([(np.pi / 2) / tau], np.zeros((1, 1)), tau=tau)
        psi2 = sk.evolve_vacuum(spec2)
        assert abs(abs(psi2.amplitudes[1]) - 1.0) < 1e-12

    def test_matches_operator_route(self, rng):
        for _ in range(10):
            spec = seeded_spec(rng, int(rng.integers(1, 5)))
            via_kernels = sk.evolve_vacuum(spec)
            # U |0...0> is the first column of U
            via_operator = sk.sandwich_unitary(spec).matrix[:, 0]
            assert np.abs(via_kernels.amplitudes - via_operator).max() < 1e-12

    def test_unit_norm_property(self, rng):
        spec = seeded_spec(rng, 3)
        assert abs(np.linalg.norm(sk.evolve_vacuum(spec).amplitudes) - 1.0) < 1e-12


def test_zz_diagonal_against_python_oracle(rng):
    for n in (1, 2, 3, 5):
        j = random_coupling(n, rng)
        h = sk.build_h_topo(j, 1.0)
        assert np.abs(np.diagonal(h.matrix).real - zz_energy_oracle(j)).max() < 1e-12


def test_coupling_presets():
    ring = sk.ring_coupling(4)
    assert ring[0, 1] == ring[1, 0] == 1.0
    assert ring[0, 3] == 1.0  # wrap-around edge
    assert ring[0, 2] == 0.0
    complete = sk.complete_coupling(3)
    assert np.array_equal(complete, np.ones((3, 3)) - np.eye(3))
    assert np.array_equal(sk.ring_coupling(1), np.zeros((1, 1)))
    # n=2 ring must not double-count the single edge
    assert np.array_equal(sk.ring_coupling(2), np.array([[0.0, 1.0], [1.0, 0.0]]))


# raise branches of this module that a public call reaches and no other test runs
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sk.CurvatureScan([0.1, 0.01, 0.05], [1e-3, 1e-6, 1e-4], 3.0, 0.1, False, 1.0),
         "tau grid must be strictly monotone"),
        (lambda: sk.CurvatureScan([0.1, 0.01], [1e-3, -1e-6], 3.0, 0.1, False, 1.0), "errors must be non-negative"),
        (lambda: sk.build_h_data([]), "at least one field strength is required"),
    ],
    ids=["scan-monotone", "scan-errors", "h-data-empty"],
)
def test_constructor_rule_raises_its_message(call, message):
    with pytest.raises(StatekitError, match=f"^{message}$"):
        call()
