import numpy as np
import pytest

import statekit as sk
from statekit.errors import StatekitError
from statekit.qift import COUPLINGS as PRESETS
from statekit.spectral import _profile_and_zeeman

from conftest import pauli_matrix_oracle, qubit_permutation_matrix, random_coupling


def ring_spec(x, mu=1.0, tau=0.1):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return sk.HamiltonianSpec(x, sk.ring_coupling(x.size), mu=mu, tau=tau)


class TestSpectralProfile:
    def test_single_qubit_gap(self, rng):
        for _ in range(10):
            a = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
            profile = sk.spectral_profile(ring_spec([a]))
            assert profile.mass_gap == pytest.approx(2 * abs(a), abs=1e-12)
            assert np.abs(profile.eigenvalues - np.array([-abs(a), abs(a)])).max() < 1e-12

    def test_trivial_spec_degenerate(self):
        profile = sk.spectral_profile(sk.HamiltonianSpec(np.zeros(2), np.zeros((2, 2))))
        assert profile.mass_gap == 0.0
        assert profile.degenerate
        assert np.abs(profile.eigenvalues).max() == 0.0

    def test_two_qubit_matches_dense_oracle(self):
        spec = ring_spec([1.0, 1.0])
        h = pauli_matrix_oracle(2, {0: "Y"}) + pauli_matrix_oracle(2, {1: "Y"}) + pauli_matrix_oracle(2, {0: "Z", 1: "Z"})
        oracle = np.linalg.eigvalsh(h)
        profile = sk.spectral_profile(spec)
        assert np.abs(profile.eigenvalues - oracle).max() < 1e-12

    def test_permutation_invariance(self, rng):
        # relabeling qubits must not move the spectrum
        n = 3
        spec = sk.HamiltonianSpec(rng.uniform(-2, 2, n), sk.ring_coupling(n), mu=0.7)
        h = sk.effective_hamiltonian(spec).matrix
        for perm in ([1, 2, 0], [2, 1, 0], [0, 2, 1]):
            p = qubit_permutation_matrix(perm)
            conj = sk.HermitianOperator(p @ h @ p.T)
            vals = sk.hermitian_spectral_decomposition(conj).eigenvalues
            ref = sk.hermitian_spectral_decomposition(sk.HermitianOperator(h)).eigenvalues
            assert np.abs(vals - ref).max() < 1e-10


class TestGapFloor:
    """A gap is degenerate below max(``TOLS.degeneracy``, 4 eps sqrt(N) ||H||_F), the
    rounding noise of a gap that ``eigh`` computes."""

    @pytest.mark.parametrize("n", [2, 4])
    def test_the_noise_of_a_near_degenerate_pair_reads_degenerate(self, n):
        # at mu >= 1e10 the lowest pair splits by about prod |x_j| / mu^(n-1) <= 1e-7, where the
        # floor is above 3e-5 and eigh's noise of order eps mu: the flat 1e-10 took that noise for a gap
        rng = np.random.default_rng(n)
        above_the_tolerance = 0
        for topology in PRESETS:
            for _ in range(200 if n == 2 else 40):
                x = rng.uniform(-np.pi, np.pi, n) * 10 ** rng.uniform(-2, 1)
                spec = sk.HamiltonianSpec(x, PRESETS[topology](n), mu=10 ** rng.uniform(10, 15))
                profile = sk.spectral_profile(spec)
                assert profile.degenerate and profile.mass_gap == 0.0, (topology, spec.fields, spec.mu)
                above_the_tolerance += profile.eigenvalues[1] - profile.eigenvalues[0] >= sk.TOLS.degeneracy
        assert above_the_tolerance > 0

    def test_floor_is_four_eps_sqrt_n_times_the_frobenius_norm(self, rng):
        eps = np.finfo(np.float64).eps
        for n in range(1, 7):
            for mu in (1.0, 1e6, 1e160):  # at 1e160 the squares of H's entries overflow
                spec = sk.HamiltonianSpec(rng.uniform(-3, 3, n), random_coupling(n, rng), mu=mu)
                h = sk.effective_hamiltonian(spec)
                want = 4 * eps * np.sqrt(h.dim) * mu * np.linalg.norm(h.matrix / mu)
                floor = sk.spectral._gap_floor(sk.hermitian_spectral_decomposition(h).eigenvalues)
                assert floor == pytest.approx(want, rel=1e-12), (n, mu)

    # the experiments draw each field from (-pi, pi); ||H||_F^2 = N (mu^2 sum_{j<k} J_jk^2 + sum_j x_j^2),
    # the Z-Z strings and the sigma_y strings being orthogonal, so fields of modulus pi bound it
    @pytest.mark.parametrize("topology", sorted(PRESETS))
    def test_no_verdict_at_unit_coupling_moves(self, topology):
        eps = np.finfo(np.float64).eps
        for n in range(1, 13):
            coupling, x = PRESETS[topology](n), np.full(n, np.pi)
            dim = 1 << n
            bound = 4 * eps * np.sqrt(dim) * np.sqrt(dim * (np.sum(np.triu(coupling, 1) ** 2) + np.sum(x**2)))
            if n <= 8:
                vals = sk.spectral_profile(sk.HamiltonianSpec(x, coupling, mu=1.0)).eigenvalues
                assert sk.spectral._gap_floor(vals) == pytest.approx(bound, rel=1e-12), n
            assert bound < sk.TOLS.degeneracy, n


def z_sum(n):
    """sum_j Z_j as a dense sum of Pauli strings, the oracle for the sweep's diagonal shift."""
    return sum(sk.pauli_string(n, {q: "Z"}).matrix for q in range(n))


def recorded_sweep(monkeypatch, spec, eps):
    """``_profile_and_zeeman(spec, eps)`` and the (matrix, profile) of each operator it decomposes."""
    profile_of = sk.spectral._profile_of
    seen = []

    def recording(h):
        seen.append((h.matrix, profile_of(h)))
        return seen[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(sk.spectral, "_profile_of", recording)
        return _profile_and_zeeman(spec, eps), seen


COUPLINGS = {
    "ring": lambda n, rng: sk.ring_coupling(n),
    "complete": lambda n, rng: sk.complete_coupling(n),
    "explicit": random_coupling,
}


class TestZeemanSweep:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_operator_equals_pauli_string_sum(self, n, monkeypatch):
        # with H = 0 the operator the sweep decomposes at epsilon = 1 is sum_j Z_j itself
        spec = sk.HamiltonianSpec(np.zeros(n), np.zeros((n, n)))
        _, seen = recorded_sweep(monkeypatch, spec, [0.0, 1.0])
        assert seen[1][0].tobytes() == z_sum(n).astype(np.complex128).tobytes()

    @pytest.mark.parametrize("coupling", COUPLINGS)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_each_shifted_operator_is_the_dense_sum_byte_for_byte(self, n, coupling, rng, monkeypatch):
        # the sweep shifts H's diagonal by epsilon * (n - 2 popcount(i)); the oracle adds epsilon times
        # the dense sum_j Z_j of Pauli strings, and both must hand eigh the same bits, so the same gaps
        zee = z_sum(n)
        eps = np.array([0.0, -0.0, 1e-300, -1e-300, 0.3, -0.3, 5.0])
        x = rng.uniform(-np.pi, np.pi, n)
        x[::2] = -0.0
        for fields in (x, np.full(n, -0.0)):
            for mu in (1.0, 0.0, -0.5):
                spec = sk.HamiltonianSpec(fields, COUPLINGS[coupling](n, rng), mu=mu)
                h0 = sk.effective_hamiltonian(spec).matrix
                (profile, gaps, score), seen = recorded_sweep(monkeypatch, spec, eps)
                assert [m.tobytes() for m, _ in seen] == [h0.tobytes()] + [(h0 + e * zee).tobytes() for e in eps[2:]]
                oracle = np.array([profile.mass_gap] * 2 + [p.mass_gap for _, p in seen[1:]])
                assert gaps.tobytes() == oracle.tobytes() and not gaps.flags.writeable
                assert score == np.abs(oracle - profile.mass_gap).max()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_zero_epsilon_leaves_the_bits_of_h(self, n, rng, monkeypatch):
        # so each epsilon = 0, -0.0 too, may take the unperturbed profile's gap without a decomposition
        zee = z_sum(n)
        for x in (rng.uniform(-np.pi, np.pi, n), np.zeros(n), np.full(n, -0.0)):
            for mu in (1.0, 0.0, -0.5):
                for coupling in (sk.ring_coupling(n), sk.complete_coupling(n)):
                    spec = sk.HamiltonianSpec(x, coupling, mu=mu)
                    h0 = sk.effective_hamiltonian(spec).matrix
                    for e in (0.0, -0.0):
                        assert (h0 + e * zee).tobytes() == h0.tobytes()
                    (profile, gaps, score), seen = recorded_sweep(monkeypatch, spec, [0.0, -0.0])
                    assert len(seen) == 1 and gaps.tolist() == [profile.mass_gap] * 2 and score == 0.0

    def test_single_point_grid(self, rng):
        assert _profile_and_zeeman(ring_spec(rng.uniform(-1, 1, 2)), [0.0])[2] == 0.0

    def test_trivial_spec_gap_is_twice_epsilon(self):
        # H = eps * sum_j Z_j has levels eps*(n-2k): lowest gap 2|eps|
        spec = sk.HamiltonianSpec(np.zeros(3), np.zeros((3, 3)))
        eps = np.array([-0.4, -0.2, 0.0, 0.2, 0.4])
        _, gaps, score = _profile_and_zeeman(spec, eps)
        for e, gap in zip(eps, gaps):
            expected = 0.0 if e == 0 else 2 * abs(e)
            assert gap == pytest.approx(expected, abs=1e-12)
        assert score == pytest.approx(0.8, abs=1e-12)

    def test_trace_continuity_weyl_bound(self, rng):
        # gap increments are bounded by 2*n*d_eps (Weyl), at both resolutions
        spec = ring_spec(rng.uniform(-np.pi, np.pi, 3))
        n = spec.n_qubits
        for points in (11, 21):
            eps = np.linspace(-0.1, 0.1, points)
            _, gaps, _ = _profile_and_zeeman(spec, eps)
            d_eps = eps[1] - eps[0]
            jumps = np.abs(np.diff(gaps))
            assert jumps.max() <= 2 * n * d_eps * (1 + 1e-9)

    def test_refinement_consistency(self, rng):
        spec = ring_spec(rng.uniform(-1, 1, 3))
        coarse = _profile_and_zeeman(spec, np.linspace(-0.1, 0.1, 11))[1]
        fine = _profile_and_zeeman(spec, np.linspace(-0.1, 0.1, 21))[1]
        assert np.abs(fine[::2] - coarse).max() < 1e-12

    def test_even_in_epsilon_without_coupling(self, rng):
        spec = sk.HamiltonianSpec(rng.uniform(-1, 1, 3), np.zeros((3, 3)))
        eps = np.array([-0.3, -0.1, 0.0, 0.1, 0.3])
        gaps = dict(zip(eps.tolist(), _profile_and_zeeman(spec, eps)[1].tolist()))
        for e in (0.1, 0.3):
            assert gaps[e] == pytest.approx(gaps[-e], abs=1e-10)

    def test_grid_validation(self, rng):
        spec = ring_spec(rng.uniform(-1, 1, 2))
        with pytest.raises(StatekitError):
            _profile_and_zeeman(spec, [])
        with pytest.raises(StatekitError):
            _profile_and_zeeman(spec, [0.1, 0.2])


class TestResonance:
    def test_reflexive(self, rng):
        spec = ring_spec(rng.uniform(-2, 2, 2))
        verdict = sk.resonance_similarity(spec, spec, 1e-9)
        assert verdict.resonant
        assert verdict.delta == 0.0

    def test_sign_of_field_irrelevant_single_qubit(self):
        v = sk.resonance_similarity(ring_spec([1.0]), ring_spec([-1.0]), 1e-9)
        assert v.resonant
        assert v.gap_a == pytest.approx(2.0, abs=1e-12)
        assert v.gap_b == pytest.approx(2.0, abs=1e-12)

    def test_symmetric_over_seeded_pairs(self, rng):
        for _ in range(20):
            a = ring_spec(rng.uniform(-2, 2, 2))
            b = ring_spec(rng.uniform(-2, 2, 2))
            vab = sk.resonance_similarity(a, b, 1e-3)
            vba = sk.resonance_similarity(b, a, 1e-3)
            assert vab.resonant == vba.resonant
            assert vab.delta == pytest.approx(vba.delta, abs=0.0)

    def test_differing_mu_not_resonant(self):
        a = ring_spec([1.0, 1.0], mu=1.0)
        b = ring_spec([1.0, 1.0], mu=1.5)
        verdict = sk.resonance_similarity(a, b, 1e-6)
        assert not verdict.resonant

    def test_not_transitive_witness(self):
        # gaps g, g + 0.9*tol, g + 1.8*tol: a~b and b~c but not a~c
        tol = 1e-3
        g = 1.0
        specs = [ring_spec([(g + k * 0.9 * tol) / 2.0]) for k in range(3)]
        ab = sk.resonance_similarity(specs[0], specs[1], tol)
        bc = sk.resonance_similarity(specs[1], specs[2], tol)
        ac = sk.resonance_similarity(specs[0], specs[2], tol)
        assert ab.resonant and bc.resonant and not ac.resonant

    def test_tolerance_surfaced(self):
        verdict = sk.resonance_similarity(ring_spec([1.0]), ring_spec([1.0]))
        assert verdict.tolerance == sk.TOLS.resonance

    def test_tolerance_must_be_positive(self):
        with pytest.raises(StatekitError):
            sk.resonance_similarity(ring_spec([1.0]), ring_spec([1.0]), 0.0)

    def test_spectrum_distance_auxiliary(self):
        a = ring_spec([1.0])
        b = ring_spec([2.0])
        verdict = sk.resonance_similarity(a, b, 1e-3)
        assert verdict.spectrum_distance == pytest.approx(1.0, abs=1e-12)


# raise branches of this module that a public call reaches and no other test runs
@pytest.mark.parametrize(
    "call, message",
    [(lambda: sk.SpectralProfile(np.array([1.0, 0.0]), 0.0, True), "eigenvalues must be ascending")],
    ids=["profile-descending"],
)
def test_constructor_rule_raises_its_message(call, message):
    with pytest.raises(StatekitError, match=f"^{message}$"):
        call()
