import numpy as np
import pytest

import statekit as sk
from statekit.errors import StatekitError
from statekit.spectral import _profile_and_zeeman, zeeman_operator

from conftest import pauli_matrix_oracle, qubit_permutation_matrix


def zeeman_sweep(spec, epsilons):
    """The Zeeman trace of ``spec``, as ``statekit spectrum --zeeman`` computes it."""
    return _profile_and_zeeman(spec, epsilons)[1]


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


class TestZeemanSweep:
    def test_operator_equals_pauli_string_sum(self):
        for n in range(1, 9):
            expected = sum(sk.pauli_string(n, {q: "Z"}).matrix for q in range(n))
            assert np.array_equal(zeeman_operator(n).matrix, expected)

    def test_single_point_grid(self, rng):
        trace = zeeman_sweep(ring_spec(rng.uniform(-1, 1, 2)), [0.0])
        assert trace.stability_score == 0.0

    def test_trivial_spec_gap_is_twice_epsilon(self):
        # H = eps * sum_j Z_j has levels eps*(n-2k): lowest gap 2|eps|
        spec = sk.HamiltonianSpec(np.zeros(3), np.zeros((3, 3)))
        eps = np.array([-0.4, -0.2, 0.0, 0.2, 0.4])
        trace = zeeman_sweep(spec, eps)
        for e, gap in zip(trace.epsilons, trace.gaps):
            expected = 0.0 if e == 0 else 2 * abs(e)
            assert gap == pytest.approx(expected, abs=1e-12)
        assert trace.stability_score == pytest.approx(0.8, abs=1e-12)

    def test_trace_continuity_weyl_bound(self, rng):
        # gap increments are bounded by 2*n*d_eps (Weyl), at both resolutions
        spec = ring_spec(rng.uniform(-np.pi, np.pi, 3))
        n = spec.n_qubits
        for points in (11, 21):
            eps = np.linspace(-0.1, 0.1, points)
            trace = zeeman_sweep(spec, eps)
            d_eps = eps[1] - eps[0]
            jumps = np.abs(np.diff(trace.gaps))
            assert jumps.max() <= 2 * n * d_eps * (1 + 1e-9)

    def test_refinement_consistency(self, rng):
        spec = ring_spec(rng.uniform(-1, 1, 3))
        coarse = zeeman_sweep(spec, np.linspace(-0.1, 0.1, 11))
        fine = zeeman_sweep(spec, np.linspace(-0.1, 0.1, 21))
        assert np.abs(fine.gaps[::2] - coarse.gaps).max() < 1e-12

    def test_even_in_epsilon_without_coupling(self, rng):
        spec = sk.HamiltonianSpec(rng.uniform(-1, 1, 3), np.zeros((3, 3)))
        eps = np.array([-0.3, -0.1, 0.0, 0.1, 0.3])
        trace = zeeman_sweep(spec, eps)
        gaps = dict(zip(trace.epsilons.tolist(), trace.gaps.tolist()))
        for e in (0.1, 0.3):
            assert gaps[e] == pytest.approx(gaps[-e], abs=1e-10)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_zero_epsilon_leaves_the_bits_of_h(self, n, rng):
        # so each epsilon = 0, -0.0 too, may take the unperturbed profile's gap
        zee = zeeman_operator(n).matrix
        for x in (rng.uniform(-np.pi, np.pi, n), np.zeros(n), np.full(n, -0.0)):
            for mu in (1.0, 0.0, -0.5):
                for coupling in (sk.ring_coupling(n), sk.complete_coupling(n)):
                    h0 = sk.effective_hamiltonian(sk.HamiltonianSpec(x, coupling, mu=mu)).matrix
                    for e in (0.0, -0.0):
                        assert (h0 + e * zee).tobytes() == h0.tobytes()

    def test_grid_validation(self, rng):
        spec = ring_spec(rng.uniform(-1, 1, 2))
        with pytest.raises(StatekitError):
            zeeman_sweep(spec, [])
        with pytest.raises(StatekitError):
            zeeman_sweep(spec, [0.1, 0.2])


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

