"""Shared independent oracles for the test suite.

These deliberately avoid the package's own construction routes (np.kron
chains, kernel dispatch) so that agreement is evidence, not tautology.
"""
import sys

import numpy as np
import pytest

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix_oracle(n, assignments):
    """Elementwise tensor-product construction: entry (r, c) is the product
    of per-qubit 2x2 entries selected by the bits of r and c (qubit 0 = MSB)."""
    mats = [PAULI[assignments.get(q, "I")] for q in range(n)]
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for r in range(dim):
        for c in range(dim):
            v = 1.0 + 0.0j
            for q in range(n):
                rb = (r >> (n - 1 - q)) & 1
                cb = (c >> (n - 1 - q)) & 1
                v *= mats[q][rb, cb]
            out[r, c] = v
    return out


def zz_energy_oracle(coupling):
    """Plain-python per-index energies of sum_{j<k} J_jk z_j z_k."""
    n = coupling.shape[0]
    energies = []
    for i in range(1 << n):
        z = [1.0 - 2.0 * ((i >> (n - 1 - q)) & 1) for q in range(n)]
        acc = 0.0
        for a in range(n):
            for b in range(a + 1, n):
                acc += coupling[a, b] * z[a] * z[b]
        energies.append(acc)
    return np.array(energies)


def decomposition_oracle(u, probs, phases, y):
    """Brute-force ordered double sum of the Born expansion at outcome y.

    Returns (classical, interference_complex, born)."""
    dim = len(probs)
    c = np.sqrt(probs).astype(complex)
    if phases is not None:
        c = c * np.exp(1j * np.asarray(phases))
    classical = sum(probs[x] * abs(u[y, x]) ** 2 for x in range(dim))
    interference = 0.0 + 0.0j
    for x in range(dim):
        for xp in range(dim):
            if x != xp:
                interference += (c[x] * u[y, x]) * np.conj(c[xp] * u[y, xp])
    born = abs(sum(u[y, x] * c[x] for x in range(dim))) ** 2
    return classical, interference, born


def random_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2.0


def random_coupling(n, rng):
    j = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            j[a, b] = j[b, a] = rng.uniform(-1.0, 1.0)
    return j


def qubit_permutation_matrix(perm):
    """Permutation operator sending qubit q's bit to position perm[q]."""
    n = len(perm)
    dim = 1 << n
    p = np.zeros((dim, dim))
    for i in range(dim):
        j = 0
        for q in range(n):
            bit = (i >> (n - 1 - q)) & 1
            j |= bit << (n - 1 - perm[q])
        p[j, i] = 1.0
    return p


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


def count_calls(monkeypatch, name):
    """List of the first arguments passed to ``statekit.statevec.<name>``, through
    any statekit module's binding of it, while the test runs."""
    import statekit.statevec

    original = getattr(statekit.statevec, name)
    calls = []

    def counting(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    for modname, module in list(sys.modules.items()):
        if modname == "statekit" or modname.startswith("statekit."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.fixture
def eigh_calls(monkeypatch):
    """List of the operators passed to hermitian_spectral_decomposition."""
    return count_calls(monkeypatch, "hermitian_spectral_decomposition")


@pytest.fixture
def unitary_checks(monkeypatch):
    """List of the operators passed to is_unitary."""
    return count_calls(monkeypatch, "is_unitary")
