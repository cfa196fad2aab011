"""Shared independent oracles for the test suite.

These deliberately avoid the package's own construction routes (np.kron
chains, kernel dispatch) so that agreement is evidence, not tautology.
"""
import importlib
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


def two_copy_ry_layer(amps, angles):
    """The rotation layer as it was first written: both halves of each qubit
    copied, then c a0 - s a1 and s a0 + c a1 formed out of place. ``amps`` is one
    state or a stack of columns; ``angles`` is (n,), or (n, k) for one set per column."""
    cosines, sines, n = np.cos(angles), np.sin(angles), angles.shape[0]
    out = np.array(amps, dtype=np.complex128, order="C")
    for q in range(n):
        v = out.reshape(1 << q, 2, 1 << (n - 1 - q), -1)
        a0 = v[:, 0].copy()
        a1 = v[:, 1].copy()
        v[:, 0] = cosines[q] * a0 - sines[q] * a1
        v[:, 1] = sines[q] * a0 + cosines[q] * a1
    return out


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


def count_calls(monkeypatch, name, module="statevec"):
    """List of the first arguments passed to ``statekit.<module>.<name>``, through
    any statekit module's binding of it, while the test runs."""
    original = getattr(importlib.import_module(f"statekit.{module}"), name)
    calls = []

    def counting(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    for modname, namespace in list(sys.modules.items()):
        if modname == "statekit" or modname.startswith("statekit."):
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    monkeypatch.setattr(namespace, attr, counting)
    return calls


@pytest.fixture
def eigh_calls(monkeypatch):
    """List of the operators passed to hermitian_spectral_decomposition."""
    return count_calls(monkeypatch, "hermitian_spectral_decomposition")


@pytest.fixture
def unitary_checks(monkeypatch):
    """List of the operators passed to is_unitary."""
    return count_calls(monkeypatch, "is_unitary")
