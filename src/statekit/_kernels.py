"""Hot numeric kernels, vectorized with numpy.

Three inner loops dominate runtime at larger qubit counts: applying a
per-qubit y-rotation layer to a state, tabulating the diagonal of the
pairwise z-z coupling, and the O(N^2) interference cross terms. Each is
checked against a dense or plain-python oracle in tests/test_kernels.py.

Index convention (package-wide): qubit 0 is the most significant bit of the
basis-state index, so qubit ``q`` of an ``n``-qubit register lives at bit
position ``n - 1 - q``.
"""
from __future__ import annotations

import functools

import numpy as np


def backend() -> str:
    """Kernel implementation in use; always ``"numpy"``."""
    return "numpy"


def ry_layer(amps: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Apply the commuting layer of per-qubit y-rotations exp(-i*angle_q*sigma_y).

    ``amps`` is one state of length 2^n or a (2^n, k) stack of k column
    states. ``angles`` holds one angle per qubit, shape (n,), shared by
    every column, or one angle per qubit and column, shape (n, k). The
    rotations act on distinct qubits, hence commute; application order is
    irrelevant. Returns a new array: ``_ry_layer_in_place`` of a copy.
    """
    out = np.array(amps, dtype=np.complex128, order="C")
    _ry_layer_in_place(out, angles)
    return out


def _ry_layer_in_place(out: np.ndarray, angles: np.ndarray) -> None:
    """Rotate the C-ordered complex128 state or stack ``out`` by ``ry_layer``'s layer, in place."""
    angles = np.ascontiguousarray(angles, dtype=np.float64)
    cosines = np.cos(angles)
    sines = np.sin(angles)
    n = angles.shape[0]
    for q in range(n):
        # qubit q is axis 1 of shape (2^q, 2, 2^(n-1-q), columns); an angle per column
        # broadcasts along the last axis. In place, only a0 is copied; the products and their
        # order are those of c a0 - s a1 and s a0 + c a1 but for the last +, which commutes exactly
        v = out.reshape(1 << q, 2, 1 << (n - 1 - q), -1)
        a0 = v[:, 0].copy()
        v[:, 0] *= cosines[q]
        v[:, 0] -= sines[q] * v[:, 1]
        v[:, 1] *= cosines[q]
        v[:, 1] += sines[q] * a0


def ry_matrix(angles: np.ndarray) -> np.ndarray:
    """Dense matrix of the ``ry_layer`` rotation layer: the left-to-right Kronecker product of
    the 2 x 2 rotations, qubit 0 first, so each entry is the product ``ry_layer`` of the identity forms."""
    c, s = np.cos(angles), np.sin(angles)
    blocks = np.array([[c, -s], [s, c]], dtype=np.complex128).transpose(2, 0, 1)  # one 2 x 2 block per qubit
    return functools.reduce(np.kron, blocks, np.ones((1, 1), dtype=np.complex128))


def zz_diagonal(coupling: np.ndarray) -> np.ndarray:
    """Diagonal energies of sum_{j<k} J_jk Z_j Z_k over all 2^n basis states."""
    coupling = np.ascontiguousarray(coupling, dtype=np.float64)
    n = coupling.shape[0]
    idx = np.arange(1 << n)
    bits = (idx[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    z = 1.0 - 2.0 * bits
    # J symmetric with zero diagonal: sum_{j<k} = z.J.z / 2
    return 0.5 * np.einsum("ij,jk,ik->i", z, coupling, z)


def pair_terms(t: np.ndarray) -> np.ndarray:
    """One-sided cross terms t_x conj(t_x') for all pairs x < x', in np.triu_indices order."""
    t = np.ascontiguousarray(t, dtype=np.complex128)
    rows, cols = np.triu_indices(t.size, 1)
    return t[rows] * t.conj()[cols]  # out of place: an in-place *= rounds N = 2 differently


def pair_sum(terms: np.ndarray) -> float:
    """Real-valued cross-term sum over all pairs x != x' from the ``pair_terms`` array.

    Twice the real part of the terms' sum, which numpy adds in one pairwise tree with
    the imaginary parts apart: bit for bit the sum of each term plus its conjugate.
    Statekit calls ``pair_sums``, which is checked against this one-row form.
    """
    return float(2.0 * terms.sum().real)


_PACK = 8192  # pair terms per packed block and per leaf of the split tree; at least numpy's 64


def pair_sums(t: np.ndarray) -> np.ndarray:
    """``pair_sum(pair_terms(row))`` for each row of the (k, N) block ``t``, bit for bit.

    Rows of M = N(N-1)/2 <= ``_PACK`` terms are gathered through ``np.triu_indices``,
    ``_PACK`` // M rows at a time as one C-ordered (rows, M) block summed along axis 1,
    which keeps numpy's pairwise tree per row (a ``t[:, rows]`` gather is F-ordered and
    leaves it). Longer rows follow the tree by hand: n doubles split at n/2 - (n/2 mod 8),
    so leaves of at most ``_PACK`` terms a row, filled for all rows at once from slices
    t_x conj(t[x+1:]) with no index array, are summed alone and added in the tree's order.
    """
    t = np.ascontiguousarray(t, dtype=np.complex128)
    m = t.shape[1] * (t.shape[1] - 1) // 2
    if m > _PACK:
        leaves = np.empty((len(t), _PACK), dtype=np.complex128)  # one leaf per row, filled together
        return 2.0 * _tree_node(t, t.conj(), leaves, [0, 0], m).real
    rows, cols = np.triu_indices(t.shape[1], 1)  # once per call, outside the block loop
    step = _PACK // max(m, 1)
    out = np.empty(len(t))
    for i in range(0, len(t), step):
        block = t[i:i + step]
        terms = np.take(block, rows, axis=1) * np.take(block.conj(), cols, axis=1)
        out[i:i + step] = 2.0 * terms.sum(axis=1).real
    return out


def _tree_node(t, tc, leaves, at, size):
    """Each row's sum of its next ``size`` terms along numpy's tree, from ``at``: the
    row x and the offset j in it of the next term, in triu order, moved past them."""
    if size > _PACK:
        half = (size - size % 8) // 2  # numpy's split of 2 * size doubles
        return _tree_node(t, tc, leaves, at, half) + _tree_node(t, tc, leaves, at, size - half)
    n = t.shape[1]
    (x, j), done = at, 0
    while done < size:
        take = min(size - done, n - 1 - x - j)
        np.multiply(t[:, x:x + 1], tc[:, x + 1 + j:x + 1 + j + take], out=leaves[:, done:done + take])
        done, j = done + take, j + take
        if j == n - 1 - x:
            x, j = x + 1, 0
    at[:] = x, j
    return leaves[:, :size].sum(axis=1)
