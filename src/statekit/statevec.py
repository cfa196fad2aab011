"""Dense complex linear-algebra core: states, operators, spectra, evolution.

Index convention used by the whole package: qubit 0 is the most significant
bit of the basis-state index. For ``n`` qubits, basis state ``|q0 q1 ... >``
has index ``q0 * 2^(n-1) + q1 * 2^(n-2) + ...``, and operators on qubit 0
occupy the leftmost Kronecker factor.

All values are immutable; operations are pure functions and safe to share
across threads.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    EigensolverError,
    InvalidDistributionError,
    NotHermitianError,
    NotUnitaryError,
    StatekitError,
)
from .tolerances import TOLS

PAULI_MATRICES = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _pad_pow2(v: np.ndarray) -> np.ndarray:
    """Zero-pad the last axis of ``v`` to the next power of two, at least 2."""
    width = v.shape[-1]
    target = 1 << max(width - 1, 1).bit_length()
    if width == target:
        return v
    return np.concatenate([v, np.zeros(v.shape[:-1] + (target - width,))], axis=-1)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _require_finite(what: str, *arrays, error: type[StatekitError] = StatekitError) -> None:
    """Raise ``error`` when any of ``arrays`` holds a NaN or an infinity."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise error(f"non-finite value in {what}")


def _raise_first_failure(error: type[StatekitError], *checks) -> None:
    """Raise ``error`` for the first row that fails one of ``checks``.

    Each check is a pair: a boolean mask of the failing rows, and a message
    that is text or a function of the row index. Checks are listed in the
    order one row is checked, and the row's first failed check gives the
    message, so a stack raises what its first bad row raises on its own.
    """
    failed = np.logical_or.reduce([mask for mask, _ in checks])
    if failed.any():
        row = int(failed.argmax())
        message = next(message for mask, message in checks if mask[row])
        raise error(message if isinstance(message, str) else message(row))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row, by the same ``np.linalg.norm`` call as one vector."""
    return np.array([np.linalg.norm(row) for row in rows])


def _check_state_rows(amps: np.ndarray) -> None:
    """Raise unless every row of ``amps`` (m, d) is a valid ``StateVector``."""
    dim = amps.shape[1]
    norms = _row_norms(amps)
    _raise_first_failure(
        StatekitError,
        (~np.isfinite(amps).all(axis=1), "non-finite value in state"),
        (np.full(len(amps), not _is_pow2(dim) or dim < 2), f"state length {dim} is not 2^n with n >= 1"),
        (
            np.abs(norms - 1.0) > TOLS.state_norm,
            lambda row: f"state norm {norms[row]!r} deviates from 1 beyond {TOLS.state_norm}",
        ),
    )


def _distribution_rows(p: np.ndarray) -> np.ndarray:
    """Check every row of ``p`` (m, k) as a ``Distribution``; return the rows
    zero-padded to 2^n, each divided by its sum unless that is exactly 1."""
    padded = _pad_pow2(p)
    total = padded.sum(axis=1)
    _raise_first_failure(
        InvalidDistributionError,
        (np.full(len(p), p.shape[1] == 0), "empty probability vector"),
        (~np.isfinite(p).all(axis=1), "non-finite value in distribution"),
        ((p < 0).any(axis=1), lambda row: f"negative entry {p[row].min()!r} in distribution"),
        (
            np.abs(total - 1.0) > TOLS.distribution_sum,
            lambda row: f"probabilities sum to {total[row]!r}, not 1",
        ),
    )
    exact = total == 1.0
    return padded if exact.all() else np.where(exact[:, None], padded, padded / total[:, None])


def as_rng(seed_or_rng: Union[int, np.random.Generator]) -> np.random.Generator:
    """Coerce an integer seed or an existing Generator into a Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    if isinstance(seed_or_rng, bool) or not isinstance(seed_or_rng, (int, np.integer)):
        raise StatekitError(f"seed must be a non-negative integer, got {seed_or_rng!r}")
    if seed_or_rng < 0:
        raise StatekitError(f"seed must be non-negative, got {seed_or_rng}")
    return np.random.default_rng(seed_or_rng)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StateVector:
    """A pure n-qubit state: 2^n complex amplitudes of unit Euclidean norm.

    ``padded_from`` records the original input length when an encoder
    zero-padded the data to the next power of two.
    """

    amplitudes: np.ndarray
    padded_from: int | None = None

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128).ravel()
        _check_state_rows(amps[None])
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, eq=False)
class StateStack:
    """m pure states of one dimension: the rows of a frozen (m, 2^n) array.

    Every row passes the checks of ``StateVector``. ``len`` counts the
    states; indexing and iteration give them as ``StateVector``s that carry
    ``padded_from``.
    """

    amplitudes: np.ndarray
    padded_from: int | None = None

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 2:
            raise StatekitError(f"a state stack must be 2-D, got shape {amps.shape}")
        _check_state_rows(amps)
        object.__setattr__(self, "amplitudes", _freeze(amps))

    def __len__(self) -> int:
        return self.amplitudes.shape[0]

    def __getitem__(self, index: int) -> StateVector:
        # the row is checked and frozen already, so it skips StateVector's check
        state = object.__new__(StateVector)
        object.__setattr__(state, "amplitudes", self.amplitudes[operator.index(index)])
        object.__setattr__(state, "padded_from", self.padded_from)
        return state

    def __iter__(self):
        return (self[i] for i in range(len(self)))


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Square complex matrix acting on a 2^n-dimensional state space."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StatekitError(f"operator must be square, got shape {m.shape}")
        _require_finite("operator", m)
        if not _is_pow2(m.shape[0]):
            raise StatekitError(f"operator dimension {m.shape[0]} is not a power of 2")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class HermitianOperator(DenseOperator):
    """DenseOperator constrained to H = H^dag within ``TOLS.hermitian``."""

    def __post_init__(self):
        super().__post_init__()
        dev = np.abs(self.matrix - self.matrix.conj().T).max()
        if dev > TOLS.hermitian:
            raise NotHermitianError(f"max |H - H^dag| = {dev:.3e} exceeds {TOLS.hermitian}")


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending eigenvalues and a unitary matrix of column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.eigenvalues, dtype=np.float64).ravel()
        vecs = np.ascontiguousarray(self.eigenvectors, dtype=np.complex128)
        _require_finite("eigenpairs", vals, vecs, error=EigensolverError)
        if np.any(np.diff(vals) < 0):
            raise EigensolverError("eigenvalues are not sorted ascending")
        gram = vecs.conj().T @ vecs
        resid = np.linalg.norm(gram - np.eye(vecs.shape[0]))
        if resid > TOLS.spectral_residual:
            raise EigensolverError(f"eigenvector orthonormality residual {resid:.3e}")
        object.__setattr__(self, "eigenvalues", _freeze(vals))
        object.__setattr__(self, "eigenvectors", _freeze(vecs))

    def evolution(self, t: float) -> DenseOperator:
        """exp(-i t H) = V exp(-i t Lambda) V^dag for the H decomposed here."""
        phases = np.exp(-1j * t * self.eigenvalues)
        return DenseOperator((self.eigenvectors * phases) @ self.eigenvectors.conj().T)


@dataclass(frozen=True, eq=False)
class Distribution:
    """Classical probability vector, zero-padded to a power-of-2 length.

    A sum within ``TOLS.distribution_sum`` of 1 is renormalized silently
    (floating-point ingestion noise); larger deviations raise.
    ``original_length`` is the input length before padding.
    """

    probabilities: np.ndarray
    original_length: int = field(init=False)

    def __post_init__(self):
        p = np.ascontiguousarray(self.probabilities, dtype=np.float64).ravel()
        object.__setattr__(self, "original_length", p.size)
        object.__setattr__(self, "probabilities", _freeze(_distribution_rows(p[None])[0]))

    @property
    def dim(self) -> int:
        return self.probabilities.size


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def pauli_string(n_qubits: int, assignments: Mapping[int, str]) -> HermitianOperator:
    """Kronecker product of Pauli matrices on assigned sites, identity elsewhere.

    Parameters
    ----------
    n_qubits : int
        Register size; the result has dimension 2^n_qubits.
    assignments : mapping of site to label
        Nonempty; sites in [0, n_qubits); labels among X, Y, Z.

    The result is Hermitian and involutory (P @ P = identity).
    """
    if n_qubits < 1:
        raise StatekitError("n_qubits must be >= 1")
    if not assignments:
        raise StatekitError("assignments must be nonempty")
    for site, label in assignments.items():
        if not 0 <= site < n_qubits:
            raise StatekitError(f"site {site} out of range for {n_qubits} qubits")
        if label not in ("X", "Y", "Z"):
            raise StatekitError(f"unknown Pauli label {label!r} (expected X, Y or Z)")
    op = np.ones((1, 1), dtype=np.complex128)
    for site in range(n_qubits):
        op = np.kron(op, PAULI_MATRICES[assignments.get(site, "I")])
    return HermitianOperator(op)


def is_unitary(u: DenseOperator) -> bool:
    """True iff max |U^dag U - I| is within ``TOLS.unitary``."""
    gram = u.matrix.conj().T @ u.matrix
    return bool(np.abs(gram - np.eye(u.dim)).max() <= TOLS.unitary)


def _require_unitary(u: DenseOperator) -> None:
    if not is_unitary(u):
        raise NotUnitaryError("operator is not unitary within tolerance")


def hermitian_spectral_decomposition(h: HermitianOperator) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian operator.

    Raises ``EigensolverError`` on non-convergence or when the
    reconstruction residual exceeds ``TOLS.spectral_residual`` (relative to
    the Frobenius norm of H); accuracy is never silently degraded.
    """
    try:
        vals, vecs = np.linalg.eigh(h.matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed to converge: {exc}") from exc
    recon = (vecs * vals) @ vecs.conj().T
    resid = np.linalg.norm(recon - h.matrix)
    bound = TOLS.spectral_residual * max(1.0, np.linalg.norm(h.matrix))
    if resid > bound:
        raise EigensolverError(f"reconstruction residual {resid:.3e} exceeds {bound:.3e}")
    return SpectralDecomposition(vals, vecs)


def evolve(h: HermitianOperator, t: float) -> DenseOperator:
    """Unitary exp(-i t H) via the spectral decomposition (exact at desk scale)."""
    return hermitian_spectral_decomposition(h).evolution(t)


def operator_distance(a: DenseOperator, b: DenseOperator) -> float:
    """Spectral-norm distance: the largest singular value of A - B."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"operator dims differ: {a.dim} vs {b.dim}")
    return float(np.linalg.norm(a.matrix - b.matrix, 2))


def commutator(a: DenseOperator, b: DenseOperator) -> DenseOperator:
    """AB - BA."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"operator dims differ: {a.dim} vs {b.dim}")
    return DenseOperator(a.matrix @ b.matrix - b.matrix @ a.matrix)


def haar_random_unitary(dim: int, seed_or_rng: Union[int, np.random.Generator]) -> DenseOperator:
    """Seeded Haar-random unitary: QR of a complex Gaussian matrix with the
    phases of R's diagonal folded back into Q."""
    rng = as_rng(seed_or_rng)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return DenseOperator(q * (d / np.abs(d)))

