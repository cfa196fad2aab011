"""Dense complex linear-algebra core: states, operators, spectra, evolution.

Index convention used by the whole package: qubit 0 is the most significant
bit of the basis-state index. For ``n`` qubits, basis state ``|q0 q1 ... >``
has index ``q0 * 2^(n-1) + q1 * 2^(n-2) + ...``, and operators on qubit 0
occupy the leftmost Kronecker factor.

All values are immutable; operations are pure functions and safe to share
across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

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
    """Zero-pad a 1-D array to the next power of two, at least 2."""
    target = 1 << max(v.size - 1, 1).bit_length()
    return v if v.size == target else np.concatenate([v, np.zeros(target - v.size)])


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _require_finite(what: str, *arrays, error: type[StatekitError] = StatekitError) -> None:
    """Raise ``error`` when any of ``arrays`` holds a NaN or an infinity."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise error(f"non-finite value in {what}")


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
        _require_finite("state", amps)
        if not _is_pow2(amps.size) or amps.size < 2:
            raise StatekitError(f"state length {amps.size} is not 2^n with n >= 1")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > TOLS.state_norm:
            raise StatekitError(f"state norm {norm!r} deviates from 1 beyond {TOLS.state_norm}")
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    @property
    def dim(self) -> int:
        return self.amplitudes.size


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
    """

    probabilities: np.ndarray
    original_length: int = field(default=0)

    def __post_init__(self):
        p = np.ascontiguousarray(self.probabilities, dtype=np.float64).ravel()
        if p.size == 0:
            raise InvalidDistributionError("empty probability vector")
        _require_finite("distribution", p, error=InvalidDistributionError)
        if np.any(p < 0):
            raise InvalidDistributionError(f"negative entry {p.min()!r} in distribution")
        orig = self.original_length or p.size
        p = _pad_pow2(p)
        total = p.sum()
        if abs(total - 1.0) > TOLS.distribution_sum:
            raise InvalidDistributionError(f"probabilities sum to {total!r}, not 1")
        if total != 1.0:
            p = p / total
        object.__setattr__(self, "probabilities", _freeze(p))
        object.__setattr__(self, "original_length", orig)

    @property
    def dim(self) -> int:
        return self.probabilities.size


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def pauli_string(
    n_qubits: int,
    assignments: Mapping[int, str] | Iterable[tuple[int, str]],
) -> HermitianOperator:
    """Kronecker product of Pauli matrices on assigned sites, identity elsewhere.

    Parameters
    ----------
    n_qubits : int
        Register size; the result has dimension 2^n_qubits.
    assignments : mapping or iterable of (site, label) pairs
        Nonempty; sites in [0, n_qubits); labels among X, Y, Z.

    The result is Hermitian and involutory (P @ P = identity).
    """
    if n_qubits < 1:
        raise StatekitError("n_qubits must be >= 1")
    pairs = list(assignments.items()) if isinstance(assignments, Mapping) else list(assignments)
    if not pairs:
        raise StatekitError("assignments must be nonempty")
    placed: dict[int, str] = {}
    for site, label in pairs:
        if not 0 <= site < n_qubits:
            raise StatekitError(f"site {site} out of range for {n_qubits} qubits")
        if site in placed:
            raise StatekitError(f"duplicate site {site} in Pauli assignment")
        if label not in ("X", "Y", "Z"):
            raise StatekitError(f"unknown Pauli label {label!r} (expected X, Y or Z)")
        placed[site] = label
    op = np.ones((1, 1), dtype=np.complex128)
    for site in range(n_qubits):
        op = np.kron(op, PAULI_MATRICES[placed.get(site, "I")])
    return HermitianOperator(op)


def is_unitary(u: DenseOperator, tol: float = TOLS.unitary) -> bool:
    gram = u.matrix.conj().T @ u.matrix
    return bool(np.abs(gram - np.eye(u.dim)).max() <= tol)


def apply_unitary(u: DenseOperator, psi: StateVector) -> StateVector:
    """Exact matrix-vector product U |psi>; U must be unitary within tolerance."""
    if u.dim != psi.dim:
        raise DimensionMismatchError(f"operator dim {u.dim} != state dim {psi.dim}")
    if not is_unitary(u):
        raise NotUnitaryError("operator is not unitary within tolerance")
    return StateVector(u.matrix @ psi.amplitudes)


def born_probabilities(psi: StateVector) -> Distribution:
    """Measurement distribution p_i = |amplitude_i|^2."""
    return Distribution(np.abs(psi.amplitudes) ** 2)


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


def operator_distance(a: DenseOperator, b: DenseOperator, norm: str = "spectral") -> float:
    """Distance between operators: largest singular value or Frobenius norm of A - B."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"operator dims differ: {a.dim} vs {b.dim}")
    diff = a.matrix - b.matrix
    if norm == "spectral":
        return float(np.linalg.norm(diff, 2))
    if norm == "frobenius":
        return float(np.linalg.norm(diff, "fro"))
    raise StatekitError(f"unknown norm {norm!r} (expected 'spectral' or 'frobenius')")


def haar_random_unitary(dim: int, seed_or_rng: Union[int, np.random.Generator]) -> DenseOperator:
    """Seeded Haar-random unitary: QR of a complex Gaussian matrix with the
    phases of R's diagonal folded back into Q."""
    rng = as_rng(seed_or_rng)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return DenseOperator(q * (d / np.abs(d)))


def basis_state(n_qubits: int, index: int = 0) -> StateVector:
    """Computational basis state |index> on n_qubits."""
    dim = 1 << n_qubits
    if not 0 <= index < dim:
        raise StatekitError(f"basis index {index} out of range for {n_qubits} qubits")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps)
