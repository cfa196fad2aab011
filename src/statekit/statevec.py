"""Dense complex linear-algebra core: states, operators, spectra, evolution.

Index convention used by the whole package: qubit 0 is the most significant
bit of the basis-state index. For ``n`` qubits, basis state ``|q0 q1 ... >``
has index ``q0 * 2^(n-1) + q1 * 2^(n-2) + ...``, and operators on qubit 0
occupy the leftmost Kronecker factor.

All values are immutable; operations are pure functions and safe to share
across threads. Arrays enter through ``_as_array``, which rejects bools,
strings and ragged rows; ``_own`` also copies memory a caller can still write,
adopts read-only memory and freezes what a type keeps, so builders freeze theirs.
Scalars enter through ``_as_int`` (its test: ``_is_int``) and ``_as_real``, which reject bools.
"""
from __future__ import annotations

import numbers
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
    view = arr
    while isinstance(view, np.ndarray):  # and every array it views, so _own adopts it
        view.flags.writeable = False
        view = view.base
    return arr


def _require_finite(what: str, *arrays, error: type[StatekitError] = StatekitError) -> None:
    """Raise ``error`` when any of ``arrays`` holds a NaN or an infinity."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise error(f"non-finite value in {what}")


def _as_array(value, name: str, dtype, error=StatekitError, flat=False) -> np.ndarray:
    """``value`` as a C-contiguous ``dtype`` array, flattened if ``flat``, by safe
    casts only; ``error`` names ``name`` for bools, strings, objects and ragged rows."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged rows
        arr = np.asarray(None)  # an object array, rejected below
    numeric = arr.dtype.kind in "iufc" and (isinstance(value, np.ndarray) or not any(  # a bool among numbers
        isinstance(v, (bool, np.bool_)) for v in np.asarray(value, dtype=object).flat))
    if not numeric or not np.can_cast(arr.dtype, dtype, "safe"):  # bools, strings, lossy casts
        raise error(f"{name} must be an array of numbers safely castable to {np.dtype(dtype)}")
    out = np.ascontiguousarray(arr, dtype=dtype)
    return out.ravel() if flat else out


def _is_int(value, low=0, high=np.inf) -> bool:
    """True iff ``value`` is an ``int`` or ``np.integer``, not a bool, in [low, high)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and low <= value < high


def _as_int(value, name: str, low=0, error=StatekitError) -> int:
    """``value`` as an int; raise ``error`` unless ``_is_int(value, low)``."""
    if not _is_int(value, low):
        raise error(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _as_real(value, name: str, error=StatekitError, what: str = "", positive=False) -> float:
    """``value`` as a float; raise ``error`` unless it is a real number, not a bool, and finite
    (a non-finite value is reported as one in ``what``, default ``name``). A ``positive`` value,
    a tolerance, must be > 0, tested first: NaN, infinities and 0 get that one message."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    if positive and not 0 < value < np.inf:
        raise error(f"{name} must be finite and > 0, got {value}")
    if not abs(value) <= float(np.finfo(np.float64).max):  # NaN, infinities, ints beyond the float range
        raise error(f"non-finite value in {what or name}")
    return float(value)


def _scaled(scale, values: np.ndarray, what: str) -> np.ndarray:
    """``scale * values``, refused before it is formed if |scale| max|values| leaves the float range."""
    _as_real(abs(scale) * float(np.abs(values).max(initial=0.0)), what)
    return scale * values


def _own(obj, name: str, dtype, error=StatekitError, finite: str | None = None, flat=False, value=None):
    """Set field ``name`` of ``obj`` to a frozen ``_as_array`` of ``value`` (default: the
    field itself) and return it; ``finite`` names it when a NaN or an infinity raises ``error``."""
    value = getattr(obj, name) if value is None else value
    out = owner = _as_array(value, name, dtype, error, flat)
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    if (owner.flags.writeable or owner.base is not None) and (not out.size or np.may_share_memory(out, value)):
        out = owner = out.copy()  # memory the caller can still write, or an empty array
    if finite:
        _require_finite(finite, out, error=error)
    owner.flags.writeable = out.flags.writeable = False
    object.__setattr__(obj, name, out)
    return out


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
    """The Euclidean norm of each row, bit for bit ``np.linalg.norm`` of the row alone:
    that takes the dot of the real part with itself, plus that of the imaginary part
    for complex rows, and one batched product per part gives the same dots."""
    squares = _row_dots(rows.real)
    if np.iscomplexobj(rows):
        squares = squares + _row_dots(rows.imag)
    return np.sqrt(squares)


def _row_dots(r: np.ndarray) -> np.ndarray:
    return np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0]


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
    return np.random.default_rng(_as_int(seed_or_rng, "seed"))


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
        _check_state_rows(_own(self, "amplitudes", np.complex128, flat=True)[None])

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
        amps = _own(self, "amplitudes", np.complex128)
        if amps.ndim != 2:
            raise StatekitError(f"a state stack must be 2-D, got shape {amps.shape}")
        _check_state_rows(amps)

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
        m = _own(self, "matrix", np.complex128, finite="operator")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StatekitError(f"operator must be square, got shape {m.shape}")
        if not _is_pow2(m.shape[0]):
            raise StatekitError(f"operator dimension {m.shape[0]} is not a power of 2")

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
        vals = _own(self, "eigenvalues", np.float64, EigensolverError, finite="eigenpairs", flat=True)
        vecs = _own(self, "eigenvectors", np.complex128, EigensolverError, finite="eigenpairs")
        if np.any(vals[1:] < vals[:-1]):  # no difference formed: one could overflow
            raise EigensolverError("eigenvalues are not sorted ascending")
        gram = vecs.conj().T @ vecs
        resid = np.linalg.norm(gram - np.eye(vecs.shape[0]))
        if resid > TOLS.spectral_residual:
            raise EigensolverError(f"eigenvector orthonormality residual {resid:.3e}")

    def evolution(self, t: float) -> DenseOperator:
        """exp(-i t H) = V exp(-i t Lambda) V^dag for the H decomposed here; t is a finite real."""
        phases = np.exp(_scaled(-1j * _as_real(t, "t"), self.eigenvalues, "t times the spectrum"))
        return DenseOperator(_freeze((self.eigenvectors * phases) @ self.eigenvectors.conj().T))


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
        p = _own(self, "probabilities", np.float64, InvalidDistributionError, flat=True)
        object.__setattr__(self, "original_length", p.size)
        _own(self, "probabilities", np.float64, value=_distribution_rows(p[None])[0])

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
        Register size, an integer >= 1; the result has dimension 2^n_qubits.
    assignments : mapping of site to label
        Nonempty; integer sites in [0, n_qubits); labels among X, Y, Z.

    The result is Hermitian and involutory (P @ P = identity).
    """
    n_qubits = _as_int(n_qubits, "n_qubits", 1)
    if not assignments:
        raise StatekitError("assignments must be nonempty")
    for site, label in assignments.items():
        if not _is_int(site, 0, n_qubits):
            raise StatekitError(f"site {site} out of range for {n_qubits} qubits")
        if label not in ("X", "Y", "Z"):
            raise StatekitError(f"unknown Pauli label {label!r} (expected X, Y or Z)")
    op = np.ones((1, 1), dtype=np.complex128)
    for site in range(n_qubits):
        op = np.kron(op, PAULI_MATRICES[assignments.get(site, "I")])
    return HermitianOperator(_freeze(op))


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
    _require_finite("eigenpairs", vals, error=EigensolverError)  # before an infinite one meets a zero of vecs
    # measured on H and its reconstruction scaled by one power of two (exact) so that no square
    # of an entry overflows: an infinite norm would pass any residual
    scale = 2.0 ** -max(0, int(np.frexp(np.abs(h.matrix).max())[1]))
    hs = h.matrix * scale
    resid = float(np.linalg.norm((vecs * (vals * scale)) @ vecs.conj().T - hs))  # a float: / scale never warns
    bound = TOLS.spectral_residual * max(scale, np.linalg.norm(hs))
    if resid > bound:
        raise EigensolverError(f"reconstruction residual {resid / scale:.3e} exceeds {bound / scale:.3e}")
    return SpectralDecomposition(_freeze(vals), _freeze(vecs))  # adopted, not copied


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
    return DenseOperator(_freeze(a.matrix @ b.matrix - b.matrix @ a.matrix))


def haar_random_unitary(dim: int, seed_or_rng: Union[int, np.random.Generator]) -> DenseOperator:
    """Seeded Haar-random unitary: QR of a complex Gaussian matrix with the
    phases of R's diagonal folded back into Q."""
    dim = _as_int(dim, "dim", 1)
    if not _is_pow2(dim):
        raise StatekitError(f"operator dimension {dim} is not a power of 2")
    rng = as_rng(seed_or_rng)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return DenseOperator(_freeze(q * (d / np.abs(d))))

