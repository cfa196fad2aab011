"""Static encoding maps from classical data into state vectors.

Three maps are provided: probability loading (amplitudes are square roots
of a distribution, all phases fixed to zero), amplitude encoding of a data
vector (signs preserved), and phase encoding (a distribution dressed with
per-basis-state phases). Inputs of non-power-of-2 length are zero-padded to
the next power of two and the original length is recorded on the output.

Each map is written once, for a stack of rows (``_loading_stack`` and its
siblings); the single-state functions run it on a one-row stack, and
``experiments.ENCODERS`` on a whole dataset.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, StatekitError
from .statevec import (
    Distribution,
    StateStack,
    StateVector,
    _freeze,
    _pad_pow2,
    _raise_first_failure,
    _row_norms,
)
from .tolerances import TOLS


@dataclass(frozen=True, eq=False)
class DataVector:
    """Real feature vector with nonzero Euclidean norm, zero-padded to 2^n;
    ``original_length`` is the input length before padding."""

    values: np.ndarray
    original_length: int = field(init=False)

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64).ravel()
        values, _ = _data_rows(v[None])
        object.__setattr__(self, "original_length", v.size)
        object.__setattr__(self, "values", _freeze(values[0]))

    @property
    def dim(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class PhaseProfile:
    """Per-basis-state phases in radians, zero-padded to 2^n;
    ``original_length`` is the input length before padding."""

    phases: np.ndarray
    original_length: int = field(init=False)

    def __post_init__(self):
        p = np.ascontiguousarray(self.phases, dtype=np.float64).ravel()
        object.__setattr__(self, "original_length", p.size)
        object.__setattr__(self, "phases", _freeze(_phase_rows(p[None])[0]))

    @property
    def dim(self) -> int:
        return self.phases.size


def _data_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check every row of ``v`` (m, k) as a ``DataVector``; return the rows
    zero-padded to 2^n and their norms. Zero padding leaves a norm's zero test
    unchanged: the norm is zero exactly when every square underflows to 0."""
    values = _pad_pow2(v)
    norms = _row_norms(values)
    _raise_first_failure(
        StatekitError,
        (np.full(len(v), v.shape[1] == 0), "empty data vector"),
        (~np.isfinite(v).all(axis=1), "non-finite value in data vector"),
        (norms == 0.0, "data vector has zero norm"),
    )
    return values, norms


def _phase_rows(p: np.ndarray) -> np.ndarray:
    """Check every row of ``p`` (m, k) as a ``PhaseProfile``; return the rows
    zero-padded to 2^n."""
    _raise_first_failure(
        StatekitError,
        (np.full(len(p), p.shape[1] == 0), "empty phase profile"),
        (~np.isfinite(p).all(axis=1), "non-finite value in phase profile"),
    )
    return _pad_pow2(p)


DistributionLike = Union[Distribution, Sequence[float], np.ndarray]
DataLike = Union[DataVector, Sequence[float], np.ndarray]
PhaseLike = Union[PhaseProfile, Sequence[float], np.ndarray]


def _as_distribution(p: DistributionLike) -> Distribution:
    return p if isinstance(p, Distribution) else Distribution(np.asarray(p))


def _as_data(x: DataLike) -> DataVector:
    return x if isinstance(x, DataVector) else DataVector(np.asarray(x))


def _as_phases(phi: PhaseLike) -> PhaseProfile:
    return phi if isinstance(phi, PhaseProfile) else PhaseProfile(np.asarray(phi))


def _padding_of(original: int, dim: int) -> int | None:
    return original if original != dim else None


def _loading_stack(probs: np.ndarray, padded_from: int | None) -> StateStack:
    """Amplitudes sqrt(p_i) for each checked distribution row of ``probs``."""
    return StateStack(np.sqrt(probs).astype(np.complex128), padded_from)


def _amplitude_stack(values: np.ndarray, norms: np.ndarray, padded_from: int | None) -> StateStack:
    """Each checked data row of ``values`` divided by its norm from ``norms``."""
    return StateStack((values / norms[:, None]).astype(np.complex128), padded_from)


def _phase_stack(probs: np.ndarray, phases: np.ndarray, padded_from: int | None) -> StateStack:
    """Amplitudes sqrt(p_i) exp(i phi_i) row by row; ``probs`` may be one row
    shared by every row of ``phases``."""
    return StateStack(np.sqrt(probs) * np.exp(1j * phases), padded_from)


def probability_loading(p: DistributionLike) -> StateVector:
    """Load a distribution as amplitudes sqrt(p_i) with all phases zero.

    The principal (non-negative) square root is always taken, so the result
    lies in the positive orthant and its Born statistics reproduce ``p``.
    """
    dist = _as_distribution(p)
    return _loading_stack(dist.probabilities[None], _padding_of(dist.original_length, dist.dim))[0]


def amplitude_encoding(x: DataLike) -> StateVector:
    """Normalize a data vector into amplitudes, preserving component signs."""
    data = _as_data(x)
    values = data.values[None]
    padded_from = _padding_of(data.original_length, data.dim)
    return _amplitude_stack(values, _row_norms(values), padded_from)[0]


def phase_encoding(p: DistributionLike, phi: PhaseLike) -> StateVector:
    """Amplitudes sqrt(p_i) * exp(i phi_i); Born statistics stay equal to ``p``."""
    dist = _as_distribution(p)
    prof = _as_phases(phi)
    if prof.dim != dist.dim:
        raise DimensionMismatchError(
            f"phase profile length {prof.dim} != distribution length {dist.dim}"
        )
    padded_from = _padding_of(dist.original_length, dist.dim)
    return _phase_stack(dist.probabilities[None], prof.phases[None], padded_from)[0]


def in_positive_orthant(psi: StateVector, tol: float = TOLS.positive_orthant) -> bool:
    """True iff every amplitude is real within ``tol`` with real part > -tol."""
    if tol <= 0:
        raise StatekitError("tol must be positive")
    amps = psi.amplitudes
    return bool(np.all(np.abs(amps.imag) < tol) and np.all(amps.real > -tol))
