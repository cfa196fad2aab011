"""Static encoding maps from classical data into state vectors.

Three maps are provided: probability loading (amplitudes are square roots
of a distribution, all phases fixed to zero), amplitude encoding of a data
vector (signs preserved), and phase encoding (a distribution dressed with
per-basis-state phases). Inputs of non-power-of-2 length are zero-padded to
the next power of two and the original length is recorded on the output.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, StatekitError
from .statevec import Distribution, StateVector, _freeze, _pad_pow2, _require_finite
from .tolerances import TOLS


@dataclass(frozen=True, eq=False)
class DataVector:
    """Real feature vector with nonzero Euclidean norm, zero-padded to 2^n;
    ``original_length`` is the input length before padding."""

    values: np.ndarray
    original_length: int = field(init=False)

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64).ravel()
        if v.size == 0:
            raise StatekitError("empty data vector")
        _require_finite("data vector", v)
        if np.linalg.norm(v) == 0.0:
            raise StatekitError("data vector has zero norm")
        object.__setattr__(self, "original_length", v.size)
        object.__setattr__(self, "values", _freeze(_pad_pow2(v)))

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
        if p.size == 0:
            raise StatekitError("empty phase profile")
        _require_finite("phase profile", p)
        object.__setattr__(self, "original_length", p.size)
        object.__setattr__(self, "phases", _freeze(_pad_pow2(p)))

    @property
    def dim(self) -> int:
        return self.phases.size


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


def probability_loading(p: DistributionLike) -> StateVector:
    """Load a distribution as amplitudes sqrt(p_i) with all phases zero.

    The principal (non-negative) square root is always taken, so the result
    lies in the positive orthant and its Born statistics reproduce ``p``.
    """
    dist = _as_distribution(p)
    amps = np.sqrt(dist.probabilities).astype(np.complex128)
    return StateVector(amps, padded_from=_padding_of(dist.original_length, dist.dim))


def amplitude_encoding(x: DataLike) -> StateVector:
    """Normalize a data vector into amplitudes, preserving component signs."""
    data = _as_data(x)
    amps = (data.values / np.linalg.norm(data.values)).astype(np.complex128)
    return StateVector(amps, padded_from=_padding_of(data.original_length, data.dim))


def phase_encoding(p: DistributionLike, phi: PhaseLike) -> StateVector:
    """Amplitudes sqrt(p_i) * exp(i phi_i); Born statistics stay equal to ``p``."""
    dist = _as_distribution(p)
    prof = _as_phases(phi)
    if prof.dim != dist.dim:
        raise DimensionMismatchError(
            f"phase profile length {prof.dim} != distribution length {dist.dim}"
        )
    amps = np.sqrt(dist.probabilities) * np.exp(1j * prof.phases)
    return StateVector(amps, padded_from=_padding_of(dist.original_length, dist.dim))


def in_positive_orthant(psi: StateVector, tol: float = TOLS.positive_orthant) -> bool:
    """True iff every amplitude is real within ``tol`` with real part > -tol."""
    if tol <= 0:
        raise StatekitError("tol must be positive")
    amps = psi.amplitudes
    return bool(np.all(np.abs(amps.imag) < tol) and np.all(amps.real > -tol))
