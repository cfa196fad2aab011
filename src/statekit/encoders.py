"""Encoding maps from classical data into state vectors.

Three static maps are provided: probability loading (amplitudes are square
roots of a distribution, all phases fixed to zero), amplitude encoding of a
data vector (signs preserved), and phase encoding (a distribution dressed
with per-basis-state phases). Inputs of non-power-of-2 length are
zero-padded to the next power of two and the original length is recorded on
the output. A data vector is scaled by a power of two before it is squared,
so any finite row that is not all zeros encodes.

Each map is written once, as a function that returns one checked
``StateStack`` (``_loading_stack``, ``_amplitude_states``, ``_phase_stack``).
The encoder table ``ENCODERS`` runs it on a whole stack of feature rows, and
each single-state function runs it on a one-row stack and returns row 0, so
every state statekit builds is checked once, as a row of one stack. The
table's fourth entry, ``qift``, evolves the vacuum under the Hamiltonian each
row drives (``qift.QiftParams``).
"""
from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, StatekitError
from .qift import QiftParams, _vacuum_stack
from .statevec import (
    Distribution,
    StateStack,
    StateVector,
    _as_array,
    _as_real,
    _distribution_rows,
    _freeze,
    _pad_pow2,
    _raise_first_failure,
    _require_finite,
    _row_norms,
)
from .tolerances import TOLS


def _row_checks(v: np.ndarray, what: str) -> tuple:
    """The empty and non-finite checks of every row of ``v`` (m, k) as a ``what``."""
    empty = np.full(len(v), v.shape[1] == 0)
    return (empty, f"empty {what}"), (~np.isfinite(v).all(axis=1), f"non-finite value in {what}")


def _data_rows(v: np.ndarray) -> np.ndarray:
    """Check every row of ``v`` (m, k) as a data vector; return each scaled by 2^-e, with e the
    exponent of its largest magnitude, so that no square an encoder forms overflows or all
    underflow. The scaling is exact outside the subnormal range, so ratios keep their bits."""
    zero = (v == 0).all(axis=1)
    _raise_first_failure(StatekitError, *_row_checks(v, "data vector"), (zero, "data vector has zero norm"))
    return np.ldexp(v, -np.frexp(np.abs(v).max(axis=1, keepdims=True, initial=0.0))[1])


def _phase_rows(p: np.ndarray) -> np.ndarray:
    """Check every row of ``p`` (m, k) as a phase profile; return the rows
    zero-padded to 2^n."""
    _raise_first_failure(StatekitError, *_row_checks(p, "phase profile"))
    return _pad_pow2(p)


DistributionLike = Union[Distribution, Sequence[float], np.ndarray]
PhaseLike = Union[Sequence[float], np.ndarray]


def _as_distribution(p: DistributionLike) -> Distribution:
    return p if isinstance(p, Distribution) else Distribution(p)


def _padding_of(original: int, dim: int) -> int | None:
    return original if original != dim else None


def _loading_stack(probs: np.ndarray, width: int) -> StateStack:
    """The states sqrt(p_i), one for each checked distribution row of ``probs``
    padded from ``width`` entries."""
    return StateStack(_freeze(np.sqrt(probs).astype(np.complex128)), _padding_of(width, probs.shape[1]))


def _phase_stack(probs: np.ndarray, phases: np.ndarray, width: int) -> StateStack:
    """The states sqrt(p_i) exp(i phi_i) row by row, padded from ``width`` entries;
    ``probs`` may be one row shared by every row of ``phases``."""
    return StateStack(_freeze(np.sqrt(probs) * np.exp(1j * phases)), _padding_of(width, phases.shape[1]))


def probability_loading(p: DistributionLike) -> StateVector:
    """Load a distribution as amplitudes sqrt(p_i) with all phases zero.

    The principal (non-negative) square root is always taken, so the result
    lies in the positive orthant and its Born statistics reproduce ``p``.
    """
    dist = _as_distribution(p)
    return _loading_stack(dist.probabilities[None], dist.original_length)[0]


def amplitude_encoding(x: Sequence[float] | np.ndarray) -> StateVector:
    """Normalize a nonzero real data vector into amplitudes, preserving component signs."""
    return _amplitude_states(_as_array(x, "data vector", np.float64, flat=True)[None], None)[0]


def phase_encoding(p: DistributionLike, phi: PhaseLike) -> StateVector:
    """Amplitudes sqrt(p_i) * exp(i phi_i); Born statistics stay equal to ``p``."""
    dist = _as_distribution(p)
    phases = _phase_rows(_as_array(phi, "phase profile", np.float64, flat=True)[None])
    if phases.shape[1] != dist.dim:
        raise DimensionMismatchError(
            f"phase profile length {phases.shape[1]} != distribution length {dist.dim}"
        )
    return _phase_stack(dist.probabilities[None], phases, dist.original_length)[0]


def _probability_loading_states(rows: np.ndarray, params: QiftParams | None) -> StateStack:
    scaled = _data_rows(rows)
    return _loading_stack(_distribution_rows(scaled**2 / np.sum(scaled**2, axis=1, keepdims=True)), rows.shape[1])


def _amplitude_states(rows: np.ndarray, params: QiftParams | None) -> StateStack:
    """Each data row of ``rows``, scaled, zero-padded to 2^n and divided by its norm."""
    values = _pad_pow2(_data_rows(rows))
    amps = _freeze((values / _row_norms(values)[:, None]).astype(np.complex128))
    return StateStack(amps, _padding_of(rows.shape[1], amps.shape[1]))


def _phase_states(rows: np.ndarray, params: QiftParams | None) -> StateStack:
    phases = _phase_rows(rows)
    n = phases.shape[1]
    # 1/n sums to exactly 1 at a power of 2 n: the uniform row needs no renormalising
    return _phase_stack(np.full((1, n), 1.0 / n), phases, rows.shape[1])


def _qift_states(rows: np.ndarray, params: QiftParams | None) -> StateStack:
    params = params if params is not None else QiftParams()
    # the rows share one coupling, mu and tau, which the spec checks; its own
    # fields are never read, so the rows need only be finite
    spec = params.spec(np.zeros(rows.shape[1]))
    _require_finite("fields, mu or tau", rows)
    return _vacuum_stack(spec, rows)


# encoder id -> states of a stack of feature rows v, one per row, shared by
# the CLI and the experiments:
#   probability_loading  v induces p_i = v_i^2 / |v|^2
#   amplitude            v normalized directly, signs kept
#   phase                uniform distribution over the next power of 2 >= len(v),
#                        dressed with phases phi_i = v_i (zero-padded)
#   qift                 v feeds the local fields of a Hamiltonian spec; the
#                        state is the evolved vacuum (default QiftParams)
# Every row is checked as the single-state encoder checks its input, and the
# first bad row raises that encoder's error.
ENCODERS: dict[str, Callable[[np.ndarray, QiftParams | None], StateStack]] = {
    "probability_loading": _probability_loading_states,
    "amplitude": _amplitude_states,
    "phase": _phase_states,
    "qift": _qift_states,
}
ENCODER_IDS = tuple(ENCODERS)


def in_positive_orthant(psi: StateVector, tol: float = TOLS.positive_orthant) -> bool:
    """True iff every amplitude is real within ``tol`` with real part > -tol."""
    tol = _as_real(tol, "tolerance", positive=True)
    amps = psi.amplitudes
    return bool(np.all(np.abs(amps.imag) < tol) and np.all(amps.real > -tol))
