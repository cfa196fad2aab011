"""Encoding maps from classical data into state vectors.

Three static maps are provided: probability loading (amplitudes are square
roots of a distribution, all phases fixed to zero), amplitude encoding of a
data vector (signs preserved), and phase encoding (a distribution dressed
with per-basis-state phases). Inputs of non-power-of-2 length are
zero-padded to the next power of two and the original length is recorded on
the output.

Each map is written once, as the amplitude array of a stack of checked rows
(``_loading_stack`` and its siblings). The encoder table ``ENCODERS`` wraps
the array of a whole stack of feature rows in one ``StateStack``, and each
single-state function wraps that of a one-row stack in one ``StateVector``,
so every state is checked exactly once. The table's fourth entry, ``qift``,
evolves the vacuum under the Hamiltonian each row drives
(``qift.QiftParams``).
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


def _data_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check every row of ``v`` (m, k) as a data vector; return the rows
    zero-padded to 2^n and their norms. Zero padding leaves a norm's zero test
    unchanged: the norm is zero exactly when every square underflows to 0. A
    norm is infinite exactly when the sum of squares leaves the float range, so
    a row whose squares an encoder forms passes only if they are finite."""
    values = _pad_pow2(v)
    with np.errstate(over="ignore"):  # a sum of squares beyond the float range is refused below
        norms = _row_norms(values)
    _raise_first_failure(
        StatekitError,
        (np.full(len(v), v.shape[1] == 0), "empty data vector"),
        (~np.isfinite(v).all(axis=1), "non-finite value in data vector"),
        (np.isinf(norms), "non-finite value in the squares of the data vector"),
        (norms == 0.0, "data vector has zero norm"),
    )
    return values, norms


def _phase_rows(p: np.ndarray) -> np.ndarray:
    """Check every row of ``p`` (m, k) as a phase profile; return the rows
    zero-padded to 2^n."""
    _raise_first_failure(
        StatekitError,
        (np.full(len(p), p.shape[1] == 0), "empty phase profile"),
        (~np.isfinite(p).all(axis=1), "non-finite value in phase profile"),
    )
    return _pad_pow2(p)


DistributionLike = Union[Distribution, Sequence[float], np.ndarray]
PhaseLike = Union[Sequence[float], np.ndarray]


def _as_distribution(p: DistributionLike) -> Distribution:
    return p if isinstance(p, Distribution) else Distribution(p)


def _padding_of(original: int, dim: int) -> int | None:
    return original if original != dim else None


def _loading_stack(probs: np.ndarray) -> np.ndarray:
    """Amplitudes sqrt(p_i) for each checked distribution row of ``probs``."""
    return _freeze(np.sqrt(probs).astype(np.complex128))


def _amplitude_stack(values: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Each checked data row of ``values`` divided by its norm from ``norms``."""
    return _freeze((values / norms[:, None]).astype(np.complex128))


def _phase_stack(probs: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Amplitudes sqrt(p_i) exp(i phi_i) row by row; ``probs`` may be one row
    shared by every row of ``phases``."""
    return _freeze(np.sqrt(probs) * np.exp(1j * phases))


def probability_loading(p: DistributionLike) -> StateVector:
    """Load a distribution as amplitudes sqrt(p_i) with all phases zero.

    The principal (non-negative) square root is always taken, so the result
    lies in the positive orthant and its Born statistics reproduce ``p``.
    """
    dist = _as_distribution(p)
    amps = _loading_stack(dist.probabilities[None])
    return StateVector(amps, _padding_of(dist.original_length, dist.dim))


def amplitude_encoding(x: Sequence[float] | np.ndarray) -> StateVector:
    """Normalize a nonzero real data vector into amplitudes, preserving component signs."""
    row = _as_array(x, "data vector", np.float64, flat=True)[None]
    values, norms = _data_rows(row)
    return StateVector(_amplitude_stack(values, norms), _padding_of(row.shape[1], values.shape[1]))


def phase_encoding(p: DistributionLike, phi: PhaseLike) -> StateVector:
    """Amplitudes sqrt(p_i) * exp(i phi_i); Born statistics stay equal to ``p``."""
    dist = _as_distribution(p)
    phases = _phase_rows(_as_array(phi, "phase profile", np.float64, flat=True)[None])
    if phases.shape[1] != dist.dim:
        raise DimensionMismatchError(
            f"phase profile length {phases.shape[1]} != distribution length {dist.dim}"
        )
    amps = _phase_stack(dist.probabilities[None], phases)
    return StateVector(amps, _padding_of(dist.original_length, dist.dim))


def _probability_loading_states(rows: np.ndarray, params: QiftParams | None) -> StateStack:
    _data_rows(rows)  # each row is a data vector whose squares are finite and not all 0
    probs = _distribution_rows(rows**2 / np.sum(rows**2, axis=1, keepdims=True))
    return StateStack(_loading_stack(probs), _padding_of(rows.shape[1], probs.shape[1]))


def _amplitude_states(rows: np.ndarray, params: QiftParams | None) -> StateStack:
    values, norms = _data_rows(rows)
    return StateStack(_amplitude_stack(values, norms), _padding_of(rows.shape[1], values.shape[1]))


def _phase_states(rows: np.ndarray, params: QiftParams | None) -> StateStack:
    phases = _phase_rows(rows)
    n = phases.shape[1]
    # 1/n sums to exactly 1 at a power of 2 n: the uniform row needs no renormalising
    return StateStack(_phase_stack(np.full((1, n), 1.0 / n), phases), _padding_of(rows.shape[1], n))


def _qift_states(rows: np.ndarray, params: QiftParams | None) -> StateStack:
    params = params if params is not None else QiftParams()
    # the rows share one coupling, mu and tau, which the spec checks; its own
    # fields are never read, so the rows need only be finite
    spec = params.spec(np.zeros(rows.shape[1]))
    _require_finite("fields, mu or tau", rows)
    return StateStack(_vacuum_stack(spec, rows))


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
