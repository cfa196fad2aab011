"""Born-probability decomposition into classical mixture and interference.

The probability of measuring outcome ``y`` after a unitary ``U`` acts on an
encoded state splits into a classical term ``sum_x p_x |U_yx|^2`` plus the
cross-term sum over basis pairs. The cross terms are evaluated directly,
O(N^2) per outcome, rather than as "total minus classical" — the redundancy
is what turns the identity into a mechanical check. Also here: the
phase-lock argument analysis and the diagonal-operator measurement residual.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _kernels
from .encoders import (
    DistributionLike,
    PhaseLike,
    _as_distribution,
    phase_encoding,
    probability_loading,
)
from .errors import DimensionMismatchError, NotDiagonalError, StatekitError
from .statevec import DenseOperator, _freeze, _is_int, _own, _raise_first_failure, _require_unitary
from .tolerances import TOLS


@dataclass(frozen=True, eq=False)
class InterferenceReport:
    """Split of one outcome's Born probability into its two mechanisms.

    ``terms`` holds the outcome's N terms t_x = c_x U_yx. ``pairs`` forms their
    one-sided cross terms t_x conj(t_x') for x < x' on request, in
    ``np.triu_indices`` order, so ``interference_term`` is 2 Re sum(pairs).
    """

    outcome: int
    classical_term: float
    interference_term: float
    total: float
    born_probability: float
    terms: np.ndarray

    def __post_init__(self):
        _own(self, "terms", np.complex128)
        _check_decompositions(self.outcome, self.classical_term, self.interference_term, self.total,
                              self.born_probability)

    @property
    def residual(self) -> float:
        return abs(self.total - self.born_probability)

    @property
    def pairs(self) -> np.ndarray:
        """The pair terms, read-only and formed anew at each read; hold the array to reuse it."""
        return _freeze(_kernels.pair_terms(self.terms))


@dataclass(frozen=True, eq=False)
class SignLockReport:
    """Spread of one pair term's complex argument across many inputs."""

    locked: bool
    pair: tuple[int, int]
    outcome: int
    arguments: np.ndarray
    max_spread: float
    tolerance: float

    def __post_init__(self):
        _own(self, "arguments", np.float64)

    def __bool__(self) -> bool:
        return self.locked


@dataclass(frozen=True, eq=False)
class PairSignReport:
    """Real part of every pre-summed pair term at one outcome, with sign flags."""

    outcome: int
    terms: tuple[tuple[int, int, float], ...]
    any_negative: bool


def _amplitudes(u, dist, phi):
    """Input amplitudes c_x = sqrt(p_x) e^{i phi_x} of ``probability_loading``
    (``phi`` None) or ``phase_encoding``, size-checked against ``u``."""
    psi = probability_loading(dist) if phi is None else phase_encoding(dist, phi)
    if u.dim != psi.dim:
        raise DimensionMismatchError(f"operator dim {u.dim} != distribution dim {psi.dim}")
    return psi.amplitudes


def _outcome_indices(u: DenseOperator, outcomes: Sequence) -> tuple[np.ndarray, StatekitError | None]:
    """The leading ``outcomes`` that are integers in [0, dim), as an index array, and the
    error for the first one that is not (None when there is none)."""
    for k, y in enumerate(outcomes):
        if not _is_int(y, 0, u.dim):
            return np.array(outcomes[:k], dtype=np.intp), StatekitError(f"outcome {y} out of range for dim {u.dim}")
    return np.array(outcomes, dtype=np.intp), None


def _check_decompositions(outcomes, classical, interference, total, born) -> None:
    """``InterferenceReport``'s three checks, in order, on one decomposition or on arrays of them."""
    tol = TOLS.decomposition
    unsummed = abs(total - (classical + interference)) > tol
    improbable = (total < -tol) | (total > 1.0 + tol) | (total != total)  # NaN is no probability
    resid = abs(total - born)
    if np.count_nonzero(unsummed | improbable | (resid > tol)):  # plain Python on one decomposition
        outcomes, total, resid, unsummed, improbable = np.atleast_1d(outcomes, total, resid, unsummed, improbable)
        _raise_first_failure(
            StatekitError,
            (unsummed, "report total is not the sum of its terms"),
            (improbable, lambda i: f"total {total[i].item()!r} is not a probability"),
            (resid > tol, lambda i: f"decomposition violates the Born identity by {resid[i]:.3e} "
                                    f"at outcome {outcomes[i]}"),
        )


def _decomposition_blocks(u: DenseOperator, p: DistributionLike, phi: PhaseLike | None, outcomes: Iterable[int]):
    """The checked decompositions of the next ``_kernels._PACK // N`` of ``outcomes`` at a time,
    in order: arrays (outcomes, classical, interference, total, born, t), t = c * U_y per row,
    each bit for bit the one-outcome formula: classical dots by one batched (1, N) @ (N, 1)
    product, ``pair_sums`` of the rows, and born by ``float_power``, the libm ``pow`` of a scalar
    ``** 2`` that a vector square is not. A bad outcome raises after the outcomes before it."""
    _require_unitary(u)
    dist = _as_distribution(p)
    c = _amplitudes(u, dist, phi)
    born = np.abs(u.matrix @ c)
    outcomes = iter(outcomes)
    while block := list(itertools.islice(outcomes, max(1, _kernels._PACK // u.dim))):
        ys, error = _outcome_indices(u, block)
        if ys.size:
            rows = u.matrix[ys]
            t = c * rows
            classical = np.matmul(dist.probabilities, np.abs(rows)[:, :, None] ** 2)[:, 0]
            interference = _kernels.pair_sums(t)
            decomposition = (ys, classical, interference, classical + interference, np.float_power(born[ys], 2))
            _check_decompositions(*decomposition)
            yield *decomposition, t
        if error:
            raise error


def interference_decompositions(
    u: DenseOperator,
    p: DistributionLike,
    phi: PhaseLike | None,
    outcomes: Iterable[int],
) -> Iterator[InterferenceReport]:
    """Decompose the Born probability of each of ``outcomes`` under ``u``, in order.

    ``phi=None`` is the phase-locked case (all phases zero). The classical
    term is sum_x p_x |U_yx|^2; the interference term is the direct double
    sum over x != x', combined as conjugate pairs so it is real by
    construction. The reported ``born_probability`` is computed through the
    independent matrix-vector route and must agree with the decomposition
    within ``TOLS.decomposition``. Unitarity, the input sizes and ``U c`` are
    checked and formed once. Outcomes are read and checked a block ahead: a
    failed check raises before any report of its block, a bad outcome after
    the reports before it.
    """
    for *columns, t in _decomposition_blocks(u, p, phi, outcomes):
        yield from map(InterferenceReport, *(column.tolist() for column in columns), t)


def interference_decomposition(
    u: DenseOperator,
    p: DistributionLike,
    phi: PhaseLike | None,
    outcome: int,
) -> InterferenceReport:
    """Decompose the Born probability of one ``outcome``; see ``interference_decompositions``."""
    return next(interference_decompositions(u, p, phi, (outcome,)))


def sign_lock_check(
    u: DenseOperator,
    outcome: int,
    pair: tuple[int, int],
    distributions: Sequence[DistributionLike],
    phases: Sequence[PhaseLike] | None = None,
) -> SignLockReport:
    """Does the argument of one pair term stay fixed across many inputs?

    With phases absent (the phase-locked case) the data enters the pair term
    only through the positive magnitude sqrt(p_x p_x'), so the argument is
    pinned by the matrix elements alone and the check returns locked=True.
    Supplying per-input phase profiles lets the argument move and is the
    designed counterexample. The pair counts as locked when the arguments
    spread by at most ``TOLS.sign_lock_rad``.
    """
    _require_unitary(u)
    if error := _outcome_indices(u, (outcome,))[1]:
        raise error
    x, xp = pair if isinstance(pair, (Sequence, np.ndarray)) and len(pair) == 2 else (None, None)
    if _outcome_indices(u, (x, xp))[1] or x == xp:  # basis indices follow the outcome rule
        raise StatekitError(f"pair must be two distinct basis indices in [0, {u.dim}), got {pair}")
    if not distributions:
        raise StatekitError("at least one distribution is required")
    if phases is not None and len(phases) != len(distributions):
        raise DimensionMismatchError("phases list must match distributions list in length")
    args = []
    for k, p in enumerate(distributions):
        dist = _as_distribution(p)
        c = _amplitudes(u, dist, phases[k] if phases is not None else None)
        if dist.probabilities[x] * dist.probabilities[xp] == 0.0:
            raise StatekitError(
                f"distribution {k} has zero probability on pair ({x}, {xp}); argument undefined"
            )
        t = c * u.matrix[outcome, :]
        value = t[x] * np.conj(t[xp])
        if value == 0:
            raise StatekitError(
                f"pair term ({x}, {xp}) vanishes at outcome {outcome}; argument undefined"
            )
        args.append(np.angle(value))
    args = _freeze(np.array(args))
    # spread measured after unwrapping relative to the first argument
    rel = np.angle(np.exp(1j * (args - args[0])))
    spread = float(rel.max() - rel.min())
    return SignLockReport(
        locked=spread <= TOLS.sign_lock_rad,
        pair=(x, xp),
        outcome=outcome,
        arguments=args,
        max_spread=spread,
        tolerance=TOLS.sign_lock_rad,
    )


def diagonal_trap_residual(p: DistributionLike, d: DenseOperator) -> float:
    """Max deviation of measurement statistics from ``p`` after a diagonal unitary.

    For a phase-locked state the diagonal phases are invisible to the
    computational-basis measurement, so the residual is zero up to
    floating-point noise.
    """
    off = d.matrix - np.diag(np.diagonal(d.matrix))
    if np.abs(off).max() > TOLS.diagonal:
        raise NotDiagonalError("operator is not diagonal within tolerance")
    _require_unitary(d)
    dist = _as_distribution(p)
    out = d.matrix @ _amplitudes(d, dist, None)
    return float(np.abs(np.abs(out) ** 2 - dist.probabilities).max())


def pairwise_term_signs(u: DenseOperator, p: DistributionLike, outcome: int) -> PairSignReport:
    """Real parts of all pre-summed pair terms for a phase-locked input.

    Negative entries witness destructive cross terms; since the data weights
    sqrt(p_x p_x') are positive, any negativity originates in the matrix
    elements alone (rescaling ``p`` never flips a sign — see tests).
    """
    values = 2.0 * interference_decomposition(u, p, None, outcome).pairs.real
    xs, xps = _kernels.pair_indices(u.dim)
    return PairSignReport(
        outcome=outcome,
        terms=tuple(zip(xs.tolist(), xps.tolist(), values.tolist())),
        any_negative=bool((values < 0.0).any()),
    )
