"""Born-probability decomposition into classical mixture and interference.

The probability of measuring outcome ``y`` after a unitary ``U`` acts on an
encoded state splits into a classical term ``sum_x p_x |U_yx|^2`` plus the
cross-term sum over basis pairs. The cross terms are evaluated directly,
O(N^2) per outcome, rather than as "total minus classical" — the redundancy
is what turns the identity into a mechanical check. Also here: the
phase-lock argument analysis, the diagonal-operator measurement residual,
and plain commutators.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .encoders import DistributionLike, PhaseLike, _as_distribution, _as_phases
from .errors import DimensionMismatchError, NotDiagonalError, NotUnitaryError, StatekitError
from .statevec import DenseOperator, _freeze, is_unitary
from .tolerances import TOLS


@dataclass(frozen=True, eq=False)
class InterferenceReport:
    """Split of one outcome's Born probability into its two mechanisms.

    ``pairs`` holds the one-sided cross terms t_x conj(t_x') for x < x', in
    ``np.triu_indices`` order, so ``interference_term`` is 2 Re sum(pairs).
    """

    outcome: int
    classical_term: float
    interference_term: float
    total: float
    born_probability: float
    pairs: np.ndarray

    def __post_init__(self):
        if abs(self.total - (self.classical_term + self.interference_term)) > TOLS.decomposition:
            raise StatekitError("report total is not the sum of its terms")
        if not -TOLS.decomposition <= self.total <= 1.0 + TOLS.decomposition:
            raise StatekitError(f"total {self.total!r} is not a probability")
        resid = abs(self.total - self.born_probability)
        if resid > TOLS.decomposition:
            raise StatekitError(
                f"decomposition violates the Born identity by {resid:.3e} at outcome {self.outcome}"
            )

    @property
    def residual(self) -> float:
        return abs(self.total - self.born_probability)


@dataclass(frozen=True, eq=False)
class SignLockReport:
    """Spread of one pair term's complex argument across many inputs."""

    locked: bool
    pair: tuple[int, int]
    outcome: int
    arguments: np.ndarray
    max_spread: float
    tolerance: float

    def __bool__(self) -> bool:
        return self.locked


@dataclass(frozen=True, eq=False)
class PairSignReport:
    """Real part of every pre-summed pair term at one outcome, with sign flags."""

    outcome: int
    terms: tuple[tuple[int, int, float], ...]
    any_negative: bool


def _check_unitary(u: DenseOperator) -> None:
    if not is_unitary(u):
        raise NotUnitaryError("operator is not unitary within tolerance")


def _weights(u, dist, phases, outcome):
    """Per-basis weights t_x = sqrt(p_x) e^{i phi_x} U_yx for one outcome row."""
    if u.dim != dist.dim:
        raise DimensionMismatchError(f"operator dim {u.dim} != distribution dim {dist.dim}")
    if not 0 <= outcome < u.dim:
        raise StatekitError(f"outcome {outcome} out of range for dim {u.dim}")
    c = np.sqrt(dist.probabilities).astype(np.complex128)
    if phases is not None:
        if phases.dim != dist.dim:
            raise DimensionMismatchError(
                f"phase profile length {phases.dim} != distribution length {dist.dim}"
            )
        c = c * np.exp(1j * phases.phases)
    return c, c * u.matrix[outcome, :]


def interference_decomposition(
    u: DenseOperator,
    p: DistributionLike,
    phi: PhaseLike | None,
    outcome: int,
) -> InterferenceReport:
    """Decompose the Born probability of ``outcome`` under ``u``.

    ``phi=None`` is the phase-locked case (all phases zero). The classical
    term is sum_x p_x |U_yx|^2; the interference term is the direct double
    sum over x != x', combined as conjugate pairs so it is real by
    construction. The reported ``born_probability`` is computed through the
    independent matrix-vector route and must agree with the decomposition
    within ``TOLS.decomposition``.
    """
    _check_unitary(u)
    dist = _as_distribution(p)
    prof = _as_phases(phi) if phi is not None else None
    c, t = _weights(u, dist, prof, outcome)
    classical = float(dist.probabilities @ (np.abs(u.matrix[outcome, :]) ** 2))
    pairs = _freeze(_kernels.pair_terms(t))
    interference = _kernels.pair_sum(pairs)
    born = float(np.abs(u.matrix @ c)[outcome] ** 2)
    return InterferenceReport(
        outcome=outcome,
        classical_term=classical,
        interference_term=interference,
        total=classical + interference,
        born_probability=born,
        pairs=pairs,
    )


def sign_lock_check(
    u: DenseOperator,
    outcome: int,
    pair: tuple[int, int],
    distributions: Sequence[DistributionLike],
    phases: Sequence[PhaseLike] | None = None,
    tol: float = TOLS.sign_lock_rad,
) -> SignLockReport:
    """Does the argument of one pair term stay fixed across many inputs?

    With phases absent (the phase-locked case) the data enters the pair term
    only through the positive magnitude sqrt(p_x p_x'), so the argument is
    pinned by the matrix elements alone and the check returns locked=True.
    Supplying per-input phase profiles lets the argument move and is the
    designed counterexample.
    """
    _check_unitary(u)
    x, xp = pair
    if x == xp:
        raise StatekitError("pair must consist of two distinct basis indices")
    if not distributions:
        raise StatekitError("at least one distribution is required")
    if phases is not None and len(phases) != len(distributions):
        raise DimensionMismatchError("phases list must match distributions list in length")
    args = []
    for k, p in enumerate(distributions):
        dist = _as_distribution(p)
        prof = _as_phases(phases[k]) if phases is not None else None
        probs = dist.probabilities
        if probs[x] * probs[xp] == 0.0:
            raise StatekitError(
                f"distribution {k} has zero probability on pair ({x}, {xp}); argument undefined"
            )
        _, t = _weights(u, dist, prof, outcome)
        value = t[x] * np.conj(t[xp])
        if value == 0:
            raise StatekitError(
                f"pair term ({x}, {xp}) vanishes at outcome {outcome}; argument undefined"
            )
        args.append(np.angle(value))
    args = np.array(args)
    # spread measured after unwrapping relative to the first argument
    rel = np.angle(np.exp(1j * (args - args[0])))
    spread = float(rel.max() - rel.min())
    return SignLockReport(
        locked=spread <= tol,
        pair=(x, xp),
        outcome=outcome,
        arguments=args,
        max_spread=spread,
        tolerance=tol,
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
    _check_unitary(d)
    dist = _as_distribution(p)
    if d.dim != dist.dim:
        raise DimensionMismatchError(f"operator dim {d.dim} != distribution dim {dist.dim}")
    out = d.matrix @ np.sqrt(dist.probabilities).astype(np.complex128)
    return float(np.abs(np.abs(out) ** 2 - dist.probabilities).max())


def commutator(a: DenseOperator, b: DenseOperator) -> DenseOperator:
    """AB - BA."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"operator dims differ: {a.dim} vs {b.dim}")
    return DenseOperator(a.matrix @ b.matrix - b.matrix @ a.matrix)


def pairwise_term_signs(u: DenseOperator, p: DistributionLike, outcome: int) -> PairSignReport:
    """Real parts of all pre-summed pair terms for a phase-locked input.

    Negative entries witness destructive cross terms; since the data weights
    sqrt(p_x p_x') are positive, any negativity originates in the matrix
    elements alone (rescaling ``p`` never flips a sign — see tests).
    """
    _check_unitary(u)
    dist = _as_distribution(p)
    _, t = _weights(u, dist, None, outcome)
    values = 2.0 * _kernels.pair_terms(t).real
    xs, xps = np.triu_indices(u.dim, 1)
    return PairSignReport(
        outcome=outcome,
        terms=tuple(zip(xs.tolist(), xps.tolist(), values.tolist())),
        any_negative=bool((values < 0.0).any()),
    )
