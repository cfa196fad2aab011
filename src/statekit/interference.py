"""Born-probability decomposition into classical mixture and interference.

The probability of measuring outcome ``y`` after a unitary ``U`` acts on an
encoded state splits into a classical term ``sum_x p_x |U_yx|^2`` plus the
cross-term sum over basis pairs. The cross terms are evaluated directly,
O(N^2) per outcome, rather than as "total minus classical" — the redundancy
is what turns the identity into a mechanical check. Also here: the
phase-lock argument analysis and the diagonal-operator measurement residual.
"""
from __future__ import annotations

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
from .statevec import DenseOperator, _freeze, _require_unitary
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


def _amplitudes(u, dist, phi):
    """Input amplitudes c_x = sqrt(p_x) e^{i phi_x} of ``probability_loading``
    (``phi`` None) or ``phase_encoding``, size-checked against ``u``."""
    psi = probability_loading(dist) if phi is None else phase_encoding(dist, phi)
    if u.dim != psi.dim:
        raise DimensionMismatchError(f"operator dim {u.dim} != distribution dim {psi.dim}")
    return psi.amplitudes


def _check_outcome(u: DenseOperator, outcome: int) -> None:
    if not 0 <= outcome < u.dim:
        raise StatekitError(f"outcome {outcome} out of range for dim {u.dim}")


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
    within ``TOLS.decomposition``. Unitarity, the input sizes and the
    product ``U c`` are checked and formed once for all outcomes.
    """
    _require_unitary(u)
    dist = _as_distribution(p)
    c = _amplitudes(u, dist, phi)
    born = np.abs(u.matrix @ c)
    for outcome in outcomes:
        _check_outcome(u, outcome)
        row = u.matrix[outcome, :]
        classical = float(dist.probabilities @ (np.abs(row) ** 2))
        pairs = _freeze(_kernels.pair_terms(c * row))
        interference = _kernels.pair_sum(pairs)
        yield InterferenceReport(
            outcome=outcome,
            classical_term=classical,
            interference_term=interference,
            total=classical + interference,
            born_probability=float(born[outcome] ** 2),
            pairs=pairs,
        )


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
    _check_outcome(u, outcome)
    x, xp = pair
    if not (0 <= x < u.dim and 0 <= xp < u.dim) or x == xp:
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
    args = np.array(args)
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
