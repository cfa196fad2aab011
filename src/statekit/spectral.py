"""Mass-gap extraction, Zeeman stability sweeps, and gap-coincidence verdicts.

The mass gap is the difference between the two lowest eigenvalues of the
effective Hamiltonian; gaps below the degeneracy tolerance are reported as
zero and flagged. Two data points count as resonant when their gaps
coincide within a tolerance, replacing geometric state overlap as the
similarity notion.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import StatekitError
from .qift import HamiltonianSpec, effective_hamiltonian
from .statevec import (
    HermitianOperator,
    _as_array,
    _as_int,
    _as_real,
    _freeze,
    _own,
    _require_finite,
    hermitian_spectral_decomposition,
)
from .tolerances import TOLS


@dataclass(frozen=True, eq=False)
class SpectralProfile:
    """Full ascending spectrum plus the mass gap, reported as 0 (and flagged
    degenerate) below ``TOLS.degeneracy``."""

    eigenvalues: np.ndarray
    mass_gap: float
    degenerate: bool

    def __post_init__(self):
        vals = _own(self, "eigenvalues", np.float64)
        _require_finite("spectral profile", vals, self.mass_gap)
        if np.any(np.diff(vals) < 0):
            raise StatekitError("eigenvalues must be ascending")


@dataclass(frozen=True, eq=False)
class ZeemanTrace:
    """Gap response to a uniform longitudinal field of strength epsilon."""

    epsilons: np.ndarray
    gaps: np.ndarray
    stability_score: float

    def __post_init__(self):
        eps = _own(self, "epsilons", np.float64)
        gaps = _own(self, "gaps", np.float64)
        _require_finite("Zeeman trace", eps, gaps, self.stability_score)
        if eps.size != gaps.size:
            raise StatekitError("epsilon and gap traces differ in length")


@dataclass(frozen=True)
class ResonanceVerdict:
    """Gap-coincidence comparison of two specs.

    ``spectrum_distance`` (max eigenvalue deviation over the whole spectrum,
    NaN for specs of different sizes) is auxiliary data only; the verdict is
    decided by the lowest gaps.
    """

    gap_a: float
    gap_b: float
    delta: float
    resonant: bool
    tolerance: float
    spectrum_distance: float


def _profile_of(h: HermitianOperator) -> SpectralProfile:
    vals = hermitian_spectral_decomposition(h).eigenvalues
    raw_gap = float(vals[1] - vals[0])
    degenerate = raw_gap < TOLS.degeneracy
    return SpectralProfile(
        eigenvalues=vals,
        mass_gap=0.0 if degenerate else raw_gap,
        degenerate=degenerate,
    )


def spectral_profile(spec: HamiltonianSpec) -> SpectralProfile:
    """Spectrum and mass gap of the effective Hamiltonian."""
    return _profile_of(effective_hamiltonian(spec))


def zeeman_operator(n_qubits: int) -> HermitianOperator:
    """Uniform longitudinal field sum_j Z_j, built as its diagonal n - 2 popcount(i)."""
    idx = np.arange(1 << _as_int(n_qubits, "n_qubits", 1))
    popcount = ((idx[:, None] >> np.arange(n_qubits)) & 1).sum(axis=1)
    return HermitianOperator(_freeze(np.diag((n_qubits - 2 * popcount).astype(np.complex128))))


def zeeman_sweep(spec: HamiltonianSpec, epsilons: Sequence[float] | np.ndarray) -> ZeemanTrace:
    """Mass gap of H_eff + epsilon * sum_j Z_j across a perturbation grid, which must
    contain 0 (the unperturbed reference); the stability score is the largest
    absolute gap deviation from that reference."""
    return _profile_and_zeeman(spec, epsilons)[1]


def _profile_and_zeeman(spec: HamiltonianSpec, epsilons) -> tuple[SpectralProfile, ZeemanTrace]:
    """``spectral_profile`` and ``zeeman_sweep`` of ``spec``; epsilon = 0 reuses the profile's decomposition."""
    eps = _as_array(epsilons, "epsilon grid", np.float64, flat=True)
    if eps.size == 0:
        raise StatekitError("epsilon grid is empty")
    if not np.any(eps == 0.0):
        raise StatekitError("epsilon grid must contain 0 as the reference point")
    h0 = effective_hamiltonian(spec)
    profile = _profile_of(h0)
    zee = zeeman_operator(spec.n_qubits).matrix
    profiles = (profile if e == 0 else _profile_of(HermitianOperator(_freeze(h0.matrix + e * zee))) for e in eps)
    gaps = _freeze(np.array([p.mass_gap for p in profiles]))
    return profile, ZeemanTrace(eps, gaps, stability_score=float(np.abs(gaps - profile.mass_gap).max()))


def resonance_similarity(
    spec_a: HamiltonianSpec,
    spec_b: HamiltonianSpec,
    tolerance: float = TOLS.resonance,
) -> ResonanceVerdict:
    """Declare two specs resonant when their mass gaps coincide within tolerance."""
    tolerance = _as_real(tolerance, "tolerance", positive=True)
    a, b = spectral_profile(spec_a), spectral_profile(spec_b)
    delta = abs(a.mass_gap - b.mass_gap)
    same_size = a.eigenvalues.size == b.eigenvalues.size
    dist = float(np.abs(a.eigenvalues - b.eigenvalues).max()) if same_size else float("nan")
    return ResonanceVerdict(
        gap_a=a.mass_gap,
        gap_b=b.mass_gap,
        delta=delta,
        resonant=delta <= tolerance,
        tolerance=tolerance,
        spectrum_distance=dist,
    )
