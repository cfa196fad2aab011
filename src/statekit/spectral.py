"""Mass-gap extraction, Zeeman stability sweeps, and gap-coincidence verdicts.

The mass gap is the difference between the two lowest eigenvalues of the
effective Hamiltonian; gaps below the degeneracy tolerance, or below the
eigensolver's rounding floor where that is larger, are reported as zero and
flagged. Two data points count as resonant when their gaps
coincide within a tolerance, replacing geometric state overlap as the
similarity notion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StatekitError
from .qift import HamiltonianSpec, effective_hamiltonian
from .statevec import (
    HermitianOperator,
    _as_array,
    _as_real,
    _freeze,
    _own,
    _require_finite,
    _scaled,
    hermitian_spectral_decomposition,
)
from .tolerances import TOLS


@dataclass(frozen=True, eq=False)
class SpectralProfile:
    """Full ascending spectrum plus the mass gap, reported as 0 (and flagged
    degenerate) below ``TOLS.degeneracy`` or the rounding floor ``_gap_floor``."""

    eigenvalues: np.ndarray
    mass_gap: float
    degenerate: bool

    def __post_init__(self):
        vals = _own(self, "eigenvalues", np.float64)
        _require_finite("spectral profile", vals, self.mass_gap)
        if np.any(vals[1:] < vals[:-1]):  # no difference formed: one could overflow
            raise StatekitError("eigenvalues must be ascending")


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


def _gap_floor(vals: np.ndarray) -> float:
    """4 eps sqrt(N) ||H||_F, below which a gap of ``vals``, the ascending eigenvalues eigh computed
    for an N x N Hermitian H, is rounding noise: they are exact for some H + E, so by Weyl a gap is
    within 2 ||E||_F of H's own, with ||E||_F taken as 2 sqrt(N) eps ||H||_F (summed rounding errors
    grow as sqrt(N) eps: Higham & Mary, SIAM J. Sci. Comput. 41(5), 2019). README derives and checks
    it. ||H||_F = ||vals||_2, over the largest |eigenvalue| so that no square overflows."""
    top = max(-float(vals[0]), float(vals[-1]))
    if top == 0.0:
        return 0.0
    return 4.0 * np.finfo(np.float64).eps * math.sqrt(vals.size) * top * float(np.linalg.norm(vals / top))


def _profile_of(h: HermitianOperator) -> SpectralProfile:
    vals = hermitian_spectral_decomposition(h).eigenvalues
    raw_gap = _as_real(float(vals[1]) - float(vals[0]), "mass gap")  # Python floats: an overflow gives inf, no warning
    degenerate = raw_gap < max(TOLS.degeneracy, _gap_floor(vals))
    return SpectralProfile(
        eigenvalues=vals,
        mass_gap=0.0 if degenerate else raw_gap,
        degenerate=degenerate,
    )


def spectral_profile(spec: HamiltonianSpec) -> SpectralProfile:
    """Spectrum and mass gap of the effective Hamiltonian."""
    return _profile_of(effective_hamiltonian(spec))


def _profile_and_zeeman(spec: HamiltonianSpec, epsilons) -> tuple[SpectralProfile, np.ndarray, float]:
    """``spectral_profile`` of ``spec``, the mass gaps of H_eff + epsilon * sum_j Z_j over a grid holding 0,
    the reference, and the stability score, the largest deviation from the reference gap. epsilon = 0 reuses
    the profile's decomposition; any other shifts a copy of H's diagonal by epsilon * (n - 2 popcount(i))."""
    eps = _as_array(epsilons, "epsilon grid", np.float64, flat=True)
    _require_finite("epsilon grid", eps)  # before an infinite shift meets a zero of n - 2 popcount(i) and warns
    if not np.any(eps == 0.0):  # an empty grid too
        raise StatekitError("epsilon grid must contain 0 as the reference point")
    h0 = effective_hamiltonian(spec)
    profile = _profile_of(h0)
    z_sum = spec.n_qubits - 2 * ((np.arange(spec.dim)[:, None] >> np.arange(spec.n_qubits)) & 1).sum(axis=1)
    gaps = np.full(eps.size, profile.mass_gap)
    for k in np.flatnonzero(eps):
        h = h0.matrix.copy()
        with np.errstate(over="ignore"):  # a diagonal pushed past the float range is refused as H's non-finite value
            h[np.diag_indices(spec.dim)] += _scaled(float(eps[k]), z_sum, "epsilon times sum_j Z_j")
        gaps[k] = _profile_of(HermitianOperator(_freeze(h))).mass_gap
    return profile, _freeze(gaps), float(np.abs(gaps - profile.mass_gap).max())


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
