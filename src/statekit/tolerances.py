"""Central numerical tolerance configuration.

Every module reads its tolerances from the single ``TOLS`` record below
instead of scattering magic numbers. Only two are also set per call, both
by the CLI's ``--tol``: the orthant tolerance of ``in_positive_orthant`` and
the resonance tolerance of ``resonance_similarity``. The resonance
experiment reads the latter from the config's ``tolerance`` key, which
``statekit run --tol`` writes. Every other check reads ``TOLS`` directly.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    state_norm: float = 1e-10          # unit-norm check on state vectors
    hermitian: float = 1e-12           # max |H - H^dag| entrywise
    unitary: float = 1e-10             # max |U^dag U - I| entrywise
    spectral_residual: float = 1e-9    # eigendecomposition reconstruction / orthonormality
    distribution_sum: float = 1e-10    # |sum(p) - 1| absorbed by silent renormalization
    decomposition: float = 1e-10       # |classical + interference - born|
    sign_lock_rad: float = 1e-9        # max argument spread for a phase-locked pair term
    diagonal: float = 1e-10            # off-diagonal leakage allowed in a "diagonal" operator
    curvature_floor: float = 1e-12     # Trotter errors below this count as commuting
    degeneracy: float = 1e-10          # gap below this is reported as a degenerate ground space
    resonance: float = 1e-3            # default spectral-gap coincidence tolerance
    positive_orthant: float = 1e-12    # default tolerance for orthant membership
    gram_symmetry: float = 1e-12       # Gram matrix symmetry deviation
    gram_diagonal: float = 1e-10       # Gram diagonal deviation from 1
    gram_range: float = 1e-12          # Gram entries may exceed 1 by at most this


TOLS = Tolerances()
