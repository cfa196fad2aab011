"""Dynamical Hamiltonian encoding: data as generator of unitary evolution.

A feature vector drives the local-field term ``sum_j x_j sigma_y_j`` and a
coupling matrix drives the diagonal pairwise term
``mu * sum_{j<k} J_jk sigma_z_j sigma_z_k``. The two do not commute, so the
single symmetric product step

    exp(-i tau/2 H_data) exp(-i tau H_topo) exp(-i tau/2 H_data)

differs from the exact evolution by a third-order residual; the scan below
measures that scaling exponent directly.

Two implementations of the step coexist on purpose: a dense path through
exact eigendecomposition exponentials, and a factorized fast path (per-qubit
y-rotations and an elementwise diagonal phase). Their agreement is one of
the package's strongest self-checks.

``QiftParams`` holds the coupling strength, step and topology that the
experiments, the CLI and the ``qift`` encoder share; ``QiftParams.spec``
turns one field vector into the ``HamiltonianSpec`` they all build. Both
check themselves on construction by the same code, ``QiftParams`` with
``ConfigError``; ``COUPLINGS`` is the one table of topology presets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from . import _kernels
from .errors import ConfigError, StatekitError
from .statevec import (
    DenseOperator,
    HermitianOperator,
    StateVector,
    _as_array,
    _as_int,
    _as_real,
    _freeze,
    _own,
    _require_finite,
    evolve,
    hermitian_spectral_decomposition,
    operator_distance,
    pauli_string,
)
from .tolerances import TOLS

DEFAULT_TAU_GRID = tuple(np.geomspace(1e-1, 1e-3, 13))


@dataclass(frozen=True, eq=False)
class HamiltonianSpec:
    """Inputs that fully determine one data-dependent Hamiltonian.

    fields   : per-qubit local field strengths (one per feature); values in
               [-pi, pi] are recommended so single-step rotations do not alias.
    coupling : symmetric n x n matrix with zero diagonal.
    mu       : global coupling strength.
    tau      : Trotter step, > 0.
    """

    fields: np.ndarray
    coupling: np.ndarray
    mu: float = 1.0
    tau: float = 0.1

    def __post_init__(self):
        x = _own(self, "fields", np.float64, flat=True)
        j = _own(self, "coupling", np.float64)
        if x.size < 1:
            raise StatekitError("at least one field strength is required")
        _check_step(self, x)
        _check_coupling(j, x.size)

    @property
    def n_qubits(self) -> int:
        return self.fields.size

    @property
    def dim(self) -> int:
        return 1 << self.fields.size


@dataclass(frozen=True, eq=False)
class QiftParams:
    """Hamiltonian-encoder hyperparameters: coupling strength, step, topology.

    Checked on construction like ``HamiltonianSpec``, raising ``ConfigError``;
    an explicit topology is taken in as ``HamiltonianSpec`` takes its coupling.
    """

    mu: float = 1.0
    tau: float = 0.1
    topology: Union[str, np.ndarray] = "ring"

    def __post_init__(self):
        _check_step(self, error=ConfigError)
        if isinstance(self.topology, str):
            if self.topology not in COUPLINGS:
                raise ConfigError(f"unknown topology preset {self.topology!r}; expected one of {tuple(COUPLINGS)}")
            return
        _check_coupling(_own(self, "topology", np.float64, ConfigError), error=ConfigError)

    def coupling_for(self, n: int) -> np.ndarray:
        if isinstance(self.topology, str):
            return COUPLINGS[self.topology](n)
        if self.topology.shape != (n, n):
            raise ConfigError(f"explicit coupling matrix has shape {self.topology.shape}, expected ({n}, {n})")
        return self.topology

    def spec(self, fields: Sequence[float] | np.ndarray) -> HamiltonianSpec:
        """The Hamiltonian of ``fields`` under these parameters, one qubit per field."""
        fields = _as_array(fields, "fields", np.float64, flat=True)  # sized only once it is checked
        return HamiltonianSpec(fields, _freeze(self.coupling_for(fields.size)), mu=self.mu, tau=self.tau)


@dataclass(frozen=True, eq=False)
class CurvatureScan:
    """Trotter-step errors over a tau grid and their log-log scaling fit.

    ``commuting`` is set when every error sits below the floating-point
    floor (the factorization is exact); the slope is then undefined and
    left as None rather than fitted to noise.
    """

    taus: np.ndarray
    errors: np.ndarray
    fitted_slope: float | None
    fit_residual: float | None
    commuting: bool
    commutator_norm: float

    def __post_init__(self):
        taus = _own(self, "taus", np.float64)
        errors = _own(self, "errors", np.float64)
        scalars = (self.fitted_slope, self.fit_residual, self.commutator_norm)
        _require_finite("curvature scan", taus, errors, *(v for v in scalars if v is not None))
        d = np.diff(taus)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise StatekitError("tau grid must be strictly monotone")
        if np.any(errors < 0):
            raise StatekitError("errors must be non-negative")


def _check_step(obj, *fields, error: type[StatekitError] = StatekitError) -> None:
    """Set ``obj``'s ``mu`` and ``tau`` to floats; raise ``error`` unless each passes
    ``_as_real``, ``fields`` are finite and tau > 0."""
    what = "fields, mu or tau" if fields else "mu or tau"
    for name in ("mu", "tau"):
        object.__setattr__(obj, name, _as_real(getattr(obj, name), name, error, what))
    _require_finite(what, *fields, error=error)
    if not obj.tau > 0:
        raise error(f"tau must be > 0, got {obj.tau}")


def _check_coupling(j: np.ndarray, n_fields: int | None = None, error=StatekitError) -> None:
    """Raise ``error`` unless ``j`` is a finite, exactly symmetric, zero-diagonal
    square matrix, n_fields x n_fields when ``n_fields`` is given."""
    if n_fields is not None and j.shape != (n_fields, n_fields):
        raise error(f"coupling shape {j.shape} does not match {n_fields} fields")
    if j.ndim != 2 or j.shape[0] != j.shape[1]:
        raise error(f"coupling must be square, got shape {j.shape}")
    _require_finite("coupling matrix", j, error=error)
    if not np.array_equal(j, j.T):
        raise error("coupling matrix must be exactly symmetric")
    if np.any(np.diagonal(j) != 0):
        raise error("coupling matrix must have zero diagonal")


def ring_coupling(n: int) -> np.ndarray:
    """Nearest-neighbour ring: J_{j,j+1 mod n} = 1."""
    j = np.roll(np.eye(_as_int(n, "n")), 1, axis=1)
    j = np.maximum(j, j.T)
    np.fill_diagonal(j, 0.0)  # n = 1: a site is not its own neighbour
    return j


def complete_coupling(n: int) -> np.ndarray:
    """All-to-all coupling: every off-diagonal entry 1."""
    return 1.0 - np.eye(_as_int(n, "n"))


# topology preset name -> coupling matrix of n qubits
COUPLINGS = {"ring": ring_coupling, "complete": complete_coupling}


def build_h_data(fields: Sequence[float] | np.ndarray) -> HermitianOperator:
    """Local-field term sum_j x_j sigma_y_j (traceless, Hermitian)."""
    x = _as_array(fields, "fields", np.float64, flat=True)
    if x.size < 1:
        raise StatekitError("at least one field strength is required")
    n = x.size
    idx = np.arange(1 << n)
    h = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for q in np.flatnonzero(x):  # a zero field, -0.0 too, leaves +0.0 entries
        # sigma_y on qubit q flips bit n-1-q of the index: +i from a 0 bit, -i from a 1
        bit = (idx >> (n - 1 - q)) & 1
        h.imag[idx ^ (1 << (n - 1 - q)), idx] = x[q] * (1 - 2 * bit)
    return HermitianOperator(_freeze(h))


def build_h_topo(coupling: np.ndarray, mu: float) -> HermitianOperator:
    """Pairwise coupling term mu * sum_{j<k} J_jk Z_j Z_k (diagonal).

    Uses the diagonal fast path; ``build_h_topo_dense`` is the brute-force
    Pauli-string oracle for cross-checks.
    """
    j = _as_array(coupling, "coupling", np.float64)
    _check_coupling(j)
    diag = _as_real(mu, "mu") * _kernels.zz_diagonal(j)
    return HermitianOperator(_freeze(np.diag(diag.astype(np.complex128))))


def build_h_topo_dense(coupling: np.ndarray, mu: float) -> HermitianOperator:
    """Same operator as ``build_h_topo`` via explicit Pauli-string sums."""
    j = _as_array(coupling, "coupling", np.float64)
    _check_coupling(j)
    mu = _as_real(mu, "mu")
    n = j.shape[0]
    h = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for a in range(n):
        for b in range(a + 1, n):
            if j[a, b] != 0.0:
                h += mu * j[a, b] * pauli_string(n, {a: "Z", b: "Z"}).matrix
    return HermitianOperator(_freeze(h))


def effective_hamiltonian(spec: HamiltonianSpec) -> HermitianOperator:
    """H_data + H_topo for one spec: H_topo's diagonal added onto a copy of H_data."""
    h = build_h_data(spec.fields).matrix.copy()
    h[np.diag_indices(spec.dim)] += spec.mu * _kernels.zz_diagonal(spec.coupling)
    return HermitianOperator(_freeze(h))


def _diagonal_phase(spec: HamiltonianSpec) -> np.ndarray:
    """The diagonal phase exp(-i tau mu zz) of one symmetric step."""
    return np.exp(-1j * spec.tau * spec.mu * _kernels.zz_diagonal(spec.coupling))


def sandwich_unitary(spec: HamiltonianSpec, method: str = "factorized") -> DenseOperator:
    """One symmetric product step exp(-i tau/2 A) exp(-i tau B) exp(-i tau/2 A).

    ``method`` selects the factorized fast path (default) or the dense
    eigendecomposition path; acceptance criterion 6 holds the two within a
    spectral-norm distance of 1e-12.
    """
    if method == "factorized":
        rot = _kernels.ry_matrix((spec.tau / 2.0) * spec.fields)
        return DenseOperator(_freeze(rot @ (_diagonal_phase(spec)[:, None] * rot)))
    if method == "dense":
        half = evolve(build_h_data(spec.fields), spec.tau / 2.0).matrix
        mid = evolve(build_h_topo(spec.coupling, spec.mu), spec.tau).matrix
        return DenseOperator(_freeze(half @ mid @ half))
    raise StatekitError(f"unknown method {method!r} (expected 'factorized' or 'dense')")


def exact_unitary(spec: HamiltonianSpec) -> DenseOperator:
    """Reference evolution exp(-i tau (H_data + H_topo))."""
    return evolve(effective_hamiltonian(spec), spec.tau)


def commutator_norm(spec: HamiltonianSpec) -> float:
    """Spectral norm of [H_data, H_topo]; zero iff the two terms commute."""
    return _commutator_norm(effective_hamiltonian(spec).matrix)


def _commutator_norm(h: np.ndarray) -> float:
    """Spectral norm of [H, D] = [H_data, H_topo], D the diagonal of H = H_data + H_topo, formed elementwise."""
    d = np.diagonal(h).real
    return float(np.linalg.norm(h * d - d[:, None] * h, 2))


def information_curvature(
    spec_base: HamiltonianSpec,
    taus: Sequence[float] | np.ndarray | None = None,
) -> CurvatureScan:
    """Scan the sandwich-vs-exact spectral distance over a tau grid.

    Requires at least 5 grid points spanning at least 1.5 decades. For a
    non-commuting spec the fitted log-log slope sits in the third-order
    window; a commuting spec is flagged instead of fitted.
    """
    grid = _as_array(DEFAULT_TAU_GRID if taus is None else taus, "tau grid", np.float64)
    if grid.size < 5:
        raise StatekitError("tau grid needs at least 5 points")
    if np.any(grid <= 0):
        raise StatekitError("tau grid must be positive")
    d = np.diff(grid)
    if not (np.all(d > 0) or np.all(d < 0)):
        raise StatekitError("tau grid must be strictly monotone")
    if math.log10(grid.max() / grid.min()) < 1.5:
        raise StatekitError("tau grid must span at least 1.5 decades")

    h = effective_hamiltonian(spec_base)
    comm = _commutator_norm(h.matrix)
    # H does not depend on tau: one decomposition gives every exact U(tau)
    dec = hermitian_spectral_decomposition(h)
    del h  # 2^n x 2^n: not held across the tau loop
    errors = _freeze(np.array([
        operator_distance(sandwich_unitary(replace(spec_base, tau=t)), dec.evolution(t))
        for t in grid.tolist()
    ]))
    commuting = bool(errors.max() < TOLS.curvature_floor)
    slope = resid = None
    mask = errors > TOLS.curvature_floor
    if not commuting and mask.sum() >= 2:
        # points at the floating-point floor would contaminate the fit
        logt = np.log(grid[mask])
        loge = np.log(errors[mask])
        coeffs = np.polyfit(logt, loge, 1)
        slope = float(coeffs[0])
        resid = float(np.sqrt(np.mean((loge - np.polyval(coeffs, logt)) ** 2)))
    return CurvatureScan(
        taus=grid,
        errors=errors,
        fitted_slope=slope,
        fit_residual=resid,
        commuting=commuting,
        commutator_norm=comm,
    )


def _vacuum_stack(spec: HamiltonianSpec, fields: np.ndarray) -> np.ndarray:
    """Amplitudes (m, 2^n) of ``evolve_vacuum`` of ``spec`` with each row of
    ``fields`` (m, n) in turn as its fields; the caller wraps them in one
    checked ``StateStack`` or ``StateVector``.

    The m vacua evolve as the columns of one (2^n, m) stack: they share the
    diagonal phase, and each column turns by the half-angles of its own row.
    """
    half_angles = (spec.tau / 2.0) * fields.T
    amps = np.zeros((spec.dim, len(fields)), dtype=np.complex128)
    amps[0] = 1.0
    amps = _kernels.ry_layer(amps, half_angles)
    amps *= _diagonal_phase(spec)[:, None]
    return _freeze(_kernels.ry_layer(amps, half_angles)).T


def evolve_vacuum(spec: HamiltonianSpec) -> StateVector:
    """Apply one sandwich step to the all-zeros vacuum state.

    Runs through the state-level kernels (rotation layer, diagonal phase,
    rotation layer) without materializing the dense operator, on the same
    path that encodes whole datasets.
    """
    return StateVector(_vacuum_stack(spec, spec.fields[None]))
