"""Seeded experiments: datasets, fidelity kernels, classification, reports.

Every experiment is a pure function of (config, seed): repeated runs emit
byte-identical CSV tables. Four experiments are wired up:

    parity              encoder contrast on the sign-vector parity task
    curvature-scan      Trotter-error scaling of the sandwich step
    resonance           pairwise gap-coincidence verdicts on seeded specs
    interference-audit  decomposition and diagonal-trap residuals at scale

Configs arrive as strict JSON (unknown keys are rejected); reports echo
the config with the version, seed and numeric environment. The encoder
table (``ENCODERS``) lives in ``encoders`` and the Hamiltonian parameters
(``QiftParams``) in ``qift``; both are re-exported here. ``ExperimentConfig``
and its ``QiftParams`` check themselves on construction, so a config that
exists has passed every check, the size of an explicit topology included.
"""
from __future__ import annotations

import csv
import json
import math
import numbers
import os
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Union

import numpy as np

from ._version import __version__
from .encoders import ENCODER_IDS, ENCODERS
from .errors import ConfigError, DimensionMismatchError, StatekitError
from .interference import _decomposition_blocks, diagonal_trap_residual
from .qift import CurvatureScan, QiftParams, information_curvature
from .spectral import spectral_profile
from .statevec import (
    DenseOperator,
    Distribution,
    StateStack,
    StateVector,
    _as_array,
    _as_int,
    _as_real,
    _freeze,
    _is_int,
    _is_pow2,
    _own,
    _require_finite,
    as_rng,
    haar_random_unitary,
)
from .tolerances import TOLS

EXPERIMENT_IDS = ("parity", "curvature-scan", "resonance", "interference-audit")

# Admission limits of ExperimentConfig; README's config section gives the budget.
MAX_QUBITS = 12  # dense 2^n x 2^n complex128 operators; also the qift encoder's register
MAX_PARITY_COMPONENTS = 32  # the largest power of 2 whose 2^n enumeration index fits int64
MAX_PARITY_SAMPLES = 4096  # the Gram matrix and the leave-one-out pass grow as samples^2
MAX_RESONANCE_SPECS = 1024  # the resonance pair table grows as specs^2

# Edge of the square tiles in which the Gram is built, symmetrised, checked and scored:
# a tile pair's two 128 x 128 float64 blocks (256 KB) stay in cache while the pair is
# added and its mirror copied, where a full k.T pass strides one row per element.
_GRAM_TILE = 128
# Rows per block in which a CSV's cells are formatted and written: a resonance run
# at the spec cap peaks at 60 MB so, and at 288 MB with each column formatted whole.
_CSV_ROWS = 4096


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Real feature rows with binary labels in {-1, +1}."""

    vectors: np.ndarray
    labels: np.ndarray
    seed: int

    def __post_init__(self):
        v = _own(self, "vectors", np.float64, finite="dataset vectors")
        l = _own(self, "labels", np.int64, value=_labels(self.labels))
        object.__setattr__(self, "seed", _as_int(self.seed, "seed"))
        if v.ndim != 2 or v.shape[0] != l.size:
            raise StatekitError("vectors and labels must have matching first dimension")

    def __len__(self) -> int:
        return self.labels.size


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Pairwise state fidelities |<a|b>|^2 for one encoder."""

    entries: np.ndarray
    encoder_id: str = "custom"

    def __post_init__(self):
        k = _own(self, "entries", np.float64)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise StatekitError(f"Gram matrix must be square, got {k.shape}")
        if k.size == 0:
            raise StatekitError("Gram matrix must not be empty")
        _check_gram_block(k, diagonal=True)
        # max |k - k.T| over mirrored tile pairs, without a strided full-matrix pass
        pairs = _tile_pairs(k.shape[0])
        asymmetry = max(np.abs(k[r, c] - k[c, r].T).max() for r, c in pairs)
        if asymmetry > TOLS.gram_symmetry:
            raise StatekitError(f"Gram matrix is not symmetric within {TOLS.gram_symmetry}")

    @property
    def n_samples(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class Table:
    """One CSV-bound result table: a header and one column (array or sequence) per field."""

    name: str
    header: tuple[str, ...]
    columns: tuple[Sequence, ...]

    def __post_init__(self):
        if len(self.columns) != len(self.header):
            raise StatekitError(f"{len(self.columns)} columns for {len(self.header)} header fields")
        if len({len(c) for c in self.columns}) > 1:
            raise StatekitError("table columns differ in length")

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The table row by row, in plain Python values."""
        return tuple(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in self.columns)))


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Run description, checked on construction; build from JSON via ``from_dict``."""

    experiment: str
    n_features: int
    count: Union[int, str]
    seed: int
    output_dir: str
    encoders: tuple[str, ...] = ()
    qift: QiftParams | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        known = {"experiment", "n_features", "count", "seed", "encoders", "qift", "output_dir"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"experiment", "n_features", "count", "seed", "output_dir"} - set(raw)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")

        encoders = raw.get("encoders", [])
        if not isinstance(encoders, list):
            raise ConfigError("encoders must be a list")
        qift = raw.get("qift")
        if qift is not None:
            qift = _parse_qift_block(qift)
        return cls(**{**raw, "encoders": tuple(encoders), "qift": qift})

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_IDS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENT_IDS}")
        for name, low in (("n_features", 1), ("count", 1), ("seed", 0)):
            if name != "count" or self.count != "all":
                object.__setattr__(self, name, _as_int(getattr(self, name), name, low, ConfigError))
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ConfigError("output_dir must be a non-empty string")
        for i, enc in enumerate(self.encoders):
            if enc not in ENCODER_IDS:
                raise ConfigError(f"unknown encoder {enc!r}; expected one of {ENCODER_IDS}")
            if enc in self.encoders[:i]:
                raise ConfigError(f"encoder {enc!r} is listed more than once")
        n = self.n_features
        if self.experiment == "parity":
            if not self.encoders:
                raise ConfigError("parity experiment requires a non-empty encoders list")
            if not _is_pow2(n) or n < 2:
                raise ConfigError("parity experiment requires n_features to be a power of 2 (>= 2)")
            if n > MAX_PARITY_COMPONENTS:
                raise ConfigError(f"parity supports at most {MAX_PARITY_COMPONENTS} components, got {n}")
            samples = 1 << n if self.count == "all" else int(self.count)
            if samples > MAX_PARITY_SAMPLES:
                raise ConfigError(f"parity supports at most {MAX_PARITY_SAMPLES} samples, got {samples}")
            if "qift" in self.encoders:
                _require_qubits(n, "the qift encoder")
                self.qift_params().coupling_for(n)  # an explicit topology must be n x n
        else:
            # n_features counts qubits here; the toolkit is dense-only
            _require_qubits(n, self.experiment)
            if self.experiment != "interference-audit":
                self.qift_params().coupling_for(n)
        if self.experiment == "resonance":
            if self.count == "all" or int(self.count) < 2:
                raise ConfigError("resonance experiment requires an integer count >= 2")
            if int(self.count) > MAX_RESONANCE_SPECS:
                raise ConfigError(f"resonance supports at most {MAX_RESONANCE_SPECS} specs, got {self.count}")
        if self.experiment in ("curvature-scan", "interference-audit") and self.count == "all":
            raise ConfigError(f"{self.experiment} requires an integer count")

    def qift_params(self) -> QiftParams:
        return self.qift if self.qift is not None else QiftParams()

    def to_jsonable(self) -> dict:
        out = {
            "experiment": self.experiment,
            "n_features": self.n_features,
            "count": self.count,
            "seed": self.seed,
            "encoders": list(self.encoders),
            "output_dir": self.output_dir,
        }
        if self.qift is not None:
            out["qift"] = _jsonify(asdict(self.qift))
        return out


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """Results plus provenance; every number reproducible from (config, seed)."""

    config: dict
    results: dict
    provenance: dict
    written: tuple[str, ...] = ()

    def to_jsonable(self) -> dict:
        return {"config": self.config, "results": self.results, "provenance": self.provenance}


def _check_gram_block(k: np.ndarray, diagonal: bool) -> None:
    """Raise unless the Gram entries ``k`` are finite and in [0, 1] within tolerance,
    and, if ``diagonal``, ``np.diagonal(k)`` is the Gram's diagonal and is 1 within
    tolerance. ``GramMatrix`` checks its whole matrix, ``_gram_tiles`` each tile."""
    low, high = k.min(), k.max()  # a NaN or an infinity reaches one of them
    _require_finite("Gram matrix", low, high)
    if diagonal and np.abs(np.diagonal(k) - 1.0).max() > TOLS.gram_diagonal:
        raise StatekitError(f"Gram diagonal deviates from 1 beyond {TOLS.gram_diagonal}")
    if low < 0 or high > 1 + TOLS.gram_range:
        raise StatekitError("Gram entries leave [0, 1] beyond tolerance")


def _labels(labels) -> np.ndarray:
    """``labels`` as a flat int64 array; raise unless each is +1 or -1, not a bool."""
    flat = np.asarray(labels, dtype=object).ravel()
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) and v in (-1, 1) for v in flat):
        raise StatekitError("labels must be +1 or -1")
    return _freeze(flat.astype(np.int64))  # adopted by the intake, not copied


def _require_qubits(n: int, what: str) -> None:
    """Reject a dense problem on more than ``MAX_QUBITS`` qubits before it is built."""
    if n > MAX_QUBITS:
        raise ConfigError(f"{what} supports at most {MAX_QUBITS} qubits, got {n}")


def _parse_qift_block(raw: dict) -> QiftParams:
    if not isinstance(raw, dict):
        raise ConfigError("qift block must be a JSON object")
    unknown = set(raw) - {"mu", "tau", "topology"}
    if unknown:
        raise ConfigError(f"unknown qift keys: {sorted(unknown)}")
    return QiftParams(**raw)


# ---------------------------------------------------------------------------
# datasets and kernels
# ---------------------------------------------------------------------------

def gen_parity_dataset(
    n_components: int,
    count: Union[int, str] = "all",
    seed: int = 0,
) -> LabeledDataset:
    """Sign vectors in {-1,+1}^N labeled by the product of their entries.

    Component j of enumeration index i is +1 when bit j of i (least
    significant first) is 0. ``count="all"`` enumerates all 2^N vectors in
    index order; an integer count samples that many without replacement.
    """
    if not _is_int(n_components, 2, MAX_PARITY_COMPONENTS + 1) or not _is_pow2(n_components):
        raise StatekitError(f"n_components must be a power of 2 in [2, {MAX_PARITY_COMPONENTS}]")
    total = 1 << n_components
    if count == "all":
        indices = np.arange(total)
    else:
        if not _is_int(count, 1):
            raise StatekitError("count must be a positive integer or 'all'")
        if count > total:
            raise StatekitError(f"count {count} exceeds the {total} distinct sign vectors")
        indices = as_rng(seed).choice(total, size=count, replace=False)
    bits = (indices[:, None] >> np.arange(n_components)[None, :]) & 1
    vectors = 1.0 - 2.0 * bits
    labels = np.prod(vectors, axis=1).astype(np.int64)
    return LabeledDataset(vectors=_freeze(vectors), labels=labels, seed=seed)


def encode_dataset(
    ds: LabeledDataset,
    encoder_id: str,
    qift_params: QiftParams | None = None,
) -> StateStack:
    """Encode every dataset row into a state with one named encoder of ``ENCODERS``.

    The states come back as one validated stack, row i from dataset row i.
    ``qift_params`` applies to the ``qift`` encoder only.
    """
    if encoder_id not in ENCODERS:
        raise StatekitError(f"unknown encoder {encoder_id!r}; expected one of {ENCODER_IDS}")
    if encoder_id != "qift" and qift_params is not None:
        raise StatekitError(f"qift parameters are not valid for encoder {encoder_id!r}")
    return ENCODERS[encoder_id](ds.vectors, qift_params)


def fidelity_gram(
    states: Union[StateStack, Sequence[StateVector]],
    encoder_id: str = "custom",
) -> GramMatrix:
    """All pairwise fidelities |<a|b>|^2, symmetrized and built tile by tile, so the
    float64 Gram is the only m x m array; bit for bit 0.5 * (K + K.T) with
    K = |stack.conj() @ stack.T|^2."""
    stack = _state_rows(states)
    k = np.empty((stack.shape[0],) * 2)
    for rows, cols, blk in _gram_tiles(stack):
        k[rows, cols] = blk
    return GramMatrix(entries=_freeze(k), encoder_id=encoder_id)  # adopted, not copied


def _state_rows(states: Union[StateStack, Sequence[StateVector]]) -> np.ndarray:
    """The (m, d) amplitudes of ``states``, m >= 1: a ``StateStack``'s own array, or
    the rows of a sequence of ``StateVector``s of one dimension stacked."""
    if not isinstance(states, StateStack) and not (
        isinstance(states, Sequence) and all(isinstance(s, StateVector) for s in states)
    ):
        raise StatekitError("states must be a StateStack or a sequence of StateVectors")
    if len(states) == 0:
        raise StatekitError("at least one state is required")
    if isinstance(states, StateStack):
        return states.amplitudes
    if any(s.dim != states[0].dim for s in states):
        raise DimensionMismatchError("states have mixed dimensions")
    return np.vstack([s.amplitudes for s in states])


def _gram_tiles(stack: np.ndarray):
    """Yield ``(rows, cols, blk)`` for every tile ``k[rows, cols]`` of the Gram of
    ``stack``, each checked as ``GramMatrix`` checks a whole Gram, bar symmetry. Each
    tile pair of ``_tile_pairs`` comes from its own two products, bit for bit
    0.5 * (K + K.T) with K = |stack.conj() @ stack.T|^2; the tile is yielded first and
    its mirror ``blk.T`` right after, so each block of rows meets its column blocks
    in ascending order. States with real amplitudes, such as phase-locked ones, skip the
    modulus: their overlaps' imaginary parts are +-0, and hypot(x, +-0)^2 = x^2 exactly."""
    conj = stack.conj()
    part = np.abs if stack.imag.any() else np.real
    for rows, cols in _tile_pairs(stack.shape[0]):
        blk = np.square(part(conj[rows] @ stack[cols].T))
        blk += blk.T if rows == cols else np.square(part(conj[cols] @ stack[rows].T)).T
        blk *= 0.5
        _check_gram_block(blk, diagonal=rows == cols)
        yield rows, cols, blk
        if rows != cols:
            yield cols, rows, blk.T


def _tile_pairs(m: int):
    """Yield the (rows, cols) slice pairs of the upper-triangle tiles of an m x m
    matrix, cols >= rows; their mirrors (cols, rows) cover the lower triangle. A
    one-row remainder joins the last block: a one-row product takes another BLAS
    route, whose bits differ from the whole-matrix product's."""
    starts = list(range(0, m, _GRAM_TILE))
    if len(starts) > 1 and m - starts[-1] == 1:
        starts.pop()
    edges = [slice(start, end) for start, end in zip(starts, starts[1:] + [m])]
    for i, rows in enumerate(edges):
        for cols in edges[i:]:
            yield rows, cols


def nn_classify_loo(gram: Union[GramMatrix, np.ndarray], labels: Sequence[int]) -> float:
    """Leave-one-out 1-nearest-neighbour accuracy under a similarity matrix.

    Ties go to the lowest tied sample index. A fully degenerate row (every
    candidate equally similar) carries no neighbour information; by
    convention it predicts the label of the dataset's first sample, keeping
    the output deterministic.
    """
    k = gram.entries if isinstance(gram, GramMatrix) else _as_array(gram, "similarity matrix", np.float64)
    labels = _labels(labels)
    m = labels.size
    if k.shape != (m, m):
        raise DimensionMismatchError(f"Gram shape {k.shape} does not match {m} labels")
    _require_both_classes(labels)
    if not isinstance(gram, GramMatrix):  # a GramMatrix is frozen and was checked on construction
        _require_finite("similarity matrix", k)
    nearest = _Nearest(m)
    for start in range(0, m, _GRAM_TILE):  # copy one block of rows, which stays in cache, not all of k
        rows = slice(start, start + _GRAM_TILE)
        nearest.merge(rows, 0, k[rows].copy())
    return nearest.accuracy(labels)


def _require_both_classes(labels: np.ndarray) -> None:
    if labels.size < 2:
        raise StatekitError("need at least 2 samples for leave-one-out classification")
    if np.unique(labels).size < 2:
        raise StatekitError("degenerate single-class input: both classes are required")


class _Nearest:
    """Leave-one-out nearest neighbours, merged one block of similarities at a time.
    Each row keeps its best and its smallest similarity, its own column left out, and
    the lowest column that reaches the best. Comparisons are exact and blocks reach
    each row in ascending column order, so the result is that of one pass over it."""

    def __init__(self, m: int):
        self.best = np.full(m, -np.inf)
        self.index = np.zeros(m, dtype=np.intp)
        self.low = np.full(m, np.inf)

    def merge(self, rows: slice, start: int, sim: np.ndarray) -> np.ndarray:
        """Merge ``sim``, the similarities of ``rows`` to the columns from ``start`` on, and
        return each row's best there; ``sim`` is overwritten at each row's own column."""
        i = np.arange(sim.shape[0])
        own = (i, i + rows.start - start) if start <= rows.start < start + sim.shape[1] else None
        if own is not None:
            sim[own] = -np.inf
        arg = sim.argmax(axis=1)  # the lowest index among tied maxima
        top = sim[i, arg]
        if own is not None:
            sim[own] = top  # moves neither the row's maximum nor its minimum
        low = sim[i, sim.argmin(axis=1)]  # argmin and a gather beat min(axis=1)
        best, index, lows = self.best[rows], self.index[rows], self.low[rows]  # views
        np.copyto(index, start + arg, where=top > best)
        np.maximum(best, top, out=best)
        np.minimum(lows, low, out=lows)
        return top

    def accuracy(self, labels: np.ndarray) -> float:
        """Share of samples whose nearest neighbour shares their label; a fully degenerate
        row (m > 2, its smallest similarity its best) predicts the first sample's label."""
        m = labels.size
        pred = np.where((m > 2) & (self.low == self.best), labels[0], labels[self.index])
        return int((pred == labels).sum()) / m


def distinguishability(
    states: Union[StateStack, Sequence[StateVector]],
    labels: Sequence[int],
) -> float:
    """Minimum cross-class fidelity distance sqrt(1 - |<a|b>|^2).

    Zero means some pair with opposite labels is indistinguishable by any
    measurement on these states. Scored from each Gram tile as it is built,
    so no m x m array is held.
    """
    labels = _labels(labels)
    stack = _state_rows(states)
    if stack.shape[0] != labels.size:
        raise DimensionMismatchError(f"{stack.shape[0]} states do not match {labels.size} labels")
    _require_both_classes(labels)
    tiles = (t for t in _gram_tiles(stack) if t[0].start <= t[1].start)  # mirrors hold no new pair
    return _distance(max(_cross_top(*t, labels) for t in tiles))


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def _run_parity(config: ExperimentConfig) -> tuple[dict, list[Table]]:
    ds = gen_parity_dataset(config.n_features, config.count, config.seed)
    params = {enc: config.qift_params() if enc == "qift" else None for enc in config.encoders}
    # one encoder's states at a time: each stack is freed once it is scored
    rows = [(enc, *_gram_scores(encode_dataset(ds, enc, params[enc]).amplitudes, ds.labels)) for enc in config.encoders]
    per_encoder = {enc: {"accuracy": acc, "distinguishability": dist} for enc, acc, dist in rows}
    results = {"n_samples": len(ds), "per_encoder": per_encoder}
    table = Table(
        name="parity_results",
        header=("encoder", "accuracy", "distinguishability"),
        columns=tuple(zip(*rows)),
    )
    return results, [table]


def _gram_scores(stack: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Leave-one-out accuracy and distinguishability of the states ``stack`` under
    checked ``labels``: ``nn_classify_loo`` of ``fidelity_gram`` and the smallest
    cross-class distance of the same Gram, scored from each tile as ``_gram_tiles``
    yields it, so the Gram is never held whole."""
    _require_both_classes(labels)
    nearest = _Nearest(labels.size)
    top = -np.inf
    for rows, cols, blk in _gram_tiles(stack):
        mirror = rows.start > cols.start  # a view of the tile before it, whose pairs it holds
        row_best = nearest.merge(rows, cols.start, blk.copy() if mirror else blk)  # a copy's rows are contiguous
        if not mirror and row_best.max() > top:  # else no cross pair of the tile beats top
            top = max(top, _cross_top(rows, cols, blk, labels))
    return nearest.accuracy(labels), _distance(top)


def _cross_top(rows: slice, cols: slice, blk: np.ndarray, labels: np.ndarray) -> float:
    """The largest fidelity in the tile ``blk`` between states of opposite labels; it is
    also that of the tile's mirror, which holds the same pairs."""
    cross = (labels[rows, None] > 0) != (labels[cols] > 0)  # cheaper than comparing int64 pairs
    return np.where(cross, blk, -np.inf).max()


def _distance(top: float) -> float:
    """The smallest cross-class distance, bit for bit: sqrt(max(0, 1 - x)) falls with x."""
    return float(np.sqrt(np.maximum(0.0, 1.0 - top)))


def _run_curvature(config: ExperimentConfig) -> tuple[dict, list[Table]]:
    x = as_rng(config.seed).uniform(-math.pi, math.pi, config.n_features)
    results, tables = _curvature_results(information_curvature(config.qift_params().spec(x)))
    results["fields"] = x.tolist()
    return results, tables


def _curvature_results(scan: CurvatureScan) -> tuple[dict, list[Table]]:
    """Summary fields and (tau, error) table of one scan, shared with ``statekit trotter-scan``."""
    results = {
        "fitted_slope": scan.fitted_slope,
        "fit_residual": scan.fit_residual,
        "commuting": scan.commuting,
        "commutator_norm": scan.commutator_norm,
    }
    table = Table(
        name="curvature_scan",
        header=("tau", "error"),
        columns=(scan.taus, scan.errors),
    )
    return results, [table]


def _run_resonance(config: ExperimentConfig, tolerance: float) -> tuple[dict, list[Table]]:
    tolerance = _as_real(tolerance, "tolerance", positive=True)
    params = config.qift_params()
    rng = as_rng(config.seed)
    count = int(config.count)
    specs = [params.spec(rng.uniform(-math.pi, math.pi, config.n_features)) for _ in range(count)]
    gaps = np.array([spectral_profile(s).mass_gap for s in specs])  # one eigendecomposition per spec
    a, b = np.triu_indices(count, 1)  # the pairs in itertools.combinations order
    delta = np.abs(gaps[a] - gaps[b])
    resonant = delta <= tolerance
    results = {
        "tolerance": tolerance,
        "n_specs": count,
        "n_pairs": a.size,
        "n_resonant": int(resonant.sum()),
        "gaps": gaps.tolist(),
    }
    table = Table(
        name="resonance_pairs",
        header=("spec_a", "spec_b", "gap_a", "gap_b", "delta", "resonant"),
        columns=(a, b, gaps[a], gaps[b], delta, resonant),
    )
    return results, [table]


def _run_interference_audit(config: ExperimentConfig) -> tuple[dict, list[Table]]:
    n = config.n_features
    dim = 1 << n
    rng = as_rng(config.seed)
    rows = []
    for case in range(int(config.count)):
        u = haar_random_unitary(dim, rng)
        p = Distribution(_freeze(rng.dirichlet(np.ones(dim))))
        phased = case % 2 == 1
        phi = rng.uniform(0.0, 2.0 * math.pi, dim) if phased else None
        blocks = _decomposition_blocks(u, p, phi, range(dim))
        decomp_resid = max(float(np.abs(total - born).max()) for *_, total, born, _ in blocks)
        d = DenseOperator(_freeze(np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, dim)))))
        trap_resid = diagonal_trap_residual(p, d)
        rows.append((case, phased, decomp_resid, trap_resid))
    results = {
        "cases": len(rows),
        "max_decomposition_residual": max(r[2] for r in rows),
        "max_trap_residual": max(r[3] for r in rows),
    }
    table = Table(
        name="interference_audit",
        header=("case", "phased", "decomposition_residual", "trap_residual"),
        columns=tuple(zip(*rows)),
    )
    return results, [table]


def compute_experiment(
    config: ExperimentConfig,
    resonance_tolerance: float | None = None,
) -> tuple[dict, list[Table]]:
    """Run the configured experiment in memory; no files touched."""
    if config.experiment == "parity":
        return _run_parity(config)
    if config.experiment == "curvature-scan":
        return _run_curvature(config)
    if config.experiment == "resonance":
        tol = TOLS.resonance if resonance_tolerance is None else resonance_tolerance
        return _run_resonance(config, tol)
    return _run_interference_audit(config)


def run_experiment(
    config: ExperimentConfig,
    resonance_tolerance: float | None = None,
) -> ExperimentReport:
    """Execute an experiment and write its report JSON plus CSV tables.

    All computation happens before the first file is created, so a failing
    run leaves no partial output behind.
    """
    results, tables = compute_experiment(config, resonance_tolerance)
    provenance = {
        "version": __version__,
        "seed": config.seed,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "numerics": _numerics(),
    }
    report = ExperimentReport(
        config=config.to_jsonable(),
        results=results,
        provenance=provenance,
    )
    written = write_outputs(config.output_dir, tables, "report.json", report.to_jsonable())
    return replace(report, written=written)


def _numerics() -> dict:
    """What output bytes hold in: numpy, its BLAS and the core whose kernels an OpenBLAS
    picked for this CPU, the SIMD extensions numpy found, the thread pins and the CPUs."""
    import ctypes  # read here only, so that importing statekit loads no more

    info = np.show_config(mode="dicts")
    blas = info["Build Dependencies"]["blas"]
    pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    linalg = ctypes.CDLL(np.linalg._umath_linalg.__file__)  # its symbols include the BLAS it links
    names = ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename")
    corename = ctypes.CFUNCTYPE(ctypes.c_char_p)  # const char *(void), bound to a (name, library) pair
    core = next((corename((name, linalg))().decode() for name in names if hasattr(linalg, name)), None)
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")} | {"core": core},
        "simd_found": list(info["SIMD Extensions"]["found"]),
        "thread_pins": {key: os.environ.get(key) for key in pins},
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# CSV and JSON emission
# ---------------------------------------------------------------------------

def write_outputs(
    outdir: Union[str, Path],
    tables: Sequence[Table],
    json_name: str,
    payload: dict,
) -> tuple[str, ...]:
    """Write each table as ``<name>.csv`` and ``payload`` as ``json_name`` into ``outdir``.

    Creates the directory as needed and returns the written paths in order;
    a filesystem failure removes the files already written and is raised as
    ``ConfigError``.
    """
    outdir = Path(outdir)
    written = []
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for table in tables:
            path = outdir / f"{table.name}.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                write_csv(fh, table)
            written.append(str(path))
        path = outdir / json_name
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(payload, indent=2) + "\n")
        written.append(str(path))
    except OSError as exc:
        for done in written:  # a failed run leaves none of its files behind
            Path(done).unlink(missing_ok=True)
        raise ConfigError(f"cannot write into {outdir}: {exc}") from exc
    return tuple(written)


def _jsonify(value):
    """Plain-Python copy of ``value`` for JSON: numpy scalars and arrays are
    converted, tuples become lists, and non-finite floats become None."""
    if isinstance(value, dict):
        return {key: _jsonify(v) for key, v in value.items()}
    if isinstance(value, np.ndarray):
        return _jsonify(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else None
    return value


def dumps(payload, indent: int | None = None) -> str:
    """Strict JSON text of ``payload`` (NaN and infinities are written as null)."""
    return json.dumps(_jsonify(payload), indent=indent, allow_nan=False)


def format_cell(value) -> str:
    """Canonical cell text: 17 significant digits for floats (round-trip exact)."""
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(fh, table: Table) -> None:
    """Write ``table`` to the text file ``fh`` as RFC-4180-style CSV: header row, CRLF
    line endings, '.' decimals, each cell as ``format_cell`` writes it. Cells are
    formatted and written one block of rows at a time, so no text of the whole table
    is held; ``fh`` opened with ``newline=""`` keeps the CRLFs."""
    writer = csv.writer(fh)
    writer.writerow(table.header)
    for start in range(0, len(table.columns[0]), _CSV_ROWS):
        block = [c[start:start + _CSV_ROWS] for c in table.columns]
        cells = [map(format_cell, c.tolist() if isinstance(c, np.ndarray) else c) for c in block]
        writer.writerows(zip(*cells))
