"""Seeded experiments: datasets, fidelity kernels, classification, reports.

Every experiment is a pure function of (config, seed): repeated runs emit
byte-identical CSV tables. Four experiments are wired up:

    parity              encoder contrast on the sign-vector parity task
    curvature-scan      Trotter-error scaling of the sandwich step
    resonance           pairwise gap-coincidence verdicts on seeded specs
    interference-audit  decomposition and diagonal-trap residuals at scale

Configs arrive as strict JSON (unknown keys are rejected); reports carry a
full config echo plus tool version and seed for provenance. The encoder
table (``ENCODERS``) lives in ``encoders`` and the Hamiltonian parameters
(``QiftParams``) in ``qift``; both are re-exported here. ``ExperimentConfig``
and its ``QiftParams`` check themselves on construction, so a config that
exists has passed every check, the size of an explicit topology included.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from ._version import __version__
from .encoders import ENCODER_IDS, ENCODERS
from .errors import ConfigError, DimensionMismatchError, StatekitError
from .interference import diagonal_trap_residual, interference_decompositions
from .qift import CurvatureScan, QiftParams, information_curvature
from .spectral import _verdict, spectral_profile
from .statevec import (
    DenseOperator,
    Distribution,
    StateStack,
    StateVector,
    _freeze,
    _is_pow2,
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

# Edge of the square tiles in which the Gram matrix is symmetrised and checked:
# a pair of 128 x 128 float64 tiles (256 KB) stays in cache, where a full k.T
# pass reads memory at a stride of one row per element.
_GRAM_TILE = 128


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
        v = np.ascontiguousarray(self.vectors, dtype=np.float64)
        l = np.ascontiguousarray(self.labels, dtype=np.int64).ravel()
        if v.ndim != 2 or v.shape[0] != l.size:
            raise StatekitError("vectors and labels must have matching first dimension")
        _require_finite("dataset vectors", v)
        if not np.all(np.isin(l, (-1, 1))):
            raise StatekitError("labels must be +1 or -1")
        object.__setattr__(self, "vectors", _freeze(v))
        object.__setattr__(self, "labels", _freeze(l))

    def __len__(self) -> int:
        return self.labels.size


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Pairwise state fidelities |<a|b>|^2 for one encoder."""

    entries: np.ndarray
    encoder_id: str = "custom"

    def __post_init__(self):
        k = np.ascontiguousarray(self.entries, dtype=np.float64)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise StatekitError(f"Gram matrix must be square, got {k.shape}")
        if k.size == 0:
            raise StatekitError("Gram matrix must not be empty")
        _require_finite("Gram matrix", k)
        # max |k - k.T| over mirrored tile pairs, without a strided full-matrix pass
        pairs = _tile_pairs(k.shape[0])
        asymmetry = max(np.abs(k[r, c] - k[c, r].T).max() for r, c in pairs)
        if asymmetry > TOLS.gram_symmetry:
            raise StatekitError(f"Gram matrix is not symmetric within {TOLS.gram_symmetry}")
        if np.abs(np.diagonal(k) - 1.0).max() > TOLS.gram_diagonal:
            raise StatekitError(f"Gram diagonal deviates from 1 beyond {TOLS.gram_diagonal}")
        if k.min() < 0 or k.max() > 1 + TOLS.gram_range:
            raise StatekitError("Gram entries leave [0, 1] beyond tolerance")
        object.__setattr__(self, "entries", _freeze(k))

    @property
    def n_samples(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class Table:
    """One CSV-bound result table: header plus homogeneous rows."""

    name: str
    header: tuple[str, ...]
    rows: tuple[tuple, ...]


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
        _require_int(self.n_features, "n_features", minimum=1)
        if self.count != "all":
            _require_int(self.count, "count", minimum=1)
        _require_int(self.seed, "seed", minimum=0)
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


def _require_qubits(n: int, what: str) -> None:
    """Reject a dense problem on more than ``MAX_QUBITS`` qubits before it is built."""
    if n > MAX_QUBITS:
        raise ConfigError(f"{what} supports at most {MAX_QUBITS} qubits, got {n}")


def _require_int(value, name: str, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")


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
    if not _is_pow2(n_components) or not 2 <= n_components <= MAX_PARITY_COMPONENTS:
        raise StatekitError(f"n_components must be a power of 2 in [2, {MAX_PARITY_COMPONENTS}]")
    total = 1 << n_components
    if count == "all":
        indices = np.arange(total)
    else:
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise StatekitError("count must be a positive integer or 'all'")
        if count > total:
            raise StatekitError(f"count {count} exceeds the {total} distinct sign vectors")
        indices = as_rng(seed).choice(total, size=count, replace=False)
    bits = (indices[:, None] >> np.arange(n_components)[None, :]) & 1
    vectors = 1.0 - 2.0 * bits
    labels = np.prod(vectors, axis=1).astype(np.int64)
    return LabeledDataset(vectors=vectors, labels=labels, seed=seed)


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
    """All pairwise fidelities |<a|b>|^2, symmetrized."""
    if not states:
        raise StatekitError("at least one state is required")
    if isinstance(states, StateStack):
        stack = states.amplitudes
    else:
        dim = states[0].dim
        if any(s.dim != dim for s in states):
            raise DimensionMismatchError("states have mixed dimensions")
        stack = np.vstack([s.amplitudes for s in states])
    k = np.abs(stack.conj() @ stack.T)
    np.square(k, out=k)
    # 0.5 * (k + k.T) in place, one mirrored pair of tiles at a time; each entry
    # gets the same two float operations, so the result is bit for bit the same
    for rows, cols in _tile_pairs(k.shape[0]):
        blk = 0.5 * (k[rows, cols] + k[cols, rows].T)
        k[rows, cols] = blk
        k[cols, rows] = blk.T
    return GramMatrix(entries=k, encoder_id=encoder_id)


def _tile_pairs(m: int):
    """Yield the (rows, cols) slice pairs of the upper-triangle tiles of an m x m
    matrix, cols >= rows; their mirrors (cols, rows) cover the lower triangle."""
    edges = [slice(start, start + _GRAM_TILE) for start in range(0, m, _GRAM_TILE)]
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
    k = gram.entries if isinstance(gram, GramMatrix) else np.asarray(gram, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    m = labels.size
    if k.shape != (m, m):
        raise DimensionMismatchError(f"Gram shape {k.shape} does not match {m} labels")
    if m < 2:
        raise StatekitError("need at least 2 samples for leave-one-out classification")
    if np.unique(labels).size < 2:
        raise StatekitError("degenerate single-class input: both classes are required")
    _require_finite("similarity matrix", k)
    sim = np.array(k, dtype=np.float64)
    np.fill_diagonal(sim, -np.inf)
    nearest = sim.argmax(axis=1)  # the lowest index among tied maxima
    ties = (sim == sim[np.arange(m), nearest][:, None]).sum(axis=1)
    pred = np.where((ties > 1) & (ties == m - 1), labels[0], labels[nearest])
    return int((pred == labels).sum()) / m


def distinguishability(
    states: Union[StateStack, Sequence[StateVector]],
    labels: Sequence[int],
) -> float:
    """Minimum cross-class fidelity distance sqrt(1 - |<a|b>|^2).

    Zero means some pair with opposite labels is indistinguishable by any
    measurement on these states.
    """
    labels = np.asarray(labels, dtype=np.int64).ravel()
    gram = fidelity_gram(states)
    return _distinguishability_from_gram(gram, labels)


def _distinguishability_from_gram(gram: GramMatrix, labels: np.ndarray) -> float:
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == -1)
    if pos.size == 0 or neg.size == 0:
        raise StatekitError("both classes must be nonempty")
    cross = gram.entries[np.ix_(pos, neg)]
    return float(np.sqrt(np.maximum(0.0, 1.0 - cross)).min())


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def _run_parity(config: ExperimentConfig) -> tuple[dict, list[Table]]:
    ds = gen_parity_dataset(config.n_features, config.count, config.seed)
    per_encoder = {}
    rows = []
    for enc in config.encoders:
        params = config.qift_params() if enc == "qift" else None
        states = encode_dataset(ds, enc, params)
        gram = fidelity_gram(states, enc)
        acc = nn_classify_loo(gram, ds.labels)
        dist = _distinguishability_from_gram(gram, ds.labels)
        per_encoder[enc] = {"accuracy": acc, "distinguishability": dist}
        rows.append((enc, acc, dist))
    results = {"n_samples": len(ds), "per_encoder": per_encoder}
    table = Table(
        name="parity_results",
        header=("encoder", "accuracy", "distinguishability"),
        rows=tuple(rows),
    )
    return results, [table]


def _run_curvature(config: ExperimentConfig) -> tuple[dict, list[Table]]:
    params = config.qift_params()
    n = config.n_features
    rng = as_rng(config.seed)
    x = rng.uniform(-math.pi, math.pi, n)
    results, tables = _curvature_results(information_curvature(params.spec(x)))
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
        rows=tuple(zip(scan.taus.tolist(), scan.errors.tolist())),
    )
    return results, [table]


def _run_resonance(config: ExperimentConfig, tolerance: float) -> tuple[dict, list[Table]]:
    params = config.qift_params()
    n = config.n_features
    rng = as_rng(config.seed)
    specs = [params.spec(rng.uniform(-math.pi, math.pi, n)) for _ in range(int(config.count))]
    profiles = [spectral_profile(s) for s in specs]  # one eigendecomposition per spec
    rows = []
    for a, b in itertools.combinations(range(len(specs)), 2):
        verdict = _verdict(profiles[a], profiles[b], tolerance)
        rows.append((a, b, verdict.gap_a, verdict.gap_b, verdict.delta, verdict.resonant))
    results = {
        "tolerance": tolerance,
        "n_specs": len(specs),
        "n_pairs": len(rows),
        "n_resonant": sum(row[5] for row in rows),
        "gaps": [p.mass_gap for p in profiles],
    }
    table = Table(
        name="resonance_pairs",
        header=("spec_a", "spec_b", "gap_a", "gap_b", "delta", "resonant"),
        rows=tuple(rows),
    )
    return results, [table]


def _run_interference_audit(config: ExperimentConfig) -> tuple[dict, list[Table]]:
    n = config.n_features
    dim = 1 << n
    rng = as_rng(config.seed)
    rows = []
    for case in range(int(config.count)):
        u = haar_random_unitary(dim, rng)
        p = Distribution(rng.dirichlet(np.ones(dim)))
        phased = case % 2 == 1
        phi = rng.uniform(0.0, 2.0 * math.pi, dim) if phased else None
        decomp_resid = max(r.residual for r in interference_decompositions(u, p, phi, range(dim)))
        d = DenseOperator(np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, dim))))
        trap_resid = diagonal_trap_residual(p, d)
        rows.append((case, phased, decomp_resid, trap_resid))
    decomp = max(r[2] for r in rows)
    trap = max(r[3] for r in rows)
    results = {
        "cases": len(rows),
        "max_decomposition_residual": decomp,
        "max_trap_residual": trap,
    }
    table = Table(
        name="interference_audit",
        header=("case", "phased", "decomposition_residual", "trap_residual"),
        rows=tuple(rows),
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
    }
    report = ExperimentReport(
        config=config.to_jsonable(),
        results=results,
        provenance=provenance,
    )
    written = write_outputs(config.output_dir, tables, "report.json", report.to_jsonable())
    return replace(report, written=written)


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
    a filesystem failure is raised as ``ConfigError``.
    """
    outdir = Path(outdir)
    written = []
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for table in tables:
            path = outdir / f"{table.name}.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(render_csv(table))
            written.append(str(path))
        path = outdir / json_name
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(payload, indent=2) + "\n")
        written.append(str(path))
    except OSError as exc:
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


def render_csv(table: Table) -> str:
    """RFC-4180-style CSV: header row, CRLF line endings, '.' decimals."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(table.header)
    for row in table.rows:
        writer.writerow([format_cell(v) for v in row])
    return buf.getvalue()
