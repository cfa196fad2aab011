"""Command-line interface.

Subcommands: encode, interfere, trotter-scan, spectrum, resonance, and
run, which runs any of the experiments from a JSON config. Results print
to stdout as CSV or JSON; with ``--out DIR`` they are also written as
files (CSV tables plus a summary/report JSON).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from ._version import __version__
from .encoders import ENCODER_IDS, ENCODERS, in_positive_orthant
from .errors import ConfigError, StatekitError
from .experiments import (
    ExperimentConfig,
    Table,
    dumps,
    run_experiment,
    _curvature,
    _require_qubits,
    write_csv,
    write_outputs,
)
from .interference import _decomposition_blocks
from .qift import COUPLINGS, DEFAULT_TAU_GRID, QiftParams
from .spectral import _profile_and_zeeman, resonance_similarity
from .statevec import DenseOperator, Distribution, _as_array, _as_int, _as_real, _freeze, as_rng, haar_random_unitary
from .tolerances import TOLS

QIFT_FLAGS = ("mu", "tau", "topology")  # the QiftParams fields a subcommand may take as flags


def _parse_floats(text: str, name: str) -> np.ndarray:
    try:
        values = np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError as exc:
        raise ConfigError(f"cannot parse {name}: {exc}") from exc
    if values.size == 0:
        raise ConfigError(f"{name} must contain at least one number")
    return values


def _parse_grid(text: str, name: str) -> np.ndarray:
    """Parse 'start:stop:points' into a linear grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{name} must look like start:stop:points")
    try:
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"cannot parse {name}: {exc}") from exc
    if points < 1:
        raise ConfigError(f"{name} needs at least one point")
    _as_real(stop - start, name, ConfigError, f"{name} or its span")  # NaN, an infinite end or overflow
    return np.linspace(start, stop, points)


def _qift_params(args) -> QiftParams:
    """``QiftParams`` of the QIFT flags given; one not given (None), or not taken, keeps ``QiftParams``' default."""
    return QiftParams(**{key: value for key in QIFT_FLAGS if (value := getattr(args, key, None)) is not None})


def _hadamard_layer(dim: int) -> np.ndarray:
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    u = np.ones((1, 1))
    while u.shape[0] < dim:
        u = np.kron(u, h)
    return u.astype(np.complex128)


def _emit(args, summary: dict, tables: list[Table]) -> None:
    if args.out:
        for path in write_outputs(args.out, tables, "summary.json", summary):
            print(path)
        return
    if args.format == "json":
        payload = {
            "summary": summary,
            "tables": {t.name: {"header": list(t.header), "rows": [list(r) for r in t.rows]} for t in tables},
        }
        print(dumps(payload, indent=2))
        return
    for key, value in summary.items():
        if isinstance(value, (dict, list)):
            value = dumps(value)
        print(f"# {key}: {value}")
    for table in tables:
        write_csv(sys.stdout, table)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_encode(args) -> int:
    if args.values is not None:
        row = _parse_floats(args.values, "--values")
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read input vector: {exc}") from exc
        row = _as_array(raw, "input vector", np.float64, ConfigError, flat=True)
    given = next((key for key in QIFT_FLAGS if getattr(args, key) is not None), None)
    params = None
    if args.encoder == "qift":
        _require_qubits(row.size, "the qift encoder")
        params = _qift_params(args)
    elif given:
        raise ConfigError(f"{args.encoder} does not read --{given}")
    state = ENCODERS[args.encoder](row[None], params)[0]
    amps = state.amplitudes
    # float_power is libm pow, as a scalar ** 2 is; a vector square moves about one value in 1,300
    columns = (np.arange(state.dim), amps.real, amps.imag, np.float_power(np.abs(amps), 2))
    tol = args.tol if args.tol is not None else TOLS.positive_orthant
    summary = {
        "encoder": args.encoder,
        "n_qubits": state.n_qubits,
        "padded_from": state.padded_from,
        "positive_orthant": in_positive_orthant(state, tol),
    }
    _emit(args, summary, [Table("state", ("index", "real", "imag", "probability"), columns)])
    return 0


def _cmd_interfere(args) -> int:
    probs = _parse_floats(args.probs, "--probs") if args.probs is not None else None
    size = _as_int(args.dim if probs is None else probs.size, "--dim", 1, ConfigError)
    _require_qubits((size - 1).bit_length(), "interfere")  # qubits of the padded register
    rng = as_rng(args.seed)
    if probs is not None:
        dist = Distribution(_freeze(probs))
    else:
        dist = Distribution(_freeze(rng.dirichlet(np.ones(args.dim))))
    dim = dist.dim
    if args.unitary == "hadamard":
        u = DenseOperator(_freeze(_hadamard_layer(dim)))
    else:
        u = haar_random_unitary(dim, rng)
    phases = _parse_floats(args.phases, "--phases") if args.phases else None
    outcomes = range(dim) if args.outcome is None else [args.outcome]
    # outcome, classical, interference, total and born, each joined across the blocks; the rows t are not (N x N)
    columns = [np.concatenate(c) for c in zip(*(b[:5] for b in _decomposition_blocks(u, dist, phases, outcomes)))]
    residual = np.abs(columns[3] - columns[4])
    summary = {
        "unitary": args.unitary,
        "dim": dim,
        "phase_locked": phases is None,
        "max_residual": float(residual.max()),
    }
    table = Table(
        "interference",
        ("outcome", "classical", "interference", "total", "born", "residual"),
        (*columns, residual),
    )
    _emit(args, summary, [table])
    return 0


def _cmd_trotter_scan(args) -> int:
    _as_int(args.n, "--n", 1, ConfigError)
    _as_real(args.tau_min, "--tau-min", ConfigError, positive=True)
    _as_real(args.tau_max, "--tau-max", ConfigError, positive=True)
    _as_int(args.points, "--points", 0, ConfigError)
    _require_qubits(args.n, "trotter-scan")
    x = None if args.x is None else _parse_floats(args.x, "--x")
    if x is not None and x.size != args.n:
        raise ConfigError(f"--x has {x.size} entries but --n is {args.n}")
    params = _qift_params(args)
    results, tables = _curvature(params, args.n, args.seed, x, np.geomspace(args.tau_max, args.tau_min, args.points))
    summary = {"n": args.n, "topology": params.topology, "mu": params.mu, **results}
    if results["commuting"]:
        summary["note"] = "commuting: no curvature"
    _emit(args, summary, tables)
    return 0


def _cmd_spectrum(args) -> int:
    x = _parse_floats(args.x, "--x")
    _require_qubits(x.size, "spectrum")
    # argv is checked before any build; without --zeeman the grid is the reference 0 alone, which reuses the profile
    grid = _parse_grid(args.zeeman, "--zeeman") if args.zeeman else [0.0]
    profile, gaps, stability_score = _profile_and_zeeman(_qift_params(args).spec(x), grid)
    tables = [
        Table(
            "spectrum",
            ("index", "eigenvalue"),
            (np.arange(profile.eigenvalues.size), profile.eigenvalues),
        )
    ]
    summary = {
        "n": x.size,
        "mass_gap": profile.mass_gap,
        "degenerate": profile.degenerate,
    }
    if args.zeeman:
        summary["stability_score"] = stability_score
        tables.append(
            Table(
                "zeeman_trace",
                ("epsilon", "gap"),
                (grid, gaps),
            )
        )
    _emit(args, summary, tables)
    return 0


def _cmd_resonance(args) -> int:
    xa = _parse_floats(args.x_a, "--x-a")
    xb = _parse_floats(args.x_b, "--x-b")
    _require_qubits(max(xa.size, xb.size), "resonance")
    params = _qift_params(args)
    spec_a, spec_b = params.spec(xa), params.spec(xb)
    tol = args.tol if args.tol is not None else TOLS.resonance
    summary = asdict(resonance_similarity(spec_a, spec_b, tol))
    # the table row holds every verdict field but spectrum_distance
    table = Table("resonance", tuple(summary)[:5], tuple((v,) for v in tuple(summary.values())[:5]))
    _emit(args, summary, [table])
    return 0


def _cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    for key, flag in (("seed", args.seed), ("output_dir", args.out), ("tolerance", args.tol)):
        if flag is not None and isinstance(raw, dict):  # from_dict reports any other JSON value
            raw[key] = flag
    report = run_experiment(ExperimentConfig.from_dict(raw))
    print(dumps({"results": report.results, "written": list(report.written)}, indent=2))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache  # one parser serves every call; each parse_args starts a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    # a subcommand takes only the options it reads: run always prints one JSON document (no
    # --format), only interfere and trotter-scan draw from --seed, and only encode takes one step --tau
    out_opts = argparse.ArgumentParser(add_help=False)
    out_opts.add_argument("--out", type=str, default=None, help="directory to write CSV/JSON files")
    common = argparse.ArgumentParser(add_help=False, parents=[out_opts])
    common.add_argument("--format", choices=("csv", "json"), default="csv", help="stdout format")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0, help="RNG seed")

    # None marks a QIFT flag not given, and QiftParams holds the defaults (see _qift_params)
    coupling_opts = argparse.ArgumentParser(add_help=False)
    coupling_opts.add_argument("--mu", type=float, default=None, help="global coupling strength")
    coupling_opts.add_argument("--topology", default=None, help=f"coupling preset: one of {', '.join(COUPLINGS)}")

    parser = argparse.ArgumentParser(
        prog="statekit",
        description="Desk-scale quantum state-vector toolkit",
    )
    parser.add_argument("--version", action="version", version=f"statekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", parents=[common, coupling_opts], help="encode a feature vector")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--values", help="comma-separated feature values")
    group.add_argument("--input", help="JSON file containing a feature array")
    p.add_argument("--encoder", choices=ENCODER_IDS, required=True)
    p.add_argument("--tau", type=float, default=None, help="Trotter step (qift only, as --mu and --topology)")
    p.add_argument("--tol", type=float, default=None, help="positive-orthant tolerance")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("interfere", parents=[seeded], help="Born-probability decomposition")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--probs", help="comma-separated probabilities")
    group.add_argument("--dim", type=int, help="draw a seeded Dirichlet distribution of this size")
    p.add_argument("--unitary", choices=("hadamard", "haar"), default="hadamard")
    p.add_argument("--phases", help="comma-separated phases (radians); absent = phase-locked")
    p.add_argument("--outcome", type=int, default=None, help="single outcome (default: all)")
    p.set_defaults(func=_cmd_interfere)

    p = sub.add_parser("trotter-scan", parents=[seeded, coupling_opts], help="Trotter error scaling scan")
    p.add_argument("--n", type=int, required=True, help="number of qubits")
    p.add_argument("--x", help="comma-separated field strengths (default: seeded uniform)")
    p.add_argument("--tau-min", type=float, default=float(DEFAULT_TAU_GRID[-1]))
    p.add_argument("--tau-max", type=float, default=float(DEFAULT_TAU_GRID[0]))
    p.add_argument("--points", type=int, default=len(DEFAULT_TAU_GRID))
    p.set_defaults(func=_cmd_trotter_scan)

    p = sub.add_parser("spectrum", parents=[common, coupling_opts], help="spectrum and mass gap")
    p.add_argument("--x", required=True, help="comma-separated field strengths")
    p.add_argument("--zeeman", help="perturbation grid start:stop:points (must include 0)")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("resonance", parents=[common, coupling_opts], help="gap-coincidence verdict")
    p.add_argument("--x-a", required=True, help="fields of the first spec")
    p.add_argument("--x-b", required=True, help="fields of the second spec")
    p.add_argument("--tol", type=float, default=None, help="gap-coincidence tolerance")
    p.set_defaults(func=_cmd_resonance)

    p = sub.add_parser("run", parents=[out_opts], help="run an experiment from a JSON config")
    p.add_argument("config", help="path to the config JSON file")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: the config's)")
    p.add_argument("--tol", type=float, default=None, help="resonance gap tolerance (default: the config's)")
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader raises here, inside the try, not at interpreter exit
        return code
    except StatekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left early (`| head`): the rest of the output goes to devnull, so the
        # interpreter's last flush cannot raise; exit 1 as Python does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
