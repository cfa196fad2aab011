"""Command-line interface.

Subcommands: encode, interfere, trotter-scan, spectrum, resonance,
parity-exp, and run (config-driven). Results print to stdout as CSV or
JSON; with ``--out DIR`` they are also written as files (CSV tables plus a
summary/report JSON).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from ._version import __version__
from .encoders import ENCODER_IDS, ENCODERS, in_positive_orthant
from .errors import ConfigError, StatekitError
from .experiments import (
    ExperimentConfig,
    Table,
    compute_experiment,
    dumps,
    render_csv,
    run_experiment,
    _curvature_results,
    _require_qubits,
    write_outputs,
)
from .interference import interference_decompositions
from .qift import QiftParams, information_curvature
from .spectral import resonance_similarity, spectral_profile, zeeman_sweep
from .statevec import DenseOperator, Distribution, as_rng, haar_random_unitary
from .tolerances import TOLS


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
    return np.linspace(start, stop, points)


def _count_arg(text: str):
    if text == "all":
        return "all"
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("count must be an integer or 'all'") from exc


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
        sys.stdout.write(render_csv(table))


def _seed(args) -> int:
    return 0 if args.seed is None else args.seed


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_encode(args) -> int:
    if args.values is not None:
        row = _parse_floats(args.values, "--values")
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                row = np.asarray(json.load(fh), dtype=np.float64).ravel()
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read input vector: {exc}") from exc
    params = None
    if args.encoder == "qift":
        _require_qubits(row.size, "the qift encoder")
        params = QiftParams(mu=args.mu, tau=args.tau, topology=args.topology)
    state = ENCODERS[args.encoder](row[None], params)[0]
    amps = state.amplitudes
    rows = [
        (i, amps[i].real, amps[i].imag, float(np.abs(amps[i]) ** 2))
        for i in range(state.dim)
    ]
    tol = args.tol if args.tol is not None else TOLS.positive_orthant
    summary = {
        "encoder": args.encoder,
        "n_qubits": state.n_qubits,
        "padded_from": state.padded_from,
        "positive_orthant": in_positive_orthant(state, tol),
    }
    _emit(args, summary, [Table("state", ("index", "real", "imag", "probability"), tuple(rows))])
    return 0


def _cmd_interfere(args) -> int:
    probs = _parse_floats(args.probs, "--probs") if args.probs is not None else None
    size = args.dim if probs is None else probs.size
    if size < 1:
        raise ConfigError(f"--dim must be >= 1, got {size}")
    _require_qubits((size - 1).bit_length(), "interfere")  # qubits of the padded register
    rng = as_rng(_seed(args))
    if probs is not None:
        dist = Distribution(probs)
    else:
        dist = Distribution(rng.dirichlet(np.ones(args.dim)))
    dim = dist.dim
    if args.unitary == "hadamard":
        u = DenseOperator(_hadamard_layer(dim))
    else:
        u = haar_random_unitary(dim, rng)
    phases = _parse_floats(args.phases, "--phases") if args.phases else None
    outcomes = range(dim) if args.outcome is None else [args.outcome]
    rows = [
        (r.outcome, r.classical_term, r.interference_term, r.total, r.born_probability, r.residual)
        for r in interference_decompositions(u, dist, phases, outcomes)
    ]
    summary = {
        "unitary": args.unitary,
        "dim": dim,
        "phase_locked": phases is None,
        "max_residual": max(r[5] for r in rows),
    }
    table = Table(
        "interference",
        ("outcome", "classical", "interference", "total", "born", "residual"),
        tuple(rows),
    )
    _emit(args, summary, [table])
    return 0


def _cmd_trotter_scan(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    if not (args.tau_min > 0 and args.tau_max > 0) or args.points < 0:
        raise ConfigError("--tau-min and --tau-max must be > 0 and --points must be >= 0")
    _require_qubits(args.n, "trotter-scan")
    if args.x is not None:
        x = _parse_floats(args.x, "--x")
        if x.size != args.n:
            raise ConfigError(f"--x has {x.size} entries but --n is {args.n}")
    else:
        x = as_rng(_seed(args)).uniform(-math.pi, math.pi, args.n)
    spec = QiftParams(mu=args.mu, tau=args.tau_max, topology=args.topology).spec(x)
    taus = np.geomspace(args.tau_max, args.tau_min, args.points)
    results, tables = _curvature_results(information_curvature(spec, taus))
    summary = {"n": args.n, "topology": args.topology, "mu": args.mu, **results}
    if results["commuting"]:
        summary["note"] = "commuting: no curvature"
    _emit(args, summary, tables)
    return 0


def _cmd_spectrum(args) -> int:
    x = _parse_floats(args.x, "--x")
    _require_qubits(x.size, "spectrum")
    spec = QiftParams(mu=args.mu, topology=args.topology).spec(x)
    profile = spectral_profile(spec)
    tables = [
        Table(
            "spectrum",
            ("index", "eigenvalue"),
            tuple(enumerate(profile.eigenvalues.tolist())),
        )
    ]
    summary = {
        "n": x.size,
        "mass_gap": profile.mass_gap,
        "degenerate": profile.degenerate,
    }
    if args.zeeman:
        trace = zeeman_sweep(spec, _parse_grid(args.zeeman, "--zeeman"))
        summary["stability_score"] = trace.stability_score
        tables.append(
            Table(
                "zeeman_trace",
                ("epsilon", "gap"),
                tuple(zip(trace.epsilons.tolist(), trace.gaps.tolist())),
            )
        )
    _emit(args, summary, tables)
    return 0


def _cmd_resonance(args) -> int:
    xa = _parse_floats(args.x_a, "--x-a")
    xb = _parse_floats(args.x_b, "--x-b")
    _require_qubits(max(xa.size, xb.size), "resonance")
    params = QiftParams(mu=args.mu, tau=args.tau, topology=args.topology)
    spec_a, spec_b = params.spec(xa), params.spec(xb)
    tol = args.tol if args.tol is not None else TOLS.resonance
    summary = asdict(resonance_similarity(spec_a, spec_b, tol))
    # the table row holds every verdict field but spectrum_distance
    table = Table("resonance", tuple(summary)[:5], (tuple(summary.values())[:5],))
    _emit(args, summary, [table])
    return 0


def _build_parity_config(args, output_dir: str) -> ExperimentConfig:
    raw = {
        "experiment": "parity",
        "n_features": args.n_components,
        "count": args.count,
        "seed": _seed(args),
        "encoders": [e.strip() for e in args.encoders.split(",") if e.strip()],
        "output_dir": output_dir,
    }
    if "qift" in raw["encoders"]:
        raw["qift"] = {"mu": args.mu, "tau": args.tau, "topology": args.topology}
    return ExperimentConfig.from_dict(raw)


def _cmd_parity_exp(args) -> int:
    config = _build_parity_config(args, args.out or ".")
    if args.out:
        report = run_experiment(config)
        for path in report.written:
            print(path)
        return 0
    results, tables = compute_experiment(config)
    _emit(args, {"experiment": "parity", **results}, tables)
    return 0


def _cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.out is not None:
        raw["output_dir"] = args.out
    config = ExperimentConfig.from_dict(raw)
    report = run_experiment(config, resonance_tolerance=args.tol)
    print(dumps({"results": report.results, "written": list(report.written)}, indent=2))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    common.add_argument("--out", type=str, default=None, help="directory to write CSV/JSON files")
    common.add_argument("--format", choices=("csv", "json"), default="csv", help="stdout format")

    # a subcommand takes only the options it reads: the spectrum and the
    # Trotter scan do not depend on one step --tau
    coupling_opts = argparse.ArgumentParser(add_help=False)
    coupling_opts.add_argument("--mu", type=float, default=1.0, help="global coupling strength")
    coupling_opts.add_argument("--topology", default="ring", help="coupling preset: ring or complete")
    step_opts = argparse.ArgumentParser(add_help=False, parents=[coupling_opts])
    step_opts.add_argument("--tau", type=float, default=0.1, help="Trotter step")

    parser = argparse.ArgumentParser(
        prog="statekit",
        description="Desk-scale quantum state-vector toolkit",
    )
    parser.add_argument("--version", action="version", version=f"statekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", parents=[common, step_opts], help="encode a feature vector")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--values", help="comma-separated feature values")
    group.add_argument("--input", help="JSON file containing a feature array")
    p.add_argument("--encoder", choices=ENCODER_IDS, required=True)
    p.add_argument("--tol", type=float, default=None, help="positive-orthant tolerance")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("interfere", parents=[common], help="Born-probability decomposition")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--probs", help="comma-separated probabilities")
    group.add_argument("--dim", type=int, help="draw a seeded Dirichlet distribution of this size")
    p.add_argument("--unitary", choices=("hadamard", "haar"), default="hadamard")
    p.add_argument("--phases", help="comma-separated phases (radians); absent = phase-locked")
    p.add_argument("--outcome", type=int, default=None, help="single outcome (default: all)")
    p.set_defaults(func=_cmd_interfere)

    p = sub.add_parser("trotter-scan", parents=[common, coupling_opts], help="Trotter error scaling scan")
    p.add_argument("--n", type=int, required=True, help="number of qubits")
    p.add_argument("--x", help="comma-separated field strengths (default: seeded uniform)")
    p.add_argument("--tau-min", type=float, default=1e-3)
    p.add_argument("--tau-max", type=float, default=1e-1)
    p.add_argument("--points", type=int, default=13)
    p.set_defaults(func=_cmd_trotter_scan)

    p = sub.add_parser("spectrum", parents=[common, coupling_opts], help="spectrum and mass gap")
    p.add_argument("--x", required=True, help="comma-separated field strengths")
    p.add_argument("--zeeman", help="perturbation grid start:stop:points (must include 0)")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("resonance", parents=[common, step_opts], help="gap-coincidence verdict")
    p.add_argument("--x-a", required=True, help="fields of the first spec")
    p.add_argument("--x-b", required=True, help="fields of the second spec")
    p.add_argument("--tol", type=float, default=None, help="gap-coincidence tolerance")
    p.set_defaults(func=_cmd_resonance)

    p = sub.add_parser("parity-exp", parents=[common, step_opts], help="parity separability contrast")
    p.add_argument("--n-components", type=int, default=4)
    p.add_argument("--count", type=_count_arg, default="all")
    p.add_argument("--encoders", default="probability_loading,amplitude")
    p.set_defaults(func=_cmd_parity_exp)

    p = sub.add_parser("run", parents=[common], help="run an experiment from a JSON config")
    p.add_argument("config", help="path to the config JSON file")
    p.add_argument("--tol", type=float, default=None, help="resonance gap-coincidence tolerance")
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StatekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
