"""The golden cases: small `statekit run` configs and subcommand calls whose
output bytes tests/test_golden.py holds.

    python tests/golden/make_goldens.py            # regenerate tests/golden/
    python tests/golden/make_goldens.py --out DIR  # write the outputs into DIR

The cases run in this process, which pins the BLAS to one thread before numpy
loads. Each config writes ``<case>/<table>.csv``, each subcommand call writes
``<case>.txt`` with its stdout, and ``fingerprint.json`` records the
``provenance.numerics`` of the run. trotter-scan has no case: its CSV is the
curvature cases' through the one runner they share, and its fitted slope moves
between BLAS settings by more than the text tolerance. A change that moves a number on purpose
regenerates the goldens with this script and says so in CHANGES.md.
"""
import os

for _pin in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_pin] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

from statekit import cli  # noqa: E402
from statekit.experiments import ExperimentConfig, run_experiment  # noqa: E402

QIFT = {"mu": 1.0, "tau": 0.1, "topology": "ring"}
ENCODERS = ["probability_loading", "amplitude", "phase", "qift"]
EXPERIMENTS = {
    "parity": {"experiment": "parity", "n_features": 8, "count": 64, "encoders": ENCODERS, "qift": QIFT},
    "curvature": {"experiment": "curvature-scan", "n_features": 4, "count": 1, "qift": QIFT},
    "resonance": {"experiment": "resonance", "n_features": 4, "count": 3, "qift": QIFT},
    "audit": {"experiment": "interference-audit", "n_features": 7, "count": 2},
}
SEEDS = (7, 1234)
# case -> config without output_dir
CONFIGS = {f"{name}_s{seed}": dict(base, seed=seed) for name, base in EXPERIMENTS.items() for seed in SEEDS}
# case -> `statekit` argv; every number printed is O(1), inside test_golden's text tolerance
COMMANDS = {
    "interfere_hadamard_phased": ["interfere", "--probs", "0.5,0.5", "--phases", "0,3.14159"],
    "interfere_hadamard_dim2": ["interfere", "--dim", "2"],
    "interfere_haar_dim8": ["interfere", "--dim", "8", "--unitary", "haar", "--seed", "3"],
    "interfere_haar_dim16_json": ["interfere", "--dim", "16", "--unitary", "haar", "--seed", "7", "--format", "json"],
    "interfere_haar_dim64_outcome5": [
        "interfere", "--dim", "64", "--unitary", "haar", "--seed", "1234", "--outcome", "5",
    ],
    "interfere_haar_phased": [
        "interfere", "--probs", "0.1,0.2,0.3,0.4", "--unitary", "haar", "--seed", "99", "--phases", "0,1,2,3",
    ],
    "spectrum_ring": ["spectrum", "--x", "1.0,0.5,-0.3"],
    "spectrum_zeeman": ["spectrum", "--x", "1.0,0.5,-0.3", "--zeeman=-0.1:0.1:11"],
    "spectrum_complete_mu05": ["spectrum", "--x", "0.5,0.2", "--mu", "0.5", "--topology", "complete"],
    "resonance": ["resonance", "--x-a", "1.0,0.2", "--x-b", "0.9,0.3"],
    "encode_qift_json": ["encode", "--encoder", "qift", "--values", "0.5,-0.5,1,2", "--format", "json"],
}


def write_cases(out: Path) -> None:
    """Run every case and write its outputs and the fingerprint into ``out``."""
    numerics = None
    for case, raw in CONFIGS.items():
        shutil.rmtree(out / case, ignore_errors=True)
        report = run_experiment(ExperimentConfig.from_dict(dict(raw, output_dir=str(out / case))))
        (out / case / "report.json").unlink()  # it holds a timestamp
        numerics = report.provenance["numerics"]
    for case, argv in COMMANDS.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            if cli.main(argv) != 0:
                raise SystemExit(f"statekit {' '.join(argv)} failed")
        (out / f"{case}.txt").write_text(stdout.getvalue(), encoding="utf-8")
    (out / "fingerprint.json").write_text(json.dumps(numerics, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=HERE, help="output directory (default: tests/golden)")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    write_cases(args.out)
