import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from statekit import cli
from statekit.cli import build_parser, main
from statekit.experiments import ENCODER_IDS, ENCODERS, LabeledDataset, encode_dataset
from statekit.qift import COUPLINGS

from conftest import count_calls


README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(cli.__file__).resolve().parent.parent

# Adding or removing a subcommand is an edit of this list, so every change to
# the CLI surface shows up in a test diff.
SUBCOMMANDS = ["encode", "interfere", "trotter-scan", "spectrum", "resonance", "run"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv_tables(text):
    """Split '# key: value' summary lines from CSV rows."""
    summary = {}
    csv_lines = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            summary[key] = value
        elif line.strip():
            csv_lines.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(csv_lines))))
    return summary, rows


class TestEncode:
    def test_amplitude_values(self, capsys):
        code, out, _ = run_cli(capsys, "encode", "--encoder", "amplitude", "--values", "3,4,0,0")
        assert code == 0
        summary, rows = parse_csv_tables(out)
        assert rows[0] == ["index", "real", "imag", "probability"]
        assert float(rows[1][1]) == pytest.approx(0.6)
        assert float(rows[2][1]) == pytest.approx(0.8)
        assert summary["positive_orthant"] == "True"

    def test_probability_loading_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "encode", "--encoder", "probability_loading",
            "--values", "1,-1,1,1", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["n_qubits"] == 2
        probs = [row[3] for row in doc["tables"]["state"]["rows"]]
        assert probs == pytest.approx([0.25] * 4)

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "vec.json"
        path.write_text("[1.0, 2.0, 3.0]")
        code, out, _ = run_cli(capsys, "encode", "--encoder", "amplitude", "--input", str(path))
        assert code == 0
        summary, rows = parse_csv_tables(out)
        assert summary["padded_from"] == "3"
        assert len(rows) == 5

    def test_qift_encoder(self, capsys):
        code, out, _ = run_cli(
            capsys, "encode", "--encoder", "qift", "--values", "0.5,-0.5",
            "--mu", "1.0", "--tau", "0.1",
        )
        assert code == 0
        summary, rows = parse_csv_tables(out)
        assert summary["positive_orthant"] == "False"
        total = sum(float(r[3]) for r in rows[1:])
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("encoder", ENCODER_IDS)
    @pytest.mark.parametrize("values", ["0.5,-1.25,2.0", "0.3,-0.7,1.1,0.25"])
    def test_matches_encode_dataset(self, capsys, encoder, values):
        code, out, _ = run_cli(
            capsys, "encode", "--encoder", encoder, "--values", values, "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)["tables"]["state"]["rows"]
        row = np.array([float(v) for v in values.split(",")])
        ds = LabeledDataset(vectors=row[None, :], labels=[1], seed=0)
        (state,) = encode_dataset(ds, encoder)
        # JSON floats are shortest round-trip reprs, so the bytes must survive
        cli_amps = np.array([complex(r[1], r[2]) for r in rows])
        assert cli_amps.tobytes() == state.amplitudes.tobytes()

    @pytest.mark.parametrize("encoder", ["probability_loading", "amplitude"])
    def test_zero_vector_fails_cleanly(self, capsys, encoder):
        code, out, err = run_cli(capsys, "encode", "--encoder", encoder, "--values", "0,0")
        assert (code, out, err) == (2, "", "error: data vector has zero norm\n")

    @pytest.mark.parametrize("encoder, second", [("probability_loading", 0.0), ("amplitude", 1e-200)])
    def test_squares_beyond_the_float_range_encode(self, capsys, encoder, second):
        # the row is scaled by a power of two before it is squared; loading's second probability,
        # 1e-400, rounds to 0
        code, out, err = run_cli(capsys, "encode", "--encoder", encoder, "--values", "1e200,1", "--format", "json")
        assert (code, err) == (0, "")
        assert [row[1:3] for row in json.loads(out)["tables"]["state"]["rows"]] == [[1.0, 0.0], [second, 0.0]]

    @pytest.mark.parametrize(
        "encoder, values, expected",
        [
            ("amplitude", "1e-161,3e-162", np.array([1.0, 0.3]) / np.sqrt(1.09)),
            ("probability_loading", "3e-162,7e-163,1e-162", np.array([3.0, 0.7, 1.0, 0.0]) / np.sqrt(10.49)),
            ("amplitude", "1e-200", [1.0, 0.0]),
            ("probability_loading", "1e-200", [1.0, 0.0]),
        ],
    )
    def test_squares_in_the_subnormal_range_encode(self, capsys, encoder, values, expected):
        code, out, err = run_cli(capsys, "encode", "--encoder", encoder, f"--values={values}", "--format", "json")
        assert (code, err) == (0, "")
        amps = np.array([complex(r[1], r[2]) for r in json.loads(out)["tables"]["state"]["rows"]])
        row = np.array([float(v) for v in values.split(",")])
        assert amps.tobytes() == ENCODERS[encoder](row[None], None).amplitudes.tobytes()
        assert amps.real == pytest.approx(expected, rel=1e-14) and not amps.imag.any()

    def test_qift_rotation_beyond_the_float_range_fails_cleanly(self, capsys):
        # tau/2 times a field overflows: refused before the rotation layer takes its cosine
        code, out, err = run_cli(capsys, "encode", "--encoder", "qift", "--values", "4,4", "--tau", "1e308")
        assert (code, out, err) == (2, "", "error: non-finite value in tau times the fields\n")

    @pytest.mark.parametrize("encoder", ["probability_loading", "amplitude", "phase"])
    def test_padded_from_records_the_input_length(self, capsys, encoder):
        code, out, _ = run_cli(capsys, "encode", "--encoder", encoder, "--values", "1,2,3")
        assert code == 0
        summary, rows = parse_csv_tables(out)
        assert summary["padded_from"] == "3"
        assert len(rows) == 5


class TestSubcommands:
    def test_parser_offers_exactly_the_pinned_subcommands(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == SUBCOMMANDS

    def test_the_parser_is_built_once_and_each_parse_starts_from_the_defaults(self):
        parser = build_parser()
        assert build_parser() is parser
        assert parser.parse_args(["run", "x.json", "--seed", "3"]).seed == 3
        assert parser.parse_args(["run", "y.json"]).seed is None
        assert parser.parse_args(["spectrum", "--x", "1", "--mu", "2", "--zeeman=0:0:1"]).mu == 2.0
        again = parser.parse_args(["spectrum", "--x", "1"])
        assert (again.mu, again.zeeman) == (None, None)  # a QIFT flag not given keeps QiftParams' default

    @pytest.mark.parametrize("command", ["trotter-scan", "spectrum", "resonance"])
    def test_topology_help_names_the_coupling_presets(self, command):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        (topology,) = [a for a in sub.choices[command]._actions if "--topology" in a.option_strings]
        assert topology.help == f"coupling preset: one of {', '.join(COUPLINGS)}"

    def test_readme_lists_the_pinned_subcommands(self):
        sentence = re.search(r"with subcommands (.*?)\.\s", README.read_text(encoding="utf-8"), re.DOTALL)
        assert re.findall(r"`([^`]+)`", sentence.group(1)) == SUBCOMMANDS

    def test_parity_exp_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["parity-exp", "--n-components", "4"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'parity-exp'" in capsys.readouterr().err


class TestFlagsASubcommandDoesNotRead:
    @pytest.mark.parametrize(
        "argv",
        [
            ["interfere", "--probs", "0.5,0.5", "--tol", "-7"],
            ["spectrum", "--x", "0.5", "--tol", "1e-3"],
            ["trotter-scan", "--n", "2", "--tol", "1e-3"],
            ["trotter-scan", "--n", "2", "--tau", "5"],
            ["spectrum", "--x", "0.5", "--tau", "0.2"],
            ["run", "cfg.json", "--format", "csv"],
            ["encode", "--encoder", "amplitude", "--values", "1,2", "--seed", "3"],
            ["spectrum", "--x", "0.5", "--seed", "3"],
            ["resonance", "--x-a", "1.0", "--x-b", "1.2", "--seed", "3"],
            ["resonance", "--x-a", "1.0", "--x-b", "1.2", "--tau", "0.2"],
        ],
    )
    def test_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["encode", "--encoder", "amplitude", "--values", "1,2", "--tol", "1e-3"],
            ["resonance", "--x-a", "1.0", "--x-b", "1.2", "--tol", "1e-3"],
            ["trotter-scan", "--n", "2", "--mu", "0.5", "--topology", "complete"],
            ["spectrum", "--x", "0.5,0.2", "--mu", "0.5"],
        ],
    )
    def test_flags_that_are_read_still_parse(self, capsys, argv):
        assert main(argv) == 0

    @pytest.mark.parametrize("encoder", ["probability_loading", "amplitude", "phase"])
    @pytest.mark.parametrize("flag, value", [("--mu", "5"), ("--tau", "9"), ("--topology", "nonsense")])
    def test_a_static_encoder_refuses_the_qift_flags(self, capsys, encoder, flag, value):
        code, out, err = run_cli(capsys, "encode", "--encoder", encoder, "--values", "1,2", flag, value)
        assert (code, out, err) == (2, "", f"error: {encoder} does not read {flag}\n")

    def test_qift_reads_its_flags_and_keeps_their_defaults(self, capsys):
        base = ["encode", "--encoder", "qift", "--values", "0.5,-0.5", "--format", "json"]
        _, default, _ = run_cli(capsys, *base)
        _, spelled_out, _ = run_cli(capsys, *base, "--mu", "1.0", "--tau", "0.1", "--topology", "ring")
        assert default == spelled_out
        assert run_cli(capsys, *base, "--topology", "complete", "--mu", "0.5", "--tau", "0.2")[0] == 0
        for argv in (
            ["trotter-scan", "--n", "3", "--seed", "2"],
            ["spectrum", "--x", "1.0,0.5,-0.3", "--zeeman=-0.1:0.1:3"],
            ["resonance", "--x-a", "1.0,0.2", "--x-b", "0.9,0.3"],
        ):
            assert run_cli(capsys, *argv)[1] == run_cli(capsys, *argv, "--mu", "1.0", "--topology", "ring")[1]


class TestInterfere:
    def test_hadamard_uniform(self, capsys):
        code, out, _ = run_cli(capsys, "interfere", "--probs", "0.5,0.5")
        assert code == 0
        summary, rows = parse_csv_tables(out)
        assert float(summary["max_residual"]) < 1e-12
        # outcome 0: classical 0.5, interference 0.5, total 1
        assert float(rows[1][1]) == pytest.approx(0.5)
        assert float(rows[1][2]) == pytest.approx(0.5)
        assert float(rows[1][3]) == pytest.approx(1.0)

    def test_phases_flip_outcome(self, capsys):
        code, out, _ = run_cli(capsys, "interfere", "--probs", "0.5,0.5", "--phases", "0,3.141592653589793")
        assert code == 0
        _, rows = parse_csv_tables(out)
        assert float(rows[1][3]) == pytest.approx(0.0, abs=1e-12)

    def test_seeded_haar_dirichlet(self, capsys):
        code1, out1, _ = run_cli(capsys, "interfere", "--dim", "8", "--unitary", "haar", "--seed", "4")
        code2, out2, _ = run_cli(capsys, "interfere", "--dim", "8", "--unitary", "haar", "--seed", "4")
        assert code1 == code2 == 0
        assert out1 == out2
        summary, _ = parse_csv_tables(out1)
        assert float(summary["max_residual"]) < 1e-10

    def test_single_outcome(self, capsys):
        code, out, _ = run_cli(capsys, "interfere", "--probs", "0.25,0.25,0.25,0.25", "--outcome", "2")
        assert code == 0
        _, rows = parse_csv_tables(out)
        assert len(rows) == 2

    def test_one_unitarity_check_for_all_outcomes(self, capsys, unitary_checks):
        code, _, _ = run_cli(capsys, "interfere", "--dim", "8", "--unitary", "haar")
        assert code == 0
        assert len(unitary_checks) == 1


class TestTrotterScan:
    def test_slope_near_three(self, capsys):
        code, out, _ = run_cli(capsys, "trotter-scan", "--n", "3", "--seed", "1")
        assert code == 0
        summary, rows = parse_csv_tables(out)
        assert 2.8 <= float(summary["fitted_slope"]) <= 3.2
        assert len(rows) == 14

    def test_commuting_note(self, capsys):
        code, out, _ = run_cli(capsys, "trotter-scan", "--n", "2", "--mu", "0.0", "--seed", "1")
        assert code == 0
        summary, _ = parse_csv_tables(out)
        assert summary["commuting"] == "True"
        assert summary["note"] == "commuting: no curvature"

    @pytest.mark.parametrize("topology", ["ring", "complete"])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_is_the_curvature_scan_experiment(self, capsys, tmp_path, n, topology):
        argv = ["trotter-scan", "--n", str(n), "--seed", "5", "--topology", topology, "--out", str(tmp_path / "scan")]
        assert run_cli(capsys, *argv)[0] == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "experiment": "curvature-scan", "n_features": n, "count": 1, "seed": 5,
            "qift": {"mu": 1.0, "tau": 0.1, "topology": topology}, "output_dir": str(tmp_path / "run"),
        }))
        code, out, _ = run_cli(capsys, "run", str(config))
        assert code == 0
        csv_bytes = [(tmp_path / d / "curvature_scan.csv").read_bytes() for d in ("scan", "run")]
        assert csv_bytes[0] == csv_bytes[1]
        summary = json.loads((tmp_path / "scan" / "summary.json").read_text(encoding="utf-8"))
        assert summary["fields"] == json.loads(out)["results"]["fields"]

    def test_the_fields_it_prints_rerun_its_scan(self, capsys, tmp_path):
        assert run_cli(capsys, "trotter-scan", "--n", "4", "--seed", "3", "--out", str(tmp_path / "drawn"))[0] == 0
        drawn = json.loads((tmp_path / "drawn" / "summary.json").read_text(encoding="utf-8"))["fields"]
        x = ",".join(repr(v) for v in drawn)  # the equals form: a field may start with a minus
        assert run_cli(capsys, "trotter-scan", "--n", "4", f"--x={x}", "--out", str(tmp_path / "given"))[0] == 0
        csv_bytes = [(tmp_path / d / "curvature_scan.csv").read_bytes() for d in ("drawn", "given")]
        assert csv_bytes[0] == csv_bytes[1]

    def test_explicit_fields_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "trotter-scan", "--n", "3", "--x", "1,2")
        assert code == 2
        assert "error:" in err

    def test_grid_of_a_subnormal_tau_scans(self, capsys):
        # max / min overflows here; the span is tested as log10(max) - log10(min)
        code, out, _ = run_cli(capsys, "trotter-scan", "--n", "2", "--tau-min", "1e-320", "--points", "5")
        assert code == 0
        assert len(parse_csv_tables(out)[1]) == 6  # header and 5 rows

    # a phase exponent that leaves the float range is refused where it is formed, before any warning
    @pytest.mark.parametrize(
        "argv, fault",
        [
            (["--tau-max", "1e308", "--tau-min", "1e-300", "--points", "5"], "t times the spectrum"),
            (["--x", "4,4", "--tau-max", "1e308", "--tau-min", "1e-300", "--points", "5"], "tau times the fields"),
            (["--mu", "1e300"], "the commutator [H_data, H_topo]"),
        ],
        ids=["tau-spectrum", "tau-fields", "mu-commutator"],
    )
    def test_phase_beyond_the_float_range_fails_cleanly(self, capsys, argv, fault):
        code, out, err = run_cli(capsys, "trotter-scan", "--n", "2", *argv)
        assert (code, out, err) == (2, "", f"error: non-finite value in {fault}\n")

    def test_coupling_near_the_square_root_of_the_float_range_scans(self, capsys):
        # H's entries near 1e154, whose squares overflow: its norms are taken on a scaled copy
        code, out, _ = run_cli(capsys, "trotter-scan", "--n", "2", "--mu", "9e153")
        assert code == 0
        assert len(parse_csv_tables(out)[1]) == 14


class TestSpectrum:
    # a product, a shifted diagonal, a spectrum or a gap beyond the float range is refused before any warning
    @pytest.mark.parametrize(
        "argv, fault",
        [
            (["--x", "1,1,1", "--mu", "1e308", "--topology", "complete"], "mu times the z-z diagonal"),
            (["--x", "1,1,1", "--zeeman=0:1e308:2"], "epsilon times sum_j Z_j"),
            (["--x", "1,1,1", "--mu", "5e307", "--zeeman=0:2e307:2"], "operator"),
            (["--x", "1e308,1e308"], "eigenpairs"),
            (["--x", "1.7e308"], "mass gap"),
        ],
        ids=["mu", "zeeman", "zeeman-diagonal", "spectrum", "gap"],
    )
    def test_coupling_beyond_the_float_range_fails_cleanly(self, capsys, argv, fault):
        code, out, err = run_cli(capsys, "spectrum", *argv)
        assert (code, out, err) == (2, "", f"error: non-finite value in {fault}\n")

    def test_coupling_near_the_square_root_of_the_float_range_runs(self, capsys):
        # H's entries near 1e154, whose squares overflow: its norms are taken on a scaled copy
        code, out, _ = run_cli(capsys, "spectrum", "--x", "1,1", "--mu", "9e153")
        assert code == 0
        assert np.isfinite(float(parse_csv_tables(out)[0]["mass_gap"]))

    # the lowest pair splits by 2 / mu; at mu = 1e12 that is far below eigh's noise, about 6e-4 there
    @pytest.mark.parametrize("mu, gap", [("1e12", 0.0), ("1e4", 2e-4)])
    def test_a_gap_below_the_rounding_floor_is_degenerate(self, capsys, mu, gap):
        code, out, _ = run_cli(capsys, "spectrum", "--x", "1,1", "--mu", mu)
        assert code == 0
        summary = parse_csv_tables(out)[0]
        assert float(summary["mass_gap"]) == pytest.approx(gap, rel=1e-6)
        assert summary["degenerate"] == str(gap == 0.0)

    def test_single_qubit_gap(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--x", "1")
        assert code == 0
        summary, rows = parse_csv_tables(out)
        assert float(summary["mass_gap"]) == pytest.approx(2.0, abs=1e-12)
        assert [r[0] for r in rows[1:]] == ["0", "1"]

    def test_zeeman_trace(self, capsys):
        # equals form keeps argparse from reading the leading minus as a flag
        code, out, _ = run_cli(capsys, "spectrum", "--x", "1,0.5", "--zeeman=-0.1:0.1:5")
        assert code == 0
        summary, rows = parse_csv_tables(out)
        assert "stability_score" in summary
        assert sum(r[0] == "epsilon" for r in rows) == 1

    def test_out_under_a_file_fails_cleanly(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run_cli(capsys, "spectrum", "--x", "1,0.2", "--out", str(blocker / "sub"))
        assert code == 2
        assert err.startswith("error: ")
        assert out == ""

    def test_zeeman_builds_and_decomposes_once(self, capsys, monkeypatch, eigh_calls):
        builds = count_calls(monkeypatch, "effective_hamiltonian", "qift")
        code, out, _ = run_cli(capsys, "spectrum", "--x", "1.0,0.5,-0.3", "--zeeman=0:0:1")
        assert code == 0
        summary, rows = parse_csv_tables(out)
        assert rows[-1][0] == "0" and float(rows[-1][1]) == float(summary["mass_gap"])
        assert (len(builds), len(eigh_calls)) == (1, 1)

    def test_zeeman_without_reference_fails(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--x", "1", "--zeeman", "0.1:0.2:3")
        assert code == 2
        assert "reference" in err


class TestResonance:
    def test_sign_flip_resonant(self, capsys):
        code, out, _ = run_cli(capsys, "resonance", "--x-a", "1", "--x-b", "-1")
        assert code == 0
        summary, _ = parse_csv_tables(out)
        assert summary["resonant"] == "True"

    def test_json_is_strict_for_mismatched_sizes(self, capsys):
        code, out, _ = run_cli(
            capsys, "resonance", "--x-a", "1,0.2", "--x-b", "0.9,0.3,0.1", "--format", "json"
        )
        assert code == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        doc = json.loads(out, parse_constant=reject)
        assert doc["summary"]["spectrum_distance"] is None

    def test_tolerance_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "resonance", "--x-a", "1.0", "--x-b", "1.001", "--tol", "1e-6"
        )
        assert code == 0
        summary, _ = parse_csv_tables(out)
        assert summary["resonant"] == "False"


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["encode", "--encoder", "amplitude", "--values", "3,4"],
        ["resonance", "--x-a", "0.1,0.2", "--x-b", "0.1,0.21"],
    ],
    ids=["encode", "resonance"],
)
def test_per_call_tolerance_is_finite_and_positive(capsys, argv, tol):
    code, out, err = run_cli(capsys, *argv, f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: tol") and err.count("\n") == 1


class Tripwire(Exception):
    """Raised by a stand-in for the dense work a subcommand starts after its cap."""


@pytest.fixture
def tripwire(monkeypatch):
    """Replace every builder the subcommands call with one that raises Tripwire,
    so that a command the qubit cap lets through never allocates its operators."""
    import statekit.cli as cli

    def trip(*args, **kwargs):
        raise Tripwire

    for name in (
        "as_rng", "Distribution", "haar_random_unitary", "_hadamard_layer",
        "_decomposition_blocks", "QiftParams",
        "_curvature", "_profile_and_zeeman", "resonance_similarity",
    ):
        monkeypatch.setattr(cli, name, trip)
    monkeypatch.setattr(cli, "ENCODERS", {enc: trip for enc in ENCODER_IDS})


def fields(n):
    return ",".join(["0.5"] * n)


# subcommand -> argv at n qubits
QUBIT_ARGV = {
    "trotter-scan": lambda n: ["trotter-scan", "--n", str(n)],
    "spectrum": lambda n: ["spectrum", "--x", fields(n)],
    "resonance --x-a": lambda n: ["resonance", "--x-a", fields(n), "--x-b", "0.5"],
    "resonance --x-b": lambda n: ["resonance", "--x-a", "0.5", "--x-b", fields(n)],
    "interfere --dim": lambda n: ["interfere", "--dim", str(1 << n)],
    "interfere --probs": lambda n: ["interfere", "--probs", ",".join([str(0.5**n)] * (1 << n))],
    "encode --encoder qift": lambda n: ["encode", "--encoder", "qift", "--values", fields(n)],
}


# argv the subcommands must reject with "error:" and exit 2 before building anything
BAD_SIZE_ARGV = {
    "interfere --dim -3": ["interfere", "--dim", "-3"],
    "trotter-scan --n -1": ["trotter-scan", "--n", "-1"],
    "trotter-scan --tau-min 0": ["trotter-scan", "--n", "2", "--tau-min", "0"],
    "trotter-scan --points -1": ["trotter-scan", "--n", "2", "--points", "-1"],
    "trotter-scan --tau-min inf": ["trotter-scan", "--n", "2", "--tau-min", "inf"],
    "spectrum --zeeman=-inf:0:3": ["spectrum", "--x", "1,0.5", "--zeeman=-inf:0:3"],
    "spectrum --zeeman=0:nan:3": ["spectrum", "--x", "1,0.5", "--zeeman=0:nan:3"],
    "spectrum --zeeman=-1e308:1e308:3": ["spectrum", "--x", "1,0.5", "--zeeman=-1e308:1e308:3"],
}


@pytest.mark.parametrize("case", sorted(BAD_SIZE_ARGV))
def test_bad_sizes_fail_before_allocation(capsys, tripwire, case):
    code, out, err = run_cli(capsys, *BAD_SIZE_ARGV[case])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1  # one line, no warning before it


class TestQubitCap:
    @pytest.mark.parametrize("case", sorted(QUBIT_ARGV))
    def test_rejected_above_cap_before_allocation(self, capsys, tripwire, case):
        code, out, err = run_cli(capsys, *QUBIT_ARGV[case](13))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "at most 12 qubits, got 13" in err

    @pytest.mark.parametrize("case", sorted(QUBIT_ARGV))
    def test_cap_admits_12_qubits(self, capsys, tripwire, case):
        with pytest.raises(Tripwire):
            run_cli(capsys, *QUBIT_ARGV[case](12))


class TestRun:
    def write_config(self, tmp_path, **overrides):
        cfg = {
            "experiment": "parity",
            "n_features": 4,
            "count": "all",
            "seed": 0,
            "encoders": ["probability_loading", "amplitude"],
            "output_dir": str(tmp_path / "run_out"),
        }
        cfg.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_run_parity(self, capsys, tmp_path):
        path = self.write_config(tmp_path)
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["per_encoder"]["amplitude"]["accuracy"] == 1.0
        assert (tmp_path / "run_out" / "parity_results.csv").exists()

    def test_run_byte_identical(self, capsys, tmp_path):
        path = self.write_config(tmp_path)
        run_cli(capsys, "run", str(path))
        first = (tmp_path / "run_out" / "parity_results.csv").read_bytes()
        run_cli(capsys, "run", str(path))
        second = (tmp_path / "run_out" / "parity_results.csv").read_bytes()
        assert first == second

    def test_seed_and_out_overrides(self, capsys, tmp_path):
        path = self.write_config(tmp_path, experiment="resonance", count=3, encoders=[])
        other = tmp_path / "override"
        code, out, _ = run_cli(capsys, "run", str(path), "--seed", "9", "--out", str(other))
        assert code == 0
        doc = json.loads(out)
        assert (other / "resonance_pairs.csv").exists()
        with open(other / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["provenance"]["seed"] == 9

    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--out", "elsewhere"], ["--tol", "0.1"]], ids=["seed", "out", "tol"])
    @pytest.mark.parametrize("document", ["[1, 2]", '"parity"', "7"], ids=["list", "string", "number"])
    def test_config_not_an_object_fails_cleanly(self, capsys, tmp_path, flag, document):
        path = tmp_path / "config.json"
        path.write_text(document)
        code, out, err = run_cli(capsys, "run", str(path), *flag)
        assert code == 2
        assert out == ""
        assert err == "error: config must be a JSON object\n"

    def test_failed_write_leaves_no_files(self, capsys, tmp_path):
        path = self.write_config(tmp_path)
        (tmp_path / "run_out" / "report.json").mkdir(parents=True)
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write into") and err.count("\n") == 1
        assert not (tmp_path / "run_out" / "parity_results.csv").exists()

    def test_unknown_key_fails(self, capsys, tmp_path):
        path = self.write_config(tmp_path, bogus=1)
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 2
        assert "unknown config keys" in err
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize(
        "topology", [[["a", "b"], ["c", "d"]], [[0.0, 1.0], [1.0]]], ids=["strings", "ragged"]
    )
    def test_malformed_topology_fails_cleanly(self, capsys, tmp_path, topology):
        path = self.write_config(tmp_path, n_features=2, encoders=["qift"], qift={"topology": topology})
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: topology must be an array of numbers safely castable to float64\n"
        assert not (tmp_path / "run_out").exists()

    def test_echoed_config_reruns_the_same_bytes(self, capsys, tmp_path):
        # report.json's config alone reproduces a run, its --tol included
        path = self.write_config(tmp_path, experiment="resonance", n_features=2, count=40, seed=3, encoders=[])
        assert run_cli(capsys, "run", str(path), "--tol", "0.05")[0] == 0
        out = tmp_path / "run_out"
        first = json.loads((out / "report.json").read_text())
        csv_bytes = (out / "resonance_pairs.csv").read_bytes()
        assert first["config"]["tolerance"] == first["results"]["tolerance"] == 0.05
        assert first["results"]["n_resonant"] > 1  # the default tolerance finds 1 of these pairs
        echoed = tmp_path / "echoed.json"
        echoed.write_text(json.dumps(first["config"]))
        assert run_cli(capsys, "run", str(echoed))[0] == 0
        second = json.loads((out / "report.json").read_text())
        assert (second["config"], second["results"]) == (first["config"], first["results"])
        assert (out / "resonance_pairs.csv").read_bytes() == csv_bytes

    def test_tol_replaces_the_configs_tolerance(self, capsys, tmp_path):
        path = self.write_config(tmp_path, experiment="resonance", n_features=2, count=3, encoders=[], tolerance=0.5)
        code, out, _ = run_cli(capsys, "run", str(path), "--tol", "0.25")
        assert code == 0
        assert json.loads(out)["results"]["tolerance"] == 0.25
        assert json.loads((tmp_path / "run_out" / "report.json").read_text())["config"]["tolerance"] == 0.25

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_resonance_tolerance_is_finite(self, capsys, tmp_path, tol):
        path = self.write_config(tmp_path, experiment="resonance", n_features=2, count=3, encoders=[])
        code, out, err = run_cli(capsys, "run", str(path), f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert err == f"error: tolerance must be finite and > 0, got {float(tol)}\n"
        assert not (tmp_path / "run_out").exists()

    # each input that its experiment does not read, and the error that names it
    @pytest.mark.parametrize(
        "overrides, flags, message",
        [
            ({"experiment": "curvature-scan", "count": 1, "encoders": ["amplitude"]}, [],
             "curvature-scan does not read encoders"),
            ({"experiment": "resonance", "count": 3, "encoders": ["amplitude"]}, [], "resonance does not read encoders"),
            ({"experiment": "interference-audit", "count": 1, "encoders": ["amplitude"]}, [],
             "interference-audit does not read encoders"),
            ({"experiment": "interference-audit", "count": 1, "encoders": [], "qift": {"mu": 5, "topology": "complete"}},
             [], "interference-audit does not read qift"),
            ({"qift": {"mu": 5}}, [], "parity reads qift only with the qift encoder"),
            ({"experiment": "curvature-scan", "count": 2, "encoders": []}, [], "curvature-scan requires count 1, got 2"),
            ({}, ["--tol", "1e-3"], "parity does not read tolerance"),
            ({"experiment": "curvature-scan", "count": 1, "encoders": []}, ["--tol", "-1"],
             "curvature-scan does not read tolerance"),
            ({"experiment": "interference-audit", "count": 1, "encoders": []}, ["--tol", "1e-3"],
             "interference-audit does not read tolerance"),
        ],
        ids=["curvature-encoders", "resonance-encoders", "audit-encoders", "audit-qift", "parity-qift",
             "curvature-count", "parity-tol", "curvature-tol", "audit-tol"],
    )
    def test_unread_input_fails_cleanly(self, capsys, tmp_path, overrides, flags, message):
        path = self.write_config(tmp_path, n_features=2, **overrides)
        code, out, err = run_cli(capsys, "run", str(path), *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "run_out").exists()

    def test_invalid_json_fails(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 2
        assert "not valid JSON" in err

    def test_missing_file_fails(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", str(tmp_path / "nope.json"))
        assert code == 2


def cli_argv(*args):
    """argv and environment that run the CLI of this checkout in a child process."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    return [sys.executable, "-m", "statekit.cli", *args], env


def test_a_reader_that_leaves_early_gets_no_traceback():
    # more output than the 64 KiB pipe buffer, so the write after the reader leaves must fail
    argv, env = cli_argv("spectrum", "--x", "1,1", "--zeeman=0:1:20000")
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"# n: 2\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (1, b"")


def test_an_overflowing_probability_sum_is_refused_with_no_warning():
    # a child process keeps NumPy's default warning filter, which prints to stderr
    argv, env = cli_argv("interfere", "--probs", "1e308,1e308")
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", b"error: probabilities sum to inf, not 1\n")


@pytest.mark.parametrize(
    "probs, message",
    [("-0.5,1.5", "negative entry -0.5 in distribution"), ("0.5,0.6", "probabilities sum to 1.1, not 1")],
)
def test_a_bad_distribution_is_named_with_plain_numbers(capsys, probs, message):
    assert run_cli(capsys, "interfere", f"--probs={probs}") == (2, "", f"error: {message}\n")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "statekit" in capsys.readouterr().out


# the parse errors of the CLI's own intake: one error line, exit 2, nothing built
@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectrum", "--x", "1,a"], "cannot parse --x: could not convert string to float: 'a'"),
        (["spectrum", "--x", ", ,"], "--x must contain at least one number"),
        (["spectrum", "--x", "1", "--zeeman", "0:1"], "--zeeman must look like start:stop:points"),
        (["spectrum", "--x", "1", "--zeeman", "0:1:x"], "cannot parse --zeeman: invalid literal for int() with base 10: 'x'"),
        (["spectrum", "--x", "1", "--zeeman", "0:1:0"], "--zeeman needs at least one point"),
        (["encode", "--encoder", "amplitude", "--input", "missing.json"], "cannot read input vector: "),
        (["encode", "--encoder", "amplitude", "--input", "bad.json"], "cannot read input vector: "),
    ],
    ids=["floats-text", "floats-empty", "grid-parts", "grid-points-text", "grid-no-point", "input-missing",
         "input-not-json"],
)
def test_parse_error_fails_cleanly(capsys, tmp_path, monkeypatch, tripwire, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text("[1, 2")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
