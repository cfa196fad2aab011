import csv
import io
import json

import numpy as np
import pytest

from statekit.cli import main
from statekit.experiments import ENCODER_IDS, LabeledDataset, encode_dataset


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

    def test_zero_vector_fails_cleanly(self, capsys):
        code, _, err = run_cli(capsys, "encode", "--encoder", "amplitude", "--values", "0,0")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("encoder", ["probability_loading", "amplitude", "phase"])
    def test_padded_from_records_the_input_length(self, capsys, encoder):
        code, out, _ = run_cli(capsys, "encode", "--encoder", encoder, "--values", "1,2,3")
        assert code == 0
        summary, rows = parse_csv_tables(out)
        assert summary["padded_from"] == "3"
        assert len(rows) == 5


class TestFlagsASubcommandDoesNotRead:
    @pytest.mark.parametrize(
        "argv",
        [
            ["interfere", "--probs", "0.5,0.5", "--tol", "-7"],
            ["spectrum", "--x", "0.5", "--tol", "1e-3"],
            ["trotter-scan", "--n", "2", "--tol", "1e-3"],
            ["parity-exp", "--n-components", "2", "--tol", "1e-3"],
            ["trotter-scan", "--n", "2", "--tau", "5"],
            ["spectrum", "--x", "0.5", "--tau", "0.2"],
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

    def test_explicit_fields_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "trotter-scan", "--n", "3", "--x", "1,2")
        assert code == 2
        assert "error:" in err


class TestSpectrum:
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


class TestParityExp:
    def test_stdout_contrast(self, capsys):
        code, out, _ = run_cli(capsys, "parity-exp")
        assert code == 0
        _, rows = parse_csv_tables(out)
        table = {r[0]: (float(r[1]), float(r[2])) for r in rows[1:]}
        assert table["probability_loading"] == (0.5, 0.0)
        assert table["amplitude"][0] == 1.0

    def test_out_writes_files(self, capsys, tmp_path):
        out_dir = tmp_path / "exp"
        code, out, _ = run_cli(capsys, "parity-exp", "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "parity_results.csv").exists()
        assert (out_dir / "report.json").exists()
        assert str(out_dir / "report.json") in out

    def test_oversized_components_fail_cleanly(self, capsys):
        code, out, err = run_cli(capsys, "parity-exp", "--n-components", "64", "--count", "4")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "32 components" in err

    def test_duplicate_encoders_fail_cleanly(self, capsys):
        code, out, err = run_cli(capsys, "parity-exp", "--encoders", "amplitude,amplitude")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "'amplitude' is listed more than once" in err


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
        "interference_decompositions", "QiftParams",
        "information_curvature", "spectral_profile", "zeeman_sweep", "resonance_similarity",
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
}


@pytest.mark.parametrize("case", sorted(BAD_SIZE_ARGV))
def test_bad_sizes_fail_before_allocation(capsys, tripwire, case):
    code, out, err = run_cli(capsys, *BAD_SIZE_ARGV[case])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


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
        assert err == "error: topology must be a preset name or a real square matrix\n"
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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "statekit" in capsys.readouterr().out
