import json

import numpy as np
import pytest

import statekit as sk
from statekit.errors import ConfigError, StatekitError
from statekit.experiments import compute_experiment


def parity_config(tmp_path, **overrides):
    raw = {
        "experiment": "parity",
        "n_features": 4,
        "count": "all",
        "seed": 0,
        "encoders": ["probability_loading", "amplitude"],
        "output_dir": str(tmp_path / "out"),
    }
    raw.update(overrides)
    return raw


class TestGenParityDataset:
    def test_two_component_truth_table(self):
        ds = sk.gen_parity_dataset(2, "all", 0)
        assert np.array_equal(ds.labels, [1, -1, -1, 1])
        assert np.array_equal(ds.vectors[0], [1.0, 1.0])
        assert np.array_equal(ds.vectors[3], [-1.0, -1.0])

    def test_four_component_balance(self):
        ds = sk.gen_parity_dataset(4, "all", 0)
        assert len(ds) == 16
        assert (ds.labels == 1).sum() == 8
        assert (ds.labels == -1).sum() == 8

    def test_labels_are_products(self):
        ds = sk.gen_parity_dataset(4, "all", 0)
        assert np.array_equal(ds.labels, np.prod(ds.vectors, axis=1).astype(int))

    def test_seeded_sampling_reproducible(self):
        a = sk.gen_parity_dataset(4, 10, 7)
        b = sk.gen_parity_dataset(4, 10, 7)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.labels, b.labels)

    def test_sampling_without_replacement(self):
        ds = sk.gen_parity_dataset(4, 16, 3)
        keys = {tuple(row) for row in ds.vectors}
        assert len(keys) == 16

    def test_count_too_large(self):
        with pytest.raises(StatekitError):
            sk.gen_parity_dataset(2, 5, 0)

    def test_bad_component_count(self):
        with pytest.raises(StatekitError):
            sk.gen_parity_dataset(3, "all", 0)

    def test_components_capped_at_32(self):
        assert sk.gen_parity_dataset(32, 4, 0).vectors.shape == (4, 32)
        with pytest.raises(StatekitError, match="power of 2"):
            sk.gen_parity_dataset(64, 4, 0)


class TestEncodeDataset:
    def test_probability_loading_erases_signs(self):
        ds = sk.gen_parity_dataset(4, "all", 0)
        states = sk.encode_dataset(ds, "probability_loading")
        for s in states:
            assert np.abs(s.amplitudes - 0.5).max() < 1e-15

    def test_amplitude_keeps_signs(self):
        ds = sk.LabeledDataset(np.array([[1.0, -1.0, 1.0, 1.0]]), np.array([-1]), seed=0)
        (state,) = sk.encode_dataset(ds, "amplitude")
        assert np.abs(state.amplitudes - np.array([0.5, -0.5, 0.5, 0.5])).max() < 1e-15

    def test_phase_encoder_keeps_uniform_statistics(self):
        ds = sk.gen_parity_dataset(4, "all", 0)
        states = sk.encode_dataset(ds, "phase")
        for s in states:
            probs = np.abs(s.amplitudes) ** 2
            assert np.abs(probs - 0.25).max() < 1e-12

    def test_qift_leaves_vacuum(self, rng):
        ds = sk.LabeledDataset(rng.uniform(-1, 1, (3, 4)), np.array([1, -1, 1]), seed=0)
        states = sk.encode_dataset(ds, "qift", sk.QiftParams(mu=1.0, tau=0.1))
        vacuum = sk.StateVector(np.eye(16)[0])
        for s in states:
            assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12
            assert abs(np.vdot(s.amplitudes, vacuum.amplitudes)) ** 2 < 1.0 - 1e-6

    def test_qift_matches_evolve_vacuum(self, rng):
        row = rng.uniform(-1, 1, 3)
        ds = sk.LabeledDataset(row[None, :], np.array([1]), seed=0)
        (state,) = sk.encode_dataset(ds, "qift", sk.QiftParams(mu=0.8, tau=0.2, topology="complete"))
        spec = sk.HamiltonianSpec(row, sk.complete_coupling(3), mu=0.8, tau=0.2)
        ref = sk.evolve_vacuum(spec)
        assert np.array_equal(state.amplitudes, ref.amplitudes)

    def test_invalid_combinations(self):
        ds = sk.gen_parity_dataset(2, "all", 0)
        with pytest.raises(StatekitError):
            sk.encode_dataset(ds, "fourier")
        with pytest.raises(StatekitError):
            sk.encode_dataset(ds, "amplitude", sk.QiftParams())


class TestFidelityGram:
    def test_identical_states_all_ones(self):
        psi = sk.probability_loading([0.25] * 4)
        gram = sk.fidelity_gram([psi] * 5)
        assert np.array_equal(gram.entries, np.ones((5, 5)))

    def test_orthonormal_states_identity(self):
        states = [sk.StateVector(row) for row in np.eye(4)]
        gram = sk.fidelity_gram(states)
        assert np.array_equal(gram.entries, np.eye(4))

    def test_parity_collapse_all_ones(self):
        ds = sk.gen_parity_dataset(4, "all", 0)
        gram = sk.fidelity_gram(sk.encode_dataset(ds, "probability_loading"), "probability_loading")
        assert np.array_equal(gram.entries, np.ones((16, 16)))

    def test_gram_validity_every_encoder(self, rng):
        ds = sk.gen_parity_dataset(4, 8, 5)
        for enc in sk.ENCODER_IDS:
            params = sk.QiftParams() if enc == "qift" else None
            gram = sk.fidelity_gram(sk.encode_dataset(ds, enc, params), enc)
            k = gram.entries
            assert np.abs(k - k.T).max() <= 1e-12
            assert np.abs(np.diagonal(k) - 1.0).max() <= 1e-10
            assert k.min() >= 0.0 and k.max() <= 1.0 + 1e-12

    def test_mixed_dims_rejected(self):
        with pytest.raises(StatekitError):
            sk.fidelity_gram([sk.StateVector(np.eye(2)[0]), sk.StateVector(np.eye(4)[0])])

    def test_empty_matrix_rejected(self):
        with pytest.raises(StatekitError, match="must not be empty"):
            sk.GramMatrix(np.zeros((0, 0)))


def untiled_gram(states):
    """The whole-matrix formula that the tiled assembly reproduces bit for bit."""
    s = np.vstack([st.amplitudes for st in states])
    k = np.abs(s.conj() @ s.T) ** 2
    return 0.5 * (k + k.T)


def random_states(m, d, seed):
    a = np.random.default_rng(seed).normal(size=(m, d, 2)) @ np.array([1.0, 1j])
    return [sk.StateVector(row / np.linalg.norm(row)) for row in a]


class TestTiledGram:
    """``fidelity_gram`` symmetrises in 128 x 128 tiles; the bytes must not change."""

    @pytest.mark.parametrize("m", [1, 2, 127, 128, 129, 300])
    def test_bitwise_equal_to_untiled_formula(self, m):
        states = random_states(m, 8, m)
        assert sk.fidelity_gram(states).entries.tobytes() == untiled_gram(states).tobytes()

    def test_symmetrisation_exercised(self):
        states = random_states(129, 8, 0)
        s = np.vstack([st.amplitudes for st in states])
        raw = np.abs(s.conj() @ s.T) ** 2
        # the complex GEMM rounds k[i, j] and k[j, i] differently for some pairs,
        # so the averaging really decides these entries
        assert np.count_nonzero(raw != raw.T) > 0
        assert sk.fidelity_gram(states).entries.tobytes() == untiled_gram(states).tobytes()

    def test_real_amplitude_encoding(self):
        states = sk.encode_dataset(sk.gen_parity_dataset(16, 300, 3), "amplitude")
        gram = sk.fidelity_gram(states, "amplitude")
        assert gram.entries.tobytes() == untiled_gram(states).tobytes()


def gram_with_asymmetry(m, i, j, delta):
    k = np.eye(m)
    k[i, j] = 0.5
    k[j, i] = 0.5 + delta
    return k


class TestGramSymmetryCheck:
    """``GramMatrix`` takes max |k - k.T| tile by tile; every tile is covered."""

    @pytest.mark.parametrize(
        "m, i, j",
        [
            (300, 5, 200),  # an off-diagonal tile and its mirror
            (300, 260, 290),  # inside the ragged corner tile
            (129, 3, 128),  # the one-column ragged edge at m = 129
            (129, 128, 127),
        ],
    )
    def test_asymmetry_rejected_in_every_tile(self, m, i, j):
        k = gram_with_asymmetry(m, i, j, 2 * sk.TOLS.gram_symmetry)
        with pytest.raises(StatekitError, match=f"not symmetric within {sk.TOLS.gram_symmetry}"):
            sk.GramMatrix(k)
        with pytest.raises(StatekitError, match="not symmetric"):
            sk.GramMatrix(k.T)

    @pytest.mark.parametrize("m, i, j", [(300, 5, 200), (129, 3, 128)])
    def test_asymmetry_within_tolerance_accepted(self, m, i, j):
        k = gram_with_asymmetry(m, i, j, 0.5 * sk.TOLS.gram_symmetry)
        assert sk.GramMatrix(k).entries.tobytes() == k.tobytes()


def loo_oracle(k, labels):
    """The plain-python leave-one-out double loop, under the documented tie rule."""
    m = len(labels)
    correct = 0
    for i in range(m):
        row = k[i]
        best = -np.inf
        for j in range(m):
            if j != i and row[j] > best:
                best = row[j]
        tied = [j for j in range(m) if j != i and row[j] == best]
        if len(tied) > 1 and len(tied) == m - 1:
            pred = labels[0]
        else:
            pred = labels[tied[0]]
        correct += int(pred == labels[i])
    return correct / m


class TestNNClassifyLOO:
    def test_identity_gram_predicts_first_label(self):
        labels = [1, -1, -1, 1]
        acc = sk.nn_classify_loo(np.eye(4), labels)
        # every row fully degenerate -> everyone predicted as labels[0] = +1
        assert acc == 0.5

    def test_all_ones_gram_balanced_parity(self):
        ds = sk.gen_parity_dataset(4, "all", 0)
        acc = sk.nn_classify_loo(np.ones((16, 16)), ds.labels)
        assert acc == 0.5

    def test_amplitude_parity_brute_force(self):
        ds = sk.gen_parity_dataset(4, "all", 0)
        gram = sk.fidelity_gram(sk.encode_dataset(ds, "amplitude"), "amplitude")
        acc = sk.nn_classify_loo(gram, ds.labels)
        assert acc == 1.0
        # independent brute force over all 16x15 ordered pairs
        k = gram.entries
        correct = 0
        for i in range(16):
            best_j = None
            for j in range(16):
                if j == i:
                    continue
                if best_j is None or k[i, j] > k[i, best_j]:
                    best_j = j
            correct += int(ds.labels[best_j] == ds.labels[i])
        assert correct == 16

    def test_two_sample_case_uses_real_neighbour(self):
        # a single candidate is a genuine nearest neighbour, not a degenerate tie
        k = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert sk.nn_classify_loo(k, [1, -1]) == 0.0

    def test_deterministic_partial_tie(self):
        # samples 1 and 2 tie as neighbours of 0: lowest index wins
        k = np.array([
            [1.0, 0.8, 0.8, 0.1],
            [0.8, 1.0, 0.3, 0.2],
            [0.8, 0.3, 1.0, 0.2],
            [0.1, 0.2, 0.2, 1.0],
        ])
        labels = np.array([1, 1, -1, -1])
        # neighbour of 0 -> 1 (label +1, correct); of 1 -> 0 (+1, correct);
        # of 2 -> 0 (+1, wrong); of 3 -> 1 and 2 tie -> 1 (+1, wrong)
        assert sk.nn_classify_loo(k, labels) == 0.5

    def test_matches_python_loop_on_tie_heavy_grams(self, rng):
        cases = 0
        for m in range(2, 13):
            for trial in range(18 if m > 2 else 20):
                k = rng.integers(0, 3, (m, m)).astype(np.float64)
                k = np.maximum(k, k.T)
                if trial % 6 == 0:
                    k[int(rng.integers(m))] = 1.0  # one all-ones row
                labels = rng.choice([-1, 1], m)
                labels[:2] = (-1, 1)
                assert sk.nn_classify_loo(k, labels) == loo_oracle(k, labels), (m, trial)
                cases += 1
        assert cases == 200

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gram_rejected(self, bad):
        k = np.eye(3)
        k[0, 1] = k[1, 0] = bad
        with pytest.raises(StatekitError, match="non-finite"):
            sk.nn_classify_loo(k, [1, -1, 1])

    def test_single_class_flagged(self):
        with pytest.raises(StatekitError):
            sk.nn_classify_loo(np.eye(3), [1, 1, 1])

    def test_too_few_samples(self):
        with pytest.raises(StatekitError):
            sk.nn_classify_loo(np.ones((1, 1)), [1])

    def test_shape_mismatch(self):
        with pytest.raises(StatekitError):
            sk.nn_classify_loo(np.eye(3), [1, -1])


class TestDistinguishability:
    def test_collapse_gives_zero(self):
        ds = sk.gen_parity_dataset(4, "all", 0)
        states = sk.encode_dataset(ds, "probability_loading")
        assert sk.distinguishability(states, ds.labels) == 0.0

    def test_amplitude_positive(self):
        ds = sk.gen_parity_dataset(4, "all", 0)
        states = sk.encode_dataset(ds, "amplitude")
        assert sk.distinguishability(states, ds.labels) > 0.5

    def test_identical_states_opposite_labels(self):
        psi = sk.probability_loading([0.5, 0.5])
        assert sk.distinguishability([psi, psi], [1, -1]) == 0.0

    def test_requires_both_classes(self):
        psi = sk.probability_loading([0.5, 0.5])
        with pytest.raises(StatekitError):
            sk.distinguishability([psi, psi], [1, 1])


class TestExperimentConfig:
    def test_unknown_key_rejected(self, tmp_path):
        raw = parity_config(tmp_path, extra=1)
        with pytest.raises(ConfigError, match="unknown config keys"):
            sk.ExperimentConfig.from_dict(raw)

    def test_missing_key_rejected(self, tmp_path):
        raw = parity_config(tmp_path)
        del raw["seed"]
        with pytest.raises(ConfigError, match="missing config keys"):
            sk.ExperimentConfig.from_dict(raw)

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown experiment"):
            sk.ExperimentConfig.from_dict(parity_config(tmp_path, experiment="teleport"))

    def test_unknown_encoder(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown encoder"):
            sk.ExperimentConfig.from_dict(parity_config(tmp_path, encoders=["basis"]))

    def test_duplicate_encoder(self, tmp_path):
        raw = parity_config(tmp_path, encoders=["amplitude", "phase", "amplitude"])
        with pytest.raises(ConfigError, match="^encoder 'amplitude' is listed more than once$"):
            sk.ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "encoders, message",
        [
            (("basis",), "^unknown encoder 'basis'; expected one of "),
            (("amplitude", "amplitude"), "^encoder 'amplitude' is listed more than once$"),
        ],
    )
    def test_validate_checks_encoder_ids(self, tmp_path, encoders, message):
        # a config built directly, not by from_dict, meets the same checks
        with pytest.raises(ConfigError, match=message):
            sk.ExperimentConfig(
                experiment="parity", n_features=2, count="all", seed=0,
                output_dir=str(tmp_path), encoders=encoders,
            )

    def test_bool_is_not_an_integer(self, tmp_path):
        with pytest.raises(ConfigError):
            sk.ExperimentConfig.from_dict(parity_config(tmp_path, seed=True))

    def test_count_all_accepted(self, tmp_path):
        cfg = sk.ExperimentConfig.from_dict(parity_config(tmp_path))
        assert cfg.count == "all"

    def test_qift_block_strict(self, tmp_path):
        raw = parity_config(tmp_path, qift={"mu": 1.0, "gamma": 2.0})
        with pytest.raises(ConfigError, match="unknown qift keys"):
            sk.ExperimentConfig.from_dict(raw)

    def test_qift_topology_matrix(self, tmp_path):
        j = [[0.0, 1.0], [1.0, 0.0]]
        raw = parity_config(tmp_path, n_features=2, qift={"topology": j})
        cfg = sk.ExperimentConfig.from_dict(raw)
        assert np.array_equal(cfg.qift_params().coupling_for(2), np.array(j))

    def test_qift_bad_tau(self, tmp_path):
        with pytest.raises(ConfigError, match="tau"):
            sk.ExperimentConfig.from_dict(parity_config(tmp_path, qift={"tau": -0.1}))

    @pytest.mark.parametrize(
        "block, message",
        [
            ('{"mu": NaN}', "^non-finite value in mu or tau$"),
            ('{"mu": Infinity}', "^non-finite value in mu or tau$"),
            ('{"tau": NaN}', "^non-finite value in mu or tau$"),
            ('{"tau": Infinity}', "^non-finite value in mu or tau$"),
            ('{"mu": true}', "^mu must be a real number, got True$"),
            ('{"mu": 1' + "0" * 400 + "}", "^non-finite value in mu or tau$"),
        ],
        ids=["mu-nan", "mu-infinity", "tau-nan", "tau-infinity", "mu-bool", "mu-beyond-float"],
    )
    def test_qift_mu_and_tau_are_finite_numbers(self, tmp_path, block, message):
        raw = parity_config(tmp_path, encoders=["qift"], qift=json.loads(block))
        with pytest.raises(ConfigError, match=message):
            sk.ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "topology, message",
        [
            ([["a", "b"], ["c", "d"]], "^topology must be a preset name or a real square matrix$"),
            ([[0.0, 1.0], [1.0]], "^topology must be a preset name or a real square matrix$"),
            ([[0.0, 1.0], [2.0, 0.0]], "^coupling matrix must be exactly symmetric$"),
            ([[1.0, 1.0], [1.0, 0.0]], "^coupling matrix must have zero diagonal$"),
        ],
        ids=["strings", "ragged", "asymmetric", "diagonal"],
    )
    def test_qift_bad_topology(self, tmp_path, topology, message):
        raw = parity_config(tmp_path, n_features=2, encoders=["qift"], qift={"topology": topology})
        with pytest.raises(ConfigError, match=message):
            sk.ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "experiment, encoders", [("curvature-scan", []), ("resonance", []), ("parity", ["amplitude", "qift"])]
    )
    def test_qift_topology_of_the_wrong_size(self, tmp_path, experiment, encoders):
        qift = {"topology": sk.ring_coupling(3).tolist()}
        raw = parity_config(tmp_path, experiment=experiment, count=2, encoders=encoders, qift=qift)
        with pytest.raises(ConfigError, match=r"^explicit coupling matrix has shape \(3, 3\), expected \(4, 4\)$"):
            sk.ExperimentConfig.from_dict(raw)
        # interference-audit, and parity without the qift encoder, build no Hamiltonian
        assert sk.ExperimentConfig.from_dict(dict(raw, experiment="interference-audit", encoders=[]))
        assert sk.ExperimentConfig.from_dict(dict(raw, experiment="parity", encoders=["amplitude"]))

    def test_qift_block_echo(self, tmp_path):
        raw = parity_config(tmp_path, n_features=2, encoders=["qift"], qift={"mu": 1, "topology": [[0, 1], [1, 0]]})
        echo = sk.ExperimentConfig.from_dict(raw).to_jsonable()["qift"]
        assert echo == {"mu": 1.0, "tau": 0.1, "topology": [[0.0, 1.0], [1.0, 0.0]]}
        assert type(echo["mu"]) is float and type(echo["topology"][0][1]) is float

    def test_parity_requires_encoders(self, tmp_path):
        with pytest.raises(ConfigError, match="encoders"):
            sk.ExperimentConfig.from_dict(parity_config(tmp_path, encoders=[]))

    def test_parity_requires_power_of_two(self, tmp_path):
        with pytest.raises(ConfigError, match="power of 2"):
            sk.ExperimentConfig.from_dict(parity_config(tmp_path, n_features=3))

    def test_resonance_needs_integer_count(self, tmp_path):
        raw = parity_config(tmp_path, experiment="resonance", count="all")
        with pytest.raises(ConfigError, match="count"):
            sk.ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("experiment", ["curvature-scan", "resonance", "interference-audit"])
    def test_qubit_experiments_capped_at_12(self, tmp_path, experiment):
        raw = parity_config(tmp_path, experiment=experiment, n_features=12, count=2)
        assert sk.ExperimentConfig.from_dict(raw).n_features == 12
        for n in (13, 15):
            with pytest.raises(ConfigError, match="12 qubits"):
                sk.ExperimentConfig.from_dict(dict(raw, n_features=n))

    def test_parity_components_capped_at_32(self, tmp_path):
        assert sk.ExperimentConfig.from_dict(parity_config(tmp_path, n_features=32, count=4))
        with pytest.raises(ConfigError, match="32 components"):
            sk.ExperimentConfig.from_dict(parity_config(tmp_path, n_features=64, count=4))

    def test_parity_samples_capped(self, tmp_path):
        limit = sk.experiments.MAX_PARITY_SAMPLES
        assert limit == 4096
        for n, count in ((16, limit), (8, "all"), (4, "all")):
            assert sk.ExperimentConfig.from_dict(parity_config(tmp_path, n_features=n, count=count))
        for n, count in ((16, limit + 1), (16, "all"), (32, "all")):
            with pytest.raises(ConfigError, match="4096 samples"):
                sk.ExperimentConfig.from_dict(parity_config(tmp_path, n_features=n, count=count))

    def test_qift_encoder_capped_at_12_qubits(self, tmp_path):
        raw = parity_config(tmp_path, n_features=16, count=4, encoders=["amplitude"])
        assert sk.ExperimentConfig.from_dict(raw)
        with pytest.raises(ConfigError, match="12 qubits"):
            sk.ExperimentConfig.from_dict(dict(raw, encoders=["amplitude", "qift"]))


class TestRunExperiment:
    def test_parity_contrast_report(self, tmp_path):
        cfg = sk.ExperimentConfig.from_dict(parity_config(tmp_path))
        report = sk.run_experiment(cfg)
        per = report.results["per_encoder"]
        assert per["probability_loading"]["accuracy"] == 0.5
        assert per["probability_loading"]["distinguishability"] == 0.0
        assert per["amplitude"]["accuracy"] == 1.0
        assert per["amplitude"]["distinguishability"] > 0.0
        assert (tmp_path / "out" / "parity_results.csv").exists()
        assert (tmp_path / "out" / "report.json").exists()

    def test_report_json_structure(self, tmp_path):
        cfg = sk.ExperimentConfig.from_dict(parity_config(tmp_path))
        sk.run_experiment(cfg)
        with open(tmp_path / "out" / "report.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert set(doc) == {"config", "results", "provenance"}
        assert doc["provenance"]["version"] == sk.__version__
        assert doc["provenance"]["seed"] == 0
        assert "timestamp" in doc["provenance"]
        assert doc["config"]["experiment"] == "parity"

    def test_byte_identical_csv_across_runs(self, tmp_path):
        cfg_a = sk.ExperimentConfig.from_dict(parity_config(tmp_path, output_dir=str(tmp_path / "a")))
        cfg_b = sk.ExperimentConfig.from_dict(parity_config(tmp_path, output_dir=str(tmp_path / "b")))
        sk.run_experiment(cfg_a)
        sk.run_experiment(cfg_b)
        bytes_a = (tmp_path / "a" / "parity_results.csv").read_bytes()
        bytes_b = (tmp_path / "b" / "parity_results.csv").read_bytes()
        assert bytes_a == bytes_b
        assert b"\r\n" in bytes_a  # RFC-4180 line endings

    def test_no_partial_files_on_invalid_config(self, tmp_path):
        raw = parity_config(tmp_path, encoders=["probability_loading", "warp"])
        with pytest.raises(ConfigError):
            sk.ExperimentConfig.from_dict(raw)
        assert not (tmp_path / "out").exists()

    def test_failing_compute_writes_nothing(self, tmp_path):
        # valid schema, but the run itself fails: count exceeds the dataset
        cfg = sk.ExperimentConfig.from_dict(parity_config(tmp_path, count=100))
        with pytest.raises(StatekitError):
            sk.run_experiment(cfg)
        assert not (tmp_path / "out").exists()

    def test_curvature_scan_run(self, tmp_path):
        raw = {
            "experiment": "curvature-scan",
            "n_features": 3,
            "count": 1,
            "seed": 11,
            "qift": {"mu": 1.0, "tau": 0.1, "topology": "ring"},
            "output_dir": str(tmp_path / "scan"),
        }
        report = sk.run_experiment(sk.ExperimentConfig.from_dict(raw))
        assert 2.8 <= report.results["fitted_slope"] <= 3.2
        csv_text = (tmp_path / "scan" / "curvature_scan.csv").read_text()
        assert csv_text.startswith("tau,error")
        assert len(csv_text.strip().splitlines()) == 14  # header + 13 points

    def test_resonance_run(self, tmp_path):
        raw = {
            "experiment": "resonance",
            "n_features": 2,
            "count": 4,
            "seed": 2,
            "output_dir": str(tmp_path / "res"),
        }
        report = sk.run_experiment(sk.ExperimentConfig.from_dict(raw))
        assert report.results["n_pairs"] == 6
        assert len(report.results["gaps"]) == 4
        assert report.results["tolerance"] == sk.TOLS.resonance

    @pytest.mark.parametrize("count", [2, 3, 5])
    def test_resonance_one_eigendecomposition_per_spec(self, tmp_path, eigh_calls, count):
        raw = {"experiment": "resonance", "n_features": 3, "count": count, "seed": 4,
               "output_dir": str(tmp_path / "res")}
        compute_experiment(sk.ExperimentConfig.from_dict(raw))
        assert len(eigh_calls) == count

    def test_resonance_rows_match_pairwise_verdicts(self, tmp_path):
        qift = {"mu": 0.8, "tau": 0.1, "topology": "complete"}
        raw = {"experiment": "resonance", "n_features": 3, "count": 6, "seed": 9, "qift": qift,
               "output_dir": str(tmp_path / "res")}
        results, (table,) = compute_experiment(sk.ExperimentConfig.from_dict(raw), 0.5)
        # the runner draws each spec's fields uniformly from [-pi, pi], in order
        draws = np.random.default_rng(9)
        specs = [
            sk.HamiltonianSpec(draws.uniform(-np.pi, np.pi, 3), sk.complete_coupling(3), mu=0.8)
            for _ in range(6)
        ]
        assert results["gaps"] == [sk.spectral_profile(s).mass_gap for s in specs]
        assert len(table.rows) == 15
        for a, b, gap_a, gap_b, delta, resonant in table.rows:
            v = sk.resonance_similarity(specs[a], specs[b], 0.5)
            assert (gap_a, gap_b, delta, resonant) == (v.gap_a, v.gap_b, v.delta, v.resonant)
        assert 0 < results["n_resonant"] < 15
        assert results["n_resonant"] == sum(row[5] for row in table.rows)

    def test_interference_audit_run(self, tmp_path):
        raw = {
            "experiment": "interference-audit",
            "n_features": 2,
            "count": 6,
            "seed": 5,
            "output_dir": str(tmp_path / "audit"),
        }
        report = sk.run_experiment(sk.ExperimentConfig.from_dict(raw))
        assert report.results["max_decomposition_residual"] < 1e-10
        assert report.results["max_trap_residual"] < 1e-12

    def test_interference_audit_checks_each_operator_once(self, tmp_path, unitary_checks):
        raw = {"experiment": "interference-audit", "n_features": 3, "count": 2, "seed": 5,
               "output_dir": str(tmp_path / "audit")}
        compute_experiment(sk.ExperimentConfig.from_dict(raw))
        # per case: one Haar U for all 8 outcomes, one diagonal D for the trap
        assert len(unitary_checks) == 4
        assert [u.dim for u in unitary_checks] == [8] * 4

    def test_compute_experiment_touches_no_files(self, tmp_path):
        cfg = sk.ExperimentConfig.from_dict(parity_config(tmp_path))
        results, tables = compute_experiment(cfg)
        assert not (tmp_path / "out").exists()
        assert tables[0].name == "parity_results"
        assert results["per_encoder"]["amplitude"]["accuracy"] == 1.0

    def test_qift_encoder_in_parity_run(self, tmp_path):
        raw = parity_config(tmp_path, encoders=["probability_loading", "qift"],
                            qift={"mu": 1.0, "tau": 0.1, "topology": "ring"})
        report = sk.run_experiment(sk.ExperimentConfig.from_dict(raw))
        per = report.results["per_encoder"]
        assert 0.0 <= per["qift"]["accuracy"] <= 1.0
        assert per["qift"]["distinguishability"] > 0.0


def test_encoder_table_and_qift_params_are_re_exported():
    import statekit.encoders
    import statekit.experiments
    import statekit.qift

    assert statekit.experiments.QiftParams is statekit.qift.QiftParams
    assert statekit.experiments.ENCODERS is statekit.encoders.ENCODERS
    assert statekit.experiments.ENCODER_IDS is statekit.encoders.ENCODER_IDS
