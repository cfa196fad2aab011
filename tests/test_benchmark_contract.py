"""The statekit names and call forms that perfbench/ relies on.

perfbench/tracer.py wraps every function named in its ``LAYERS`` by module
and attribute name, and perfbench/checks.py, selftest.py and worker.py call
library functions in fixed forms. A deletion or signature change under
src/ that breaks one of them fails here instead of in a traced benchmark run.
"""
import importlib
import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from statekit.experiments import ExperimentConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = Path(__file__).resolve().parent / "golden"


def load(name):
    """Import perfbench/<name>.py as a standalone module."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = load("tracer").LAYERS


@pytest.mark.parametrize(
    "module, attr", sorted({target for targets in LAYERS.values() for target in targets})
)
def test_traced_layer_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"statekit.{module}"), attr))


def test_worker_reads_kernel_backend():
    from statekit import _kernels

    assert isinstance(_kernels.backend(), str)


def test_parity_check_call_forms():
    from statekit.experiments import QiftParams, encode_dataset, fidelity_gram, gen_parity_dataset

    ds = gen_parity_dataset(4, "all", 0)
    params = QiftParams(**load("workloads").QIFT)
    gram = fidelity_gram(encode_dataset(ds, "qift", params), "qift")
    assert gram.encoder_id == "qift"
    assert gram.entries.shape == (16, 16)


def test_decomposition_call_form():
    # interference_decomposition(DenseOperator(u), p, phi, y) with ndarray p and phi
    assert load("checks").check_decomposition(5, 2) == []


def test_loo_accepts_an_ndarray():
    from statekit.experiments import nn_classify_loo

    sim = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.2], [0.1, 0.2, 1.0]])
    assert nn_classify_loo(sim, np.array([1, 1, -1])) == pytest.approx(2 / 3)


def benchmark_configs():
    """Every config that a benchmark pass, the checker self-test or the golden gate runs,
    each as a pytest param named after its source."""
    workloads = load("workloads")
    for workload in workloads.WORKLOADS:
        for seed in (0, 1, 7):
            for name, config in workloads.make_configs(workload, seed, "out"):
                yield pytest.param(config, id=f"{workload}-{name}-seed{seed}")
    # selftest.py imports checks.py and worker.py as its own run does; make_goldens.py pins
    # the BLAS threads of its process: both are loaded, not run, and leave no trace here
    with mock.patch.object(sys, "path", [str(PERFBENCH), *sys.path]), mock.patch.dict(os.environ):
        small = load("selftest").SMALL
        spec = importlib.util.spec_from_file_location("make_goldens", GOLDEN / "make_goldens.py")
        spec.loader.exec_module(goldens := importlib.util.module_from_spec(spec))
    for name, config in small.items():
        yield pytest.param(dict(config, seed=11, output_dir="out"), id=f"selftest-{name}")
    for case, config in goldens.CONFIGS.items():
        yield pytest.param(dict(config, output_dir="out"), id=f"golden-{case}")


# a stricter config rule fails here, not in a benchmark run or the golden gate
@pytest.mark.parametrize("config", benchmark_configs())
def test_benchmark_config_passes_the_config_rules(config):
    assert ExperimentConfig.from_dict(config)


# report.json echoes a config that loads to itself, and one that sets no tolerance echoes none
@pytest.mark.parametrize("config", benchmark_configs())
def test_benchmark_config_echo_loads_to_itself(config):
    echo = ExperimentConfig.from_dict(config).to_jsonable()
    assert ExperimentConfig.from_dict(echo).to_jsonable() == echo
    assert ("tolerance" in echo) == (config.get("tolerance") is not None)


# parity scores a stack of one state through the lowest two rows of each label and any other
# stack row by row; every parity stack that a benchmark pass or the golden gate scores is
# one of the two: all rows distinct, or one state
@pytest.mark.parametrize("config", [p for p in benchmark_configs() if p.values[0]["experiment"] == "parity"])
def test_parity_stacks_are_distinct_or_one_state(config):
    from statekit.experiments import encode_dataset, gen_parity_dataset

    config = ExperimentConfig.from_dict(config)
    ds = gen_parity_dataset(config.n_features, config.count, config.seed)
    for enc in config.encoders:
        stack = encode_dataset(ds, enc, config.qift_params() if enc == "qift" else None).amplitudes
        assert len({row.tobytes() for row in stack}) in (1, len(ds)), enc
