"""The statekit names and call forms that perfbench/ relies on.

perfbench/tracer.py wraps every function named in its ``LAYERS`` by module
and attribute name, and perfbench/checks.py, selftest.py and worker.py call
library functions in fixed forms. A deletion or signature change under
src/ that breaks one of them fails here instead of in a traced benchmark run.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
