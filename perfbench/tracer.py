"""Span tracer that wraps statekit's public functions from outside the package.

``Tracer.install`` replaces every function named in ``LAYERS`` at each
binding that refers to it: the defining module, every statekit module that
imported it by name, and the package namespace. ``uninstall`` puts the
originals back. Nothing under ``src/`` is edited.

Each call becomes a span (name, start, end, parent). A span's self time is
its duration minus the time of its child spans and of the tracer's own
bookkeeping done inside it. Spans stay in memory until ``write``.
"""
from __future__ import annotations

import functools
import hashlib
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# span name -> (module, function) pairs recorded under that name
LAYERS = {
    "interference.decomposition": [("interference", "interference_decomposition")],
    "interference.diagonal_trap": [("interference", "diagonal_trap_residual")],
    "kernels.pair_sum": [("_kernels", "pair_sum")],
    "kernels.ry_layer": [("_kernels", "ry_layer")],
    "kernels.zz_diagonal": [("_kernels", "zz_diagonal")],
    "statevec.eigh": [("statevec", "hermitian_spectral_decomposition")],
    "statevec.pauli_string": [("statevec", "pauli_string")],
    "statevec.operator_distance": [("statevec", "operator_distance")],
    "statevec.haar_random_unitary": [("statevec", "haar_random_unitary")],
    "qift.build_h_data": [("qift", "build_h_data")],
    "qift.build_h_topo": [("qift", "build_h_topo")],
    "qift.exact_unitary": [("qift", "exact_unitary")],
    "qift.sandwich_unitary": [("qift", "sandwich_unitary")],
    "qift.commutator_norm": [("qift", "commutator_norm")],
    "qift.evolve_vacuum": [("qift", "evolve_vacuum")],
    "spectral.spectral_profile": [("spectral", "spectral_profile")],
    "spectral.resonance_similarity": [("spectral", "resonance_similarity")],
    "encoders.states": [
        ("encoders", "probability_loading"),
        ("encoders", "amplitude_encoding"),
        ("encoders", "phase_encoding"),
    ],
    "experiments.encode_dataset": [("experiments", "encode_dataset")],
    "experiments.fidelity_gram": [("experiments", "fidelity_gram")],
    "experiments.nn_classify_loo": [("experiments", "nn_classify_loo")],
    "experiments.compute_experiment": [("experiments", "compute_experiment")],
    # run_experiment minus compute_experiment: CSV and report.json writing
    "experiments.emit": [("experiments", "run_experiment")],
    "cli.main": [("cli", "main")],
}

# spans whose distinct inputs are counted, by the argument that identifies them
DISTINCT_INPUT = {
    "statevec.eigh": lambda h: h.matrix,
    "kernels.zz_diagonal": lambda coupling: np.asarray(coupling, dtype=np.float64),
}


def _digest(arr: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(arr).view(np.uint8), digest_size=16).digest()


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, self time)
        self._open: list = []  # [span index, time covered by children and hooks]
        self._installed: list = []  # (namespace, binding, original)
        self.distinct = defaultdict(set)
        self.pair_terms = 0

    def _enter(self):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1][0] if self._open else -1
        frame = [index, 0.0]
        self._open.append(frame)
        return index, parent, frame

    def _exit(self, name, index, parent, frame, start, end):
        self._open.pop()
        self.spans[index] = (name, start, end, parent, end - start - frame[1])
        if self._open:
            self._open[-1][1] += end - start

    def _charge_hook(self, seconds: float) -> None:
        if self._open:
            self._open[-1][1] += seconds

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index, parent, frame = self._enter()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, index, parent, frame, start, perf_counter())

    def _wrap(self, name: str, fn):
        key_of = DISTINCT_INPUT.get(name)
        counts_pairs = name == "interference.decomposition"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key_of is not None:
                h0 = perf_counter()
                self.distinct[name].add(_digest(key_of(*args, **kwargs)))
                self._charge_hook(perf_counter() - h0)
            result = self.call(name, fn, *args, **kwargs)
            if counts_pairs:
                self.pair_terms += len(result.pairs)
            return result

        return traced

    def install(self) -> None:
        import statekit  # noqa: F401  (loads every submodule)

        namespaces = [m for n, m in sys.modules.items() if n == "statekit" or n.startswith("statekit.")]
        for name, targets in LAYERS.items():
            for module, attr in targets:
                original = getattr(sys.modules[f"statekit.{module}"], attr)
                traced = self._wrap(name, original)
                for ns in namespaces:
                    for binding in [b for b, v in vars(ns).items() if v is original]:
                        self._installed.append((ns, binding, original))
                        setattr(ns, binding, traced)

    def uninstall(self) -> None:
        while self._installed:
            ns, binding, original = self._installed.pop()
            setattr(ns, binding, original)

    def begin_pass(self) -> int:
        self.distinct.clear()
        self.pair_terms = 0
        return len(self.spans)

    def pass_layers(self, first: int) -> dict:
        """Per-layer counters of the spans recorded since ``begin_pass``."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for name, _, _, _, own in self.spans[first:]:
            calls[name] += 1
            self_s[name] += own
        return {
            "calls": calls,
            "self_s": self_s,
            "distinct": {name: len(keys) for name, keys in self.distinct.items()},
            "pair_terms": self.pair_terms,
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": [s[:4] for s in self.spans]}, fh)
