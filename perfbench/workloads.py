"""Workload make-up: the `statekit run` configs that one pass executes.

Sizes are fixed, so every run of a workload does the same work. The
benchmark seed only picks each config's statekit seed, and with it the
random unitaries, fields and parity samples the experiments draw.
"""
from __future__ import annotations

import random

QIFT = {"mu": 1.0, "tau": 0.1, "topology": "ring"}
STATIC_ENCODERS = ["probability_loading", "amplitude", "phase"]

# workload -> [(config name, config without seed and output_dir)]
WORKLOADS = {
    # interference layer and the pair_sum kernel; no eigendecomposition
    "audit": [
        ("audit_n6", {"experiment": "interference-audit", "n_features": 6, "count": 4}),
    ],
    # few large LAPACK-bound matrices: eigh, Kronecker Pauli strings, SVDs
    "spectra": [
        ("curvature_n8", {"experiment": "curvature-scan", "n_features": 8, "count": 1, "qift": QIFT}),
        ("resonance_n8", {"experiment": "resonance", "n_features": 8, "count": 4, "qift": QIFT}),
    ],
    # many small Python-overhead-bound problems, the largest Gram and CSV
    "sweep": [
        ("parity_n16", {"experiment": "parity", "n_features": 16, "count": 2048,
                        "encoders": STATIC_ENCODERS}),
        ("parity_n8_all", {"experiment": "parity", "n_features": 8, "count": "all",
                           "encoders": STATIC_ENCODERS + ["qift"], "qift": QIFT}),
        ("resonance_n4", {"experiment": "resonance", "n_features": 4, "count": 20, "qift": QIFT}),
    ],
}


# workload -> nominal seconds of one untraced pass on the reference machine.
# Constants, not measurements, so the pass count of a run depends only on
# --seconds: a change that speeds a pass up is timed over as many passes.
NOMINAL_PASS_S = {"audit": 1.0, "spectra": 2.4, "sweep": 5.0}
MIN_PASSES = 3  # timed passes of an untraced run
MIN_PAIRS = 2  # (untraced, traced) pass pairs of a traced run


def pass_count(workload: str, seconds: float, trace: int) -> int:
    """Timed passes (--trace 0) or untraced/traced pass pairs (--trace 1) of one run."""
    if trace:
        return max(MIN_PAIRS, round(seconds / (2 * NOMINAL_PASS_S[workload])))
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def make_configs(workload: str, seed: int, out_root: str) -> list[tuple[str, dict]]:
    """The workload's configs for one benchmark seed, in pass order."""
    rng = random.Random(seed)
    configs = []
    for name, base in WORKLOADS[workload]:
        config = dict(base, seed=rng.randrange(2**31), output_dir=f"{out_root}/{name}")
        configs.append((name, config))
    return configs
