"""Self-tests of the output checkers in checks.py.

Each checker must accept a genuine `statekit run` output and reject a
corrupted copy of it: a residual above tolerance, a flipped accuracy, a
curvature error above the commutator bound, and so on.

Usage, from the root of a statekit checkout:

    python3 perfbench/selftest.py

Prints one line per case and exits 1 if any case goes the wrong way.
"""
from __future__ import annotations

import copy
import csv
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import checks
from worker import read_output, run_op

RUN_DIR = Path(__file__).resolve().parent.parent / ".perfbench_run" / "selftest"

SMALL = {
    "audit": {"experiment": "interference-audit", "n_features": 3, "count": 2},
    "curvature": {"experiment": "curvature-scan", "n_features": 4, "count": 1,
                  "qift": {"mu": 1.0, "tau": 0.1, "topology": "ring"}},
    "resonance": {"experiment": "resonance", "n_features": 3, "count": 4,
                  "qift": {"mu": 1.0, "tau": 0.1, "topology": "complete"}},
    "parity": {"experiment": "parity", "n_features": 8, "count": "all",
               "encoders": ["probability_loading", "amplitude", "phase", "qift"],
               "qift": {"mu": 1.0, "tau": 0.1, "topology": "ring"}},
}


def genuine(name: str) -> tuple[dict, dict, dict]:
    config = dict(SMALL[name], seed=11, output_dir=str(RUN_DIR / "out" / name))
    path = RUN_DIR / f"{name}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    output, problems = read_output(run_op(path, RUN_DIR / "out" / name), RUN_DIR / "out" / name)
    if problems:
        raise SystemExit(f"{name}: statekit run failed: {problems}")
    return config, output["report"], {k: v.decode("utf-8") for k, v in output["tables"].items()}


def edit_cell(text: str, row: int, column: str, fn) -> str:
    header, rows = checks.parse_csv(text)
    col = header.index(column)
    rows[row][col] = fn(rows[row][col])
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


def scale(factor):
    return lambda cell: format(float(cell) * factor, ".17g")


def corruptions():
    """(output name, case, mutation of (config, report, tables) in place)."""
    def cell(table, row, column, fn):
        def mutate(config, report, tables):
            tables[table] = edit_cell(tables[table], row, column, fn)
        return mutate

    def parity_row(encoder, column, fn):
        def mutate(config, report, tables):
            row = config["encoders"].index(encoder)
            tables["parity_results"] = edit_cell(tables["parity_results"], row, column, fn)
            value = float(checks.parse_csv(tables["parity_results"])[1][row][1 if column == "accuracy" else 2])
            report["results"]["per_encoder"][encoder][column] = value
        return mutate

    def set_result(key, value):
        def mutate(config, report, tables):
            report["results"][key] = value
        return mutate

    def shift_first_gap(config, report, tables):
        report["results"]["gaps"][0] += 1e-6

    def drop_last_row(table):
        def mutate(config, report, tables):
            tables[table] = tables[table].rsplit("\r\n", 2)[0] + "\r\n"
        return mutate

    return [
        ("audit", "decomposition residual above 1e-10", cell("interference_audit", 0, "decomposition_residual", lambda c: "2e-10")),
        ("audit", "trap residual above 1e-12", cell("interference_audit", 1, "trap_residual", lambda c: "5e-12")),
        ("audit", "phased flag flipped", cell("interference_audit", 1, "phased", lambda c: "false")),
        ("curvature", "error 10x above the commutator bound", cell("curvature_scan", 0, "error", scale(10.0))),
        ("curvature", "error off the expm value by 1e-4", cell("curvature_scan", 6, "error", scale(1.0001))),
        ("curvature", "slope outside [2.8, 3.2]", set_result("fitted_slope", 2.7)),
        ("curvature", "fields replaced", set_result("fields", [0.1, 0.2, 0.3, 0.4])),
        ("resonance", "verdict flipped", cell("resonance_pairs", 2, "resonant", lambda c: "true" if c == "false" else "false")),
        ("resonance", "delta not |gap_a - gap_b|", cell("resonance_pairs", 0, "delta", scale(1.5))),
        ("resonance", "gap off the eigvalsh value by 1e-6", shift_first_gap),
        ("resonance", "a pair row missing", drop_last_row("resonance_pairs")),
        ("parity", "amplitude accuracy flipped", parity_row("amplitude", "accuracy", lambda c: "0.5")),
        ("parity", "probability_loading distinguishability nonzero", parity_row("probability_loading", "distinguishability", lambda c: "1e-6")),
        ("parity", "phase accuracy changed", parity_row("phase", "accuracy", lambda c: format(float(c) + 1 / 256, ".17g"))),
        ("parity", "qift distinguishability off by 1e-9", parity_row("qift", "distinguishability", lambda c: format(float(c) + 1e-9, ".17g"))),
    ]


def main() -> int:
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    RUN_DIR.mkdir(parents=True)
    outputs = {name: genuine(name) for name in SMALL}
    bad = 0

    def report_case(label, problems, want_rejected):
        nonlocal bad
        ok = bool(problems) == want_rejected
        bad += not ok
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}" + (f" ({problems[0]})" if problems else ""))

    for name, (config, report, tables) in outputs.items():
        report_case(f"{name}: genuine output", checks.check_output(config, report, tables), False)
    for name, case, mutate in corruptions():
        config, report, tables = copy.deepcopy(outputs[name])
        mutate(config, report, tables)
        report_case(f"{name}: {case}", checks.check_output(config, report, tables), True)

    report_case("direct decomposition: library", checks.check_decomposition(5, SMALL["audit"]["n_features"]), False)
    from statekit.interference import interference_decomposition

    def skewed(u, p, phi, y):
        rep = interference_decomposition(u, p, phi, y)
        return type("Skewed", (), {"classical_term": rep.classical_term, "total": rep.total,
                                   "interference_term": rep.interference_term + 1e-8})
    report_case("direct decomposition: interference term off by 1e-8", checks.check_decomposition(5, SMALL["audit"]["n_features"], skewed), True)

    # the leave-one-out oracle against statekit's loop on tie-heavy inputs
    from statekit.experiments import nn_classify_loo

    rng = np.random.default_rng(3)
    mismatches = []
    for trial in range(200):
        m = int(rng.integers(2, 9))
        sim = rng.integers(0, 3, (m, m)).astype(np.float64)
        sim = np.maximum(sim, sim.T)
        labels = rng.choice([-1, 1], m)
        labels[:2] = (-1, 1)
        if checks.loo_accuracy(sim, labels) != nn_classify_loo(sim, labels):
            mismatches.append(f"trial {trial}")
    report_case("leave-one-out oracle vs nn_classify_loo on 200 tied inputs", mismatches, False)
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
