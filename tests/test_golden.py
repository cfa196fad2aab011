"""Golden byte gate: the outputs of tests/golden/make_goldens.py's cases, run
afresh in a child process pinned to one BLAS thread, against the committed
goldens.

Byte identity holds per numeric environment, so the gate has two paths, and
neither skips. When the child's ``provenance.numerics`` equals the committed
fingerprint.json, leaving out the CPU count, every output must match byte for
byte. Otherwise every cell must match within its column's tolerance below, and
every other cell, like every header, count, label and verdict, must match as
text. A machine with another numpy, BLAS or SIMD set takes only this second
path, which cannot see a change in the last bits of a residual.
"""
import csv
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

# column -> (relative, absolute) tolerance, for a run whose fingerprint differs
TOLERANCES = {
    # rounding residuals: anything within the library's own tolerances
    "decomposition_residual": (0.0, 1e-10),
    "trap_residual": (0.0, 1e-10),
    # elementwise numpy, no BLAS
    "tau": (1e-12, 0.0),
    # spectral-norm distances: the BLAS thread count alone moves them by 8.5e-9 relative
    "error": (1e-6, 0.0),
    "distinguishability": (1e-9, 1e-12),
    "gap_a": (1e-9, 1e-12),
    "gap_b": (1e-9, 1e-12),
    "delta": (1e-9, 1e-12),
}
TEXT_TOLERANCE = (0.0, 1e-10)  # every number of a subcommand stdout: each O(1)
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def golden_outputs():
    return sorted(
        str(p.relative_to(GOLDEN)) for p in GOLDEN.rglob("*") if p.suffix in (".csv", ".txt")
    )


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    # a RuntimeWarning (an overflow, a NaN formed) fails the gate, as it fails a test in process
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(GOLDEN / "make_goldens.py"), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return out


@pytest.fixture(scope="module")
def same_numerics(fresh):
    # the CPU count is recorded but not compared: the child runs one BLAS thread
    read = lambda d: json.loads((d / "fingerprint.json").read_text(encoding="utf-8"))  # noqa: E731
    return {**read(fresh), "cpus": None} == {**read(GOLDEN), "cpus": None}


def close(got: str, want: str, tolerance) -> bool:
    rel, abs_ = tolerance
    return math.isclose(float(got), float(want), rel_tol=rel, abs_tol=abs_)


def assert_cells_close(name, got, want):
    """Each CSV cell within its column's tolerance, or equal as text."""
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    assert got_rows[0] == want_rows[0] and len(got_rows) == len(want_rows), name
    header = want_rows[0]
    for r, (g_row, w_row) in enumerate(zip(got_rows[1:], want_rows[1:]), start=1):
        for column, g, w in zip(header, g_row, w_row, strict=True):
            ok = close(g, w, TOLERANCES[column]) if column in TOLERANCES else g == w
            assert ok, f"{name} row {r} {column}: {g} != {w}"


def assert_text_close(name, got, want):
    """The same text around the numbers, each number within ``TEXT_TOLERANCE``."""
    assert NUMBER.split(got) == NUMBER.split(want), name
    for g, w in zip(NUMBER.findall(got), NUMBER.findall(want), strict=True):
        assert close(g, w, TEXT_TOLERANCE), f"{name}: {g} != {w}"


def test_fresh_run_writes_exactly_the_golden_outputs(fresh):
    written = sorted(str(p.relative_to(fresh)) for p in fresh.rglob("*") if p.suffix in (".csv", ".txt"))
    assert written == golden_outputs()


@pytest.mark.parametrize("name", golden_outputs())
def test_output_matches_golden(fresh, same_numerics, name):
    got = (fresh / name).read_bytes()
    want = (GOLDEN / name).read_bytes()
    if same_numerics:
        assert got == want, f"{name} differs from its golden in the numeric environment that made it"
    elif name.endswith(".csv"):
        assert_cells_close(name, got.decode("utf-8"), want.decode("utf-8"))
    else:
        assert_text_close(name, got.decode("utf-8"), want.decode("utf-8"))


def test_tolerance_path_accepts_rounding_and_rejects_a_moved_verdict():
    # the gate's second path, exercised here whatever this machine's fingerprint
    header = "case,phased,decomposition_residual,trap_residual\r\n"
    want = header + "0,false,1.7347234759768071e-17,1.0408340855860843e-17\r\n"
    assert_cells_close("audit", header + "0,false,2.2e-17,0\r\n", want)
    with pytest.raises(AssertionError):
        assert_cells_close("audit", header + "0,true,1.7347234759768071e-17,1.0408340855860843e-17\r\n", want)
    with pytest.raises(AssertionError):
        assert_cells_close("audit", header + "0,false,2e-10,0\r\n", want)
    assert_text_close("t", "# max_residual: 1.1e-16\n0,0.25\n", "# max_residual: 2.2e-16\n0,0.25\n")
    with pytest.raises(AssertionError):
        assert_text_close("t", "# max_residual: 1.1e-16\n0,0.26\n", "# max_residual: 2.2e-16\n0,0.25\n")
