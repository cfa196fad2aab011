"""CI runs the whole tier-1 suite in every BLAS setting: each pytest line of
the workflow is the one tier-1 command, so no step keeps its own list of the
tests that depend on the thread count or the core."""
import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
TIER_1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"


def test_every_pytest_line_is_the_tier_1_command():
    # a line invokes pytest when it runs the module or the script, not when pip installs it
    invocations = [
        re.sub(r"^run:\s*", "", line.strip())
        for line in WORKFLOW.read_text(encoding="utf-8").splitlines()
        if re.search(r"-m\s+pytest\b|(^|[\s:;&|])pytest\s+-", line)
    ]
    assert invocations
    assert [line for line in invocations if line != TIER_1] == []
