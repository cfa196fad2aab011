"""Set-up probe: import statekit, then parse and validate the given configs.

run.py times this script in fresh interpreters for the setup_s metric.
Usage: python3 perfbench/probe.py CONFIG.json [CONFIG.json ...]
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from statekit.experiments import ExperimentConfig  # noqa: E402

for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        ExperimentConfig.from_dict(json.load(fh))
