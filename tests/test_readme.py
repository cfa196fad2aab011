"""README.md's examples run as written: the Library usage block, every
`statekit` line of the command-line block, and the config file."""
import json
import re
import shlex
from pathlib import Path

import pytest

from statekit import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")


def test_library_usage_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", TEXT, re.DOTALL)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "3"


def cli_lines():
    """The argv of each `statekit` command in README's bash blocks, with
    comments dropped and backslash continuations joined."""
    lines = []
    for block in re.findall(r"```bash\n(.*?)```", TEXT, re.DOTALL):
        for command in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(command, comments=True)
            if argv[:1] == ["statekit"]:
                lines.append(argv[1:])
    return lines


def config_block():
    (block,) = re.findall(r"```json\n(.*?)```", TEXT, re.DOTALL)
    return json.loads(block)


@pytest.mark.parametrize("argv", cli_lines(), ids=" ".join)
def test_cli_example_runs(tmp_path, monkeypatch, capsys, argv):
    # `statekit run config.json` reads the config file README shows
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(config_block()), encoding="utf-8")
    assert cli.main(argv) == 0, capsys.readouterr().err


def test_config_example_runs(tmp_path, capsys):
    config = config_block()
    assert "qift" in config
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "report.json").is_file()
