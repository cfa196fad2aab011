"""README.md's Library usage example runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_usage_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "3"
