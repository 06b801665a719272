"""README's quick-start block runs and prints what its comment says, so the
documented API cannot drift from the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out == "('a', None)\n"
