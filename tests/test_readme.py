"""The README's Python examples run against the package as it stands."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    """Every ```python block of README.md executes, so renaming or deleting a
    public name it uses breaks this test rather than the docs."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert "boundary" in capsys.readouterr().out
