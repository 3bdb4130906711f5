"""The README's library quick start runs against the current API."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    section = README.read_text().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    # the printed values the block's comments show
    assert lines[0] == "[[0, 0], [1, 0], [0, 1]]"
    assert lines[1] == "['k2', '-13 - 5*k1 + k2', 'k1', '1']"
    assert lines[3] == "-13*k2 - 5*k1*k2 + k2^2"
