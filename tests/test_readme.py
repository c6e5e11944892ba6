"""README's library quick start runs as written."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    status, contains, trajectory = out.getvalue().splitlines()
    assert status.startswith("unstable")
    assert contains.startswith("True")
    assert trajectory.startswith(("decaying", "growing", "diverged", "inconclusive"))
