"""The README's library example runs as written, so a renamed export fails
here rather than in the docs."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    code = re.search(r"^```python\n(.*?)^```", section, re.S | re.M).group(1)
    exec(compile(code, str(README), "exec"), {})
