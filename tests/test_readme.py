"""The README's library example and usage lines run as written, so a
renamed export or option fails here rather than in the docs."""

import re
import shlex
from pathlib import Path

import pytest

from tautcalc.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _usage_lines():
    """The `tautcalc …` lines of the command-line usage block that name no
    input file, comments dropped."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.S | re.M).group(1)
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    return [line for line in lines if line.startswith("tautcalc ") and ".json" not in line]


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    code = re.search(r"^```python\n(.*?)^```", section, re.S | re.M).group(1)
    exec(compile(code, str(README), "exec"), {})


@pytest.mark.parametrize("line", _usage_lines())
def test_usage_line_runs(monkeypatch, capsys, line):
    monkeypatch.delenv("TAUTCALC_FORMAT", raising=False)
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out


def test_usage_lines_found():
    # every subcommand has a usage line that the test above runs
    assert {line.split()[1] for line in _usage_lines()} == {"vmatrix", "candidates", "penner", "sutured", "holonomy"}
