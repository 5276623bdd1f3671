"""The README's library example and usage lines run as written, so a
renamed export or option fails here rather than in the docs."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from tautcalc import cli
from tautcalc.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _usage_lines(with_files=False):
    """The `tautcalc …` lines of the command-line usage block, comments
    dropped; those that name an input file only with_files."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.S | re.M).group(1)
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    return [line for line in lines if line.startswith("tautcalc ") and (with_files or ".json" not in line)]


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    code = re.search(r"^```python\n(.*?)^```", section, re.S | re.M).group(1)
    exec(compile(code, str(README), "exec"), {})


@pytest.mark.parametrize("line", _usage_lines())
def test_usage_line_runs(monkeypatch, capsys, line):
    monkeypatch.delenv("TAUTCALC_FORMAT", raising=False)

    def refuse(*args, **kwargs):
        raise AssertionError(f"argparse parsed {line!r}, which main reads itself")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("line", _usage_lines(with_files=True))
def test_usage_line_read_as_argparse_reads_it(line):
    argv = shlex.split(line)[1:]
    read = cli._read(argv)
    assert read is not None and vars(read) == vars(cli.build_parser().parse_args(argv))


def test_usage_lines_found():
    # every subcommand has a usage line that test_usage_line_runs runs
    assert {line.split()[1] for line in _usage_lines()} == {"vmatrix", "candidates", "penner", "sutured", "holonomy"}
