"""The README's library example and usage lines run as written, so a
renamed export or option fails here rather than in the docs."""

import argparse
import itertools
import json
import re
import shlex
from pathlib import Path

import pytest

from tautcalc import cli, jsonio, penner, polytope
from tautcalc.cli import main
from test_cli import READER_ACCEPTS

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


def _input_files():
    """A document for each input file the usage lines name."""
    system, word = penner.chain_system(3)
    return {
        "my_norms.json": jsonio.norm_spec_to_json(polytope.NormSpec.surgery_family(3)),
        "system.json": {**jsonio.curve_system_to_json(system), "word": jsonio.word_to_json(word)},
        "tangencies.json": [{"kind": "saddle", "sign": 1}, {"kind": "center", "sign": 1}],
    }


def test_leaf_func_returns_its_report(monkeypatch, tmp_path, capsys):
    # `main` writes every report, so a leaf's func returns it under the leaf's own words
    monkeypatch.chdir(tmp_path)
    for name, doc in _input_files().items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    reached = set()
    for line in _usage_lines(with_files=True):
        argv = shlex.split(line)[1:]
        words = " ".join(itertools.takewhile(lambda token: not token.startswith("-"), argv))
        args = cli.build_parser().parse_args(argv)
        report = args.func(args)
        assert isinstance(report, dict) and list(report)[0] == "command", line
        assert report["command"] == words and "status" not in report, line
        reached.add(words)
    assert capsys.readouterr().out == ""
    assert reached == {" ".join(route) for route in cli.LEAVES}


def test_well_formed_argv_never_builds_argparse(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    for name, doc in _input_files().items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    cli.build_parser.cache_clear()
    for line in _usage_lines(with_files=True):
        assert main(shlex.split(line)[1:]) == 0, line
    for argv in READER_ACCEPTS:
        assert cli._read(list(argv)) is not None, argv
    capsys.readouterr()
    assert cli.build_parser.cache_info().misses == 0
    with pytest.raises(SystemExit):
        main(["-h"])
    assert cli.build_parser.cache_info().misses == 1
