"""Malformed input documents through `cli.main`: each ends in a report
(exit 0 or 1) or in one error line (exit 2) that names the document's
field path, never in an exception.

The documents are seeded mutations of valid ones, so every run sees the
same inputs."""

import json
import random
import re
from functools import reduce
from operator import getitem

import pytest

from tautcalc import jsonio
from tautcalc.cli import main
from tautcalc.holonomy import bundled_shifts
from tautcalc.penner import chain_system

_SYSTEM, _WORD = chain_system(3)
_U, _V = bundled_shifts()

# each kind of document: a valid one, and the argv that reads it from "@",
# after the option whose name is the root of the document's field paths
DOCUMENTS = {
    "penner": ({**jsonio.curve_system_to_json(_SYSTEM), "word": jsonio.word_to_json(_WORD)},
               ["penner", "--input", "@"]),
    "spec": ({"x_f": "2", "x_s": "4", "x_sum": "6", "x_diff": "6", "chi": ["-2", "-4"]},
             ["candidates", "--genus", "3", "--spec", "@"]),
    "tangencies": ([{"kind": "saddle", "sign": 1}, {"kind": "center", "sign": -1},
                    {"kind": "saddle", "sign": -1}],
                   ["sutured", "pairing", "--input", "@"]),
    "pl": (jsonio.pl_to_json(_U), ["holonomy", "tau", "--case", "a", "--u", "@", "--v", "@v"]),
}
PER_KIND = 600

# values put in place of a node: every JSON type, edge numbers and strings
# that are almost numbers
_VALUES = (None, True, False, 0, 1, -1, 3, 10**30, 0.5, 1e308, "", "x", "0", "1", "-1",
           "1/2", "1/0", "-0", "1e3", "9" * 50, "A", "B", "saddle", "center", [], {}, [[]], ["1"],
           {"label": "a1", "exp": 1})


def _paths(node, path=()):
    """The path of node and of every node below it."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, (*path, key))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, (*path, i))


def _copy(node):
    return json.loads(json.dumps(node))


def _nudge(value, rng):
    """An integer or integer string moved by a little, or a random value."""
    if type(value) is int:
        return value + rng.choice((-2, -1, 1, 2))
    if isinstance(value, str) and value.lstrip("-").isdigit():
        return str(int(value) + rng.choice((-2, -1, 1, 2)))
    return _copy(rng.choice(_VALUES))


def mutate(doc, rng):
    """A copy of doc with one to three nodes replaced, nudged, dropped or doubled."""
    doc = _copy(doc)
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(_paths(doc)))
        if not path:
            doc = _copy(rng.choice(_VALUES))
            continue
        parent, key = reduce(getitem, path[:-1], doc), path[-1]
        op = rng.randrange(4)
        if op == 0:
            parent[key] = _copy(rng.choice(_VALUES))
        elif op == 1:
            parent[key] = _nudge(parent[key], rng)
        elif op == 2:
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, _copy(parent[key]))
        else:
            parent[key + "_"] = _copy(parent[key])
    return doc


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_mutated_documents_end_in_a_report_or_one_error_line(tmp_path, capsys, kind):
    valid, argv = DOCUMENTS[kind]
    rng = random.Random(f"robustness-{kind}")
    doc_path, v_path = tmp_path / "doc.json", tmp_path / "v.json"
    v_path.write_text(json.dumps(jsonio.pl_to_json(_V)))
    error_line = re.compile(rf"error: {argv[argv.index('@') - 1].lstrip('-')}[:.\[].*\n")
    argv = [{"@": str(doc_path), "@v": str(v_path)}.get(a, a) for a in argv]
    codes = {0: 0, 1: 0, 2: 0}
    for n in range(PER_KIND):
        doc = mutate(valid, rng)
        doc_path.write_text(json.dumps(doc))
        code = main([*argv, "--format", ("text", "json")[n % 2]])
        out, err = capsys.readouterr()
        assert code in codes, (code, doc)
        codes[code] += 1
        if code == 2:
            assert out == "" and error_line.fullmatch(err), (err, doc)
        else:
            assert out and err == "", doc
    # the mutations reach the reports as well as the error path
    assert codes[2] and codes[0] + codes[1], codes
