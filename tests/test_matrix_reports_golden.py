"""Byte-for-byte pins of the reports that print an action matrix.

The digests were taken while each matrix still reached the writers as a
list of rows of decimal strings, n strings per row; any change to the bytes
of these reports shows up here first.

The JSON digests were re-pinned when every integer in a report became a
decimal string; `golden.assert_pinned` checks each against the digest it
replaced.
"""

import json
import random

import pytest
from golden import assert_pinned

from tautcalc import homology, jsonio, penner
from tautcalc.cli import main
from tautcalc.homology import TwistWord

VMATRIX = {
    (2, "json"): "3bd0806973c7ddf84dc74e525ceeb1fc86a781a892fb484e789a6f780916446b",
    (3, "json"): "ce2d1e5a9233a01c6e564a48b80ce4b7efe855ea953c478c6ba900b2af74b0b5",
    (6, "json"): "af85bc4c5b228790e3e044cc2087a94850a347b0748aa25f2c9a8b68306885ea",
    (30, "json"): "4265cfec0614daa301c9fb736d775b2098bb7d5158aaa1edf702cc7772368390",
    (120, "json"): "56d92fb18c6ed326516a27ebe6e2bf271485e4f1261a84d63d49836e016d6c9e",
    (240, "json"): "b8582cb3b597cf85c0f19361aabba10aa46e8d5849c5d79fd5136557cfb5f792",
    (2, "text"): "987845bdc6bcf88a23802bd9c567518c673274924b7c2aa704fd8435050eed79",
    (3, "text"): "a4a78dd497d2a5c1d5bc0970093ad75ec1509ffc88b63bb0aecc8920b556b0b2",
    (6, "text"): "bddb69adc6aa3a642a7519d3a98a2fb390f4657e26f08e7b5b2533aabe9cbc7d",
    (30, "text"): "704ca9ec571e4b7da427c5760062640d635322b822865444047eb5c339efe6c3",
    (120, "text"): "395cb7fc56c1f1930cffbc74852f77fe0c97d3525db1e496eed4077d0a170e21",
    (240, "text"): "82e0b4d28ad8c9a2744adae7c30624fe73cf681cf6fe0c0e4108cb05719abaf4",
}

BUNDLED = {"json": "fbfb6f108d339aac1048b2f24c28bef8ec09841c09e31f0edc9a47b774338ef3",
           "text": "04fdf26d76008dd70b8ff0ce9a0bbdcc4bd43a416e6c84d1aed5f4482fd0bd32"}

# a 40-letter word of mixed signs on the genus-3 chain: its action has
# negative entries and entries of six to eight characters, wider than a
# five-character text cell
SEEDED = {"json": "d1e24690555a0376156dbdc5e35c6fefa2f42864b203a370b0dfc12b1642085a",
          "text": "63f051f5ff8f5a04fd472e5641a41b4d0d342261dfb53e11950200857a90febf"}

# two words whose action fixes a nonzero class, so det(M - Id) = 0 and the
# report prints b2 > 1: one a1 twist on the genus-2 chain (b2 = 4), and the
# empty word on the genus-3 chain, whose action is the identity (b2 = 7)
FIXED_CLASS = {
    (2, "a1", "json"): "1c91636bf1a7ecb83d780dc38a9805c81278a05fb070c2a674c44d2f89a788e2",
    (2, "a1", "text"): "196fb0feb4d6d3da0a8c6c0830c60fac7baa20d3e854212ac8d92cf5a2397c85",
    (3, "", "json"): "9762d0061c3f53b8cc9a738b45b4e427763bffcfe426334fb8c77e4a0ca2ec28",
    (3, "", "text"): "1a030f0e75c73be6d89c31b9a240f8ca0b880bbccacd8ade8490a20e8a137dff",
}


def report(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def seeded_input(seed, extra):
    """The genus-3 chain system with every curve once plus `extra` random
    ones, shuffled, each with a random exponent in -3..3 other than 0."""
    system, _ = penner.chain_system(3)
    rng = random.Random(seed)
    curves = list(system.curves)
    order = curves + [rng.choice(curves) for _ in range(extra)]
    rng.shuffle(order)
    word = TwistWord(tuple((c.label, rng.choice([-3, -2, -1, 1, 2, 3])) for c in order))
    return system, word


@pytest.mark.parametrize("genus,fmt", sorted(VMATRIX))
def test_vmatrix_bytes(capsys, genus, fmt):
    assert_pinned(report(capsys, "vmatrix", "--genus", str(genus), "--format", fmt), VMATRIX[genus, fmt])


@pytest.mark.parametrize("fmt", sorted(BUNDLED))
def test_bundled_penner_bytes(capsys, fmt):
    assert_pinned(report(capsys, "penner", "--format", fmt), BUNDLED[fmt])


@pytest.mark.parametrize("fmt", sorted(SEEDED))
def test_seeded_penner_bytes(capsys, tmp_path, fmt):
    system, word = seeded_input(3, 33)
    entries = [v for row in homology.word_action(word, system.generator_map()).nonzeros for v in row.values()]
    assert min(entries) < 0 and max(len(str(v)) for v in entries) > 5
    path = tmp_path / "input.json"
    path.write_text(json.dumps({**jsonio.curve_system_to_json(system), "word": jsonio.word_to_json(word)}))
    # a word of mixed signs is not an opposite-twist word, so the report fails
    assert main(["penner", "--input", str(path), "--format", fmt]) == 1
    assert_pinned(capsys.readouterr().out, SEEDED[fmt])


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_output_file_holds_the_printed_bytes(tmp_path, fmt):
    path = tmp_path / "report"
    assert main(["vmatrix", "--genus", "120", "--format", fmt, "--output", str(path)]) == 0
    assert_pinned(path.read_text(), VMATRIX[120, fmt])


@pytest.mark.parametrize("genus,label,fmt", sorted(FIXED_CLASS))
def test_fixed_class_penner_bytes(capsys, tmp_path, genus, label, fmt):
    system, _ = penner.chain_system(genus)
    word = [{"label": label, "exp": 1}] if label else []
    path = tmp_path / "input.json"
    path.write_text(json.dumps({**jsonio.curve_system_to_json(system), "word": word}))
    # the word is not an opposite-twist word and fixes a class, so the report fails
    assert main(["penner", "--input", str(path), "--format", fmt]) == 1
    assert_pinned(capsys.readouterr().out, FIXED_CLASS[genus, label, fmt])
