"""Byte-for-byte pins of the reports that print an action matrix.

The digests were taken while each matrix still reached the writers as a
list of rows of decimal strings, n strings per row; any change to the bytes
of these reports shows up here first.
"""

import hashlib
import json
import random

import pytest

from tautcalc import homology, jsonio, penner
from tautcalc.cli import main
from tautcalc.homology import TwistWord

VMATRIX = {
    (2, "json"): "a303063f5ce110c4ed8cd65cd4dac1dc9de40db211cff3f6e8981467e6ba8602",
    (3, "json"): "df39adc1ab4ea81d591a4df2ec1477bc7a896af396cb585b12b2f4347b6da8a1",
    (6, "json"): "74c7287768c16dff023baee698bb474395077f4be46628432e0159290630b0ed",
    (30, "json"): "3548f8441b3b66887ff95f54f52d0c5d8589af6bd9a3b4a9a1045a513396d1d3",
    (120, "json"): "ea1064cb1f091b7f9603a20e908fdc45e50c710007e95408fd32b6df5a6c1c9e",
    (240, "json"): "1238d9d74d2d717ddef1edf9466597ccdefc3cae580d0fa15261b32ef660379b",
    (2, "text"): "987845bdc6bcf88a23802bd9c567518c673274924b7c2aa704fd8435050eed79",
    (3, "text"): "a4a78dd497d2a5c1d5bc0970093ad75ec1509ffc88b63bb0aecc8920b556b0b2",
    (6, "text"): "bddb69adc6aa3a642a7519d3a98a2fb390f4657e26f08e7b5b2533aabe9cbc7d",
    (30, "text"): "704ca9ec571e4b7da427c5760062640d635322b822865444047eb5c339efe6c3",
    (120, "text"): "395cb7fc56c1f1930cffbc74852f77fe0c97d3525db1e496eed4077d0a170e21",
    (240, "text"): "82e0b4d28ad8c9a2744adae7c30624fe73cf681cf6fe0c0e4108cb05719abaf4",
}

BUNDLED = {"json": "ec26260f616c9cdeb8249067559aa727e93afb41c0b5e08a26a6d4c287139381",
           "text": "04fdf26d76008dd70b8ff0ce9a0bbdcc4bd43a416e6c84d1aed5f4482fd0bd32"}

# a 40-letter word of mixed signs on the genus-3 chain: its action has
# negative entries and entries of six to eight characters, wider than a
# five-character text cell
SEEDED = {"json": "91b6b27720c20fb677a1cdc8d093fda7c6b45e6081766dfccb0ad83576bb97ca",
          "text": "63f051f5ff8f5a04fd472e5641a41b4d0d342261dfb53e11950200857a90febf"}


def digest(capsys, *argv):
    assert main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


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
    assert digest(capsys, "vmatrix", "--genus", str(genus), "--format", fmt) == VMATRIX[genus, fmt]


@pytest.mark.parametrize("fmt", sorted(BUNDLED))
def test_bundled_penner_bytes(capsys, fmt):
    assert digest(capsys, "penner", "--format", fmt) == BUNDLED[fmt]


@pytest.mark.parametrize("fmt", sorted(SEEDED))
def test_seeded_penner_bytes(capsys, tmp_path, fmt):
    system, word = seeded_input(3, 33)
    entries = [v for row in homology.word_action(word, system.generator_map()).nonzeros for v in row.values()]
    assert min(entries) < 0 and max(len(str(v)) for v in entries) > 5
    path = tmp_path / "input.json"
    path.write_text(json.dumps({**jsonio.curve_system_to_json(system), "word": jsonio.word_to_json(word)}))
    # a word of mixed signs is not an opposite-twist word, so the report fails
    assert main(["penner", "--input", str(path), "--format", fmt]) == 1
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SEEDED[fmt]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_output_file_holds_the_printed_bytes(tmp_path, fmt):
    path = tmp_path / "report"
    assert main(["vmatrix", "--genus", "120", "--format", fmt, "--output", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == VMATRIX[120, fmt]
