"""Byte-for-byte pins of the `sutured` reports, in JSON and in text.

Their text form takes the renderer's list-of-dicts branch (the tangencies,
the witness steps), so any change to how a report's records are laid out
shows up here first.
"""

import hashlib
import json

import pytest

from tautcalc.cli import main

REPORTS = {
    "chi": ["sutured", "chi", "--base-chi", "1", "--convex", "4", "--concave", "1"],
    "core-disk": ["sutured", "core-disk", "--wraps", "3"],
    "witness": ["sutured", "witness", "--k", "3", "--m", "-2"],
}

# a mix of saddles and centers, and a saddle-only list, whose report adds
# fully_marked
TANGENCIES = {
    "mixed": [
        {"kind": "saddle", "sign": 1},
        {"kind": "center", "sign": -1},
        {"kind": "saddle", "sign": -1},
        {"kind": "center", "sign": 1},
        {"kind": "saddle", "sign": 1},
    ],
    "saddle-only": [
        {"kind": "saddle", "sign": -1},
        {"kind": "saddle", "sign": -1},
        {"kind": "saddle", "sign": -1},
    ],
}

DIGESTS = {
    ("chi", "json"): "9bda900758f6c71f97215a446c0aade822e54c055a286aa61f37dd5feec20ddb",
    ("chi", "text"): "4d1e5c5094697e87438e71e72ba23dd6a3c8d2eeca361011eb59f8c5e47e7c4f",
    ("core-disk", "json"): "da285c971242c345558b349fb2876279b43e2dada5d2a3200fef09c5f3604ef0",
    ("core-disk", "text"): "99a38480fe21da093bf346b863a9b2b33b7cf262214c214dbd250c219cb56b7f",
    ("witness", "json"): "242c8290b1cd6b3847593870ea571f22df1c8b77d7bcb4c315dc0d82ddcbe72c",
    ("witness", "text"): "35ea68cbb073642467d8f4bf7e0f018db909731585ccf185ff25d2bee01d3fdb",
    ("mixed", "json"): "badccc71aa07713c295f2fca0fd0b902e299067c06b95e101e5a8be546a36950",
    ("mixed", "text"): "c928eb473877a9d6190300006541e9af826da36c7866748308450a010ae7d01a",
    ("saddle-only", "json"): "e231b90bbab2e7a7d948da7c09addf6a3a9ee9eb777921bc858393c0246bf2b3",
    ("saddle-only", "text"): "d2f4779107ac14aaa42d2f91dca604249c0ecda053282b8cf21cfcffc2a1092b",
}


def digest(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("name,fmt", [key for key in sorted(DIGESTS) if key[0] in REPORTS])
def test_sutured_bytes(capsys, name, fmt):
    assert digest(capsys, REPORTS[name] + ["--format", fmt]) == DIGESTS[name, fmt]


@pytest.mark.parametrize("name,fmt", [key for key in sorted(DIGESTS) if key[0] in TANGENCIES])
def test_sutured_pairing_bytes(capsys, tmp_path, name, fmt):
    path = tmp_path / "tangencies.json"
    path.write_text(json.dumps(TANGENCIES[name]))
    argv = ["sutured", "pairing", "--input", str(path), "--format", fmt]
    assert digest(capsys, argv) == DIGESTS[name, fmt]
