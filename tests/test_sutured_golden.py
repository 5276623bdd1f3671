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
    ("witness", "json"): "aaef834bf20e7e3bf9d82f1d500fab6c5c89acdb8318c117b07d935cabefb7e7",
    ("witness", "text"): "2013e1e7414e7eac4e198a84673e251cea153904aec71fa23cc6fc81b30711e7",
    ("mixed", "json"): "9a05814dc7caefe75ca56ecbec4e3e62f60b463a404117e3796ad49ef05ef4e0",
    ("mixed", "text"): "417e8ca7723dc6a9e98fcbd5a80a38852e6fd71fa30e2d758b69279f5f95f443",
    ("saddle-only", "json"): "759362be8d8c667176b8b67ba7560a2140b4a33c0482d5dc627928820fa20ab5",
    ("saddle-only", "text"): "b219afd19839e98e7b905f53c6678782635035c7b751dc30805dc9aba7f1f4b8",
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
