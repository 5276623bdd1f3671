"""Byte-for-byte pins of the `candidates` report.

The digests were taken from the Fraction-based hull and edge walk, before
the polygon code moved to one integer scale; any change to the bytes of
these reports shows up here first.
"""

import hashlib
import json

import pytest

from tautcalc.cli import main

FAMILY = {
    3: "1184f4f957e7157bf906f1f715b2d76f07c0bdbeca42edd6e38cffe8e82e935d",
    30: "4dc0bdc81d54ddde41e8e6b73484b0b8ebfce5c5b14be5c82798dd8f0f3b3c66",
    300: "781815e4d4e244614fe992308697e8fa108e0f558a42e4c9ac2eea87ba86a7e1",
    2048: "f8f5d431175cb4b948ce765fc0994b3fbb53defe48677910f2b43cfdce73ad6f",
}

# (genus, spec, digest): x(S+F) = x(S) makes the tight spec's (0, -x(S)) a
# dual-ball vertex; the loose one keeps both diagonals strictly inside
# [x(S), x(S) + x(F)]; the rational one gives the dual ball eight
# non-integral vertices.
SPECS = {
    "tight": (21, {"x_f": "8", "x_s": "40", "x_sum": "40", "x_diff": "45", "chi": ["-8", "-40"]},
              "a49aff87d8595698d7fc77a65f90e9bf3686f55d882acc04ff21c80d6d6bf6bf"),
    "loose": (31, {"x_f": "10", "x_s": "60", "x_sum": "63", "x_diff": "67", "chi": ["-10", "-60"]},
              "f7c8fa2a26765ca22d2cfcacc1e840c630840bf34d11581643cbd7aa34379642"),
    "rational": (29, {"x_f": "16", "x_s": "56", "x_sum": "287/4", "x_diff": "283/4", "chi": ["-2", "-2"]},
                 "c920077ed3e83b212167ef7c69b20968613e10642491e5965b41ab8d4f9f36d6"),
}

TEXT_GENUS_3 = "b460a05445ddecd40e80d946076a98f053ed93ebba3400ebd6afb1fdb95e7273"


def digest(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("genus", sorted(FAMILY))
def test_family_json_bytes(capsys, genus):
    assert digest(capsys, "candidates", "--genus", str(genus), "--format", "json") == FAMILY[genus]


def test_family_text_bytes(capsys):
    assert digest(capsys, "candidates", "--genus", "3", "--format", "text") == TEXT_GENUS_3


@pytest.mark.parametrize("name", sorted(SPECS))
def test_spec_json_bytes(capsys, tmp_path, name):
    genus, spec, expected = SPECS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    assert digest(capsys, "candidates", "--genus", str(genus), "--spec", str(path), "--format", "json") == expected
