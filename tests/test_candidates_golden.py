"""Byte-for-byte pins of the `candidates` report.

The digests were taken from the Fraction-based hull and edge walk, before
the polygon code moved to one integer scale; any change to the bytes of
these reports shows up here first.

The JSON digests were re-pinned when every integer in a report became a
decimal string; `golden.assert_pinned` checks each against the digest it
replaced.
"""

import json

import pytest
from golden import assert_pinned

from tautcalc.cli import main

FAMILY = {
    3: "04bc56a1548389cc3349d402389add26cad2b734cc9d508095f5973c6d2ceaa7",
    30: "7d49a16f7e73b14f5919135d598d55a7897923d69e30949e84c8e896c1ad4efb",
    300: "de6258f7663678e77bfe3674974a2f33cf3a78108e822bc74cd1eaa5fa715dee",
    2048: "26650938cdf30e0e01db5a3d24cbdf40a54dcee1308f19a05e6fc82d5c241ade",
}

# (genus, spec, digest): x(S+F) = x(S) makes the tight spec's (0, -x(S)) a
# dual-ball vertex; the loose one keeps both diagonals strictly inside
# [x(S), x(S) + x(F)]; the rational one gives the dual ball eight
# non-integral vertices.
SPECS = {
    "tight": (21, {"x_f": "8", "x_s": "40", "x_sum": "40", "x_diff": "45", "chi": ["-8", "-40"]},
              "80aac55d95a2cd2f5f6492e6832690ebc26b39b4904ffb61437e79c134c0cf7c"),
    "loose": (31, {"x_f": "10", "x_s": "60", "x_sum": "63", "x_diff": "67", "chi": ["-10", "-60"]},
              "15a2efaf24ba2b2cd1e58688761b35261c5d94c003411c4d24929c4cc57e7c21"),
    "rational": (29, {"x_f": "16", "x_s": "56", "x_sum": "287/4", "x_diff": "283/4", "chi": ["-2", "-2"]},
                 "3870841d02a65c6567f87d5f034a6780baaed5d563c6a596a1082b86d2aa90c1"),
}

TEXT_GENUS_3 = "b460a05445ddecd40e80d946076a98f053ed93ebba3400ebd6afb1fdb95e7273"


def report(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("genus", sorted(FAMILY))
def test_family_json_bytes(capsys, genus):
    assert_pinned(report(capsys, "candidates", "--genus", str(genus), "--format", "json"), FAMILY[genus])


def test_family_text_bytes(capsys):
    assert_pinned(report(capsys, "candidates", "--genus", "3", "--format", "text"), TEXT_GENUS_3)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_spec_json_bytes(capsys, tmp_path, name):
    genus, spec, expected = SPECS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    assert_pinned(report(capsys, "candidates", "--genus", str(genus), "--spec", str(path), "--format", "json"),
                  expected)
