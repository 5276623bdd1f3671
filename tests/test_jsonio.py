import json

import pytest

from tautcalc import jsonio
from tautcalc.holonomy import bundled_shifts
from tautcalc.homology import word_action
from tautcalc.matrices import IntMatrix
from tautcalc.penner import chain_system
from tautcalc.polytope import NormSpec, norm_ball_from_values
from tautcalc.sutured import novikov_witness


def test_scalar_formats():
    from fractions import Fraction

    assert jsonio.fmt_frac(Fraction(1, 2)) == "1/2"
    assert jsonio.fmt_frac(Fraction(-4)) == "-4"
    assert jsonio.parse_frac("1/2", "x") == Fraction(1, 2)
    assert jsonio.parse_frac("-4", "x") == Fraction(-4)
    assert jsonio.parse_int("12", "x") == 12
    with pytest.raises(ValueError):
        jsonio.parse_frac(0.5, "x")
    with pytest.raises(ValueError):
        jsonio.parse_int("1/2", "x")


def test_matrix_roundtrip():
    system, word = chain_system(3)
    m = word_action(word, system.generator_map())
    data = json.loads(json.dumps(jsonio.matrix_to_json(m)))
    assert data[0] == ["2", "3", "0", "1", "0", "0"]
    assert IntMatrix([[int(e) for e in row] for row in data]) == m


def test_curve_system_roundtrip():
    for system, word in (chain_system(3), chain_system(6)):
        doc = jsonio.curve_system_to_json(system)
        doc["word"] = jsonio.word_to_json(word)
        raw = json.dumps(doc)
        back = jsonio.curve_system_from_json(json.loads(raw), "sys")
        back_word = jsonio.word_from_json(json.loads(raw)["word"], "word")
        assert back == system
        assert back_word == word
        assert word_action(back_word, back.generator_map()) == word_action(
            word, system.generator_map()
        )


def test_norm_spec_roundtrip():
    spec = NormSpec.surgery_family(4)
    doc = jsonio.norm_spec_to_json(spec)
    assert doc["x_s"] == "6"
    back = jsonio.norm_spec_from_json(doc)
    assert back == spec
    assert norm_ball_from_values(back) == norm_ball_from_values(spec)


def test_witness_serialization():
    doc = jsonio.witness_to_json(novikov_witness(2, 3))
    assert doc["steps"][-1]["running_total"] == "0"
    assert doc["final_exponent"] == "0"


def test_pl_roundtrip():
    u, v = bundled_shifts()
    for f in (u, v):
        doc = jsonio.pl_to_json(f)
        assert jsonio.pl_from_json(doc) == f


def test_geo_int_lower_triangle_shape():
    system, _ = chain_system(3)
    doc = jsonio.curve_system_to_json(system)
    assert [len(row) for row in doc["geo_int"]] == list(range(len(system.curves)))
    bad = dict(doc)
    bad["geo_int"] = doc["geo_int"][:-1]
    with pytest.raises(ValueError, match="geo_int"):
        jsonio.curve_system_from_json(bad, "sys")
