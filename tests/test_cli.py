import argparse
import ast
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from tautcalc import cli, holonomy, homology, jsonio, polytope
from tautcalc.cli import main
from tautcalc.homology import MAX_ACTION_BITS, MAX_TWIST_EXPONENT
from tautcalc.holonomy import MAX_BREAKPOINTS, MAX_SAMPLES, MAX_TILES
from tautcalc.matrices import IntMatrix
from tautcalc.penner import MAX_CHAIN_GENUS, chain_system
from tautcalc.polytope import MAX_NORM_VALUE
from tautcalc.sutured import MAX_SURFACE_COUNT, MAX_TORUS_COUNT, MAX_WITNESS_K, MAX_WITNESS_M


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def _bundled_penner_doc():
    """The input document of the genus-3 chain system that `penner` reports on by default."""
    system, word = chain_system(3)
    return {**jsonio.curve_system_to_json(system), "word": jsonio.word_to_json(word)}


def test_vmatrix_pass(capsys):
    code, doc = run_json(capsys, "vmatrix", "--genus", "6")
    assert code == 0
    assert doc["status"] == "PASS"
    assert doc["det_abs"] == "7"
    assert doc["matrix"][0][:6] == ["2", "3", "0", "1", "0", "0"]


def test_vmatrix_json_genus12(capsys):
    code, doc = run_json(capsys, "vmatrix", "--genus", "12")
    assert code == 0
    assert doc["det_abs"] == "13"


def test_vmatrix_small_genus_usage_error(capsys):
    for genus, message in ((1, "genus must be an integer >= 2"),
                           (MAX_CHAIN_GENUS + 1, f"genus must be at most {MAX_CHAIN_GENUS}")):
        code, out, err = run(capsys, "vmatrix", "--genus", str(genus))
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("genus", range(2, 6))
def test_vmatrix_small_genera_pass(capsys, genus):
    code, doc = run_json(capsys, "vmatrix", "--genus", str(genus))
    assert code == 0
    assert doc["status"] == "PASS"
    assert doc["det_abs"] == str(genus + 1)


def test_candidates_point_off_the_boundary_fails(monkeypatch, capsys):
    # the dual-norm check reads the ball, not the walk that lists the points
    walk = polytope.integral_boundary_points
    monkeypatch.setattr(polytope, "integral_boundary_points",
                        lambda dual, spacing=1: walk(dual, spacing) + [polytope.CandidatePoint((0, 0), False)])
    code, doc = run_json(capsys, "candidates", "--genus", "3")
    assert code == 1
    assert ["0", "0"] in [c["coords"] for c in doc["candidates"]]
    checks = {c["name"]: c["pass"] for c in doc["checks"]}
    assert checks == {"point (0, -4) flagged as the non-realizable candidate": True,
                      "every listed point has dual norm one": False}


def _emitted_check_names():
    """Each check name `cli` can emit, as written there, with each field of
    an f-string shown as {}."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict) and [getattr(k, "value", None) for k in node.keys] == ["name", "pass"]:
            name = node.values[0]
            parts = name.values if isinstance(name, ast.JoinedStr) else [name]
            yield "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in parts)


def _wrong_det(monkeypatch, tmp_path):
    torus = homology.mapping_torus

    def shifted(m):
        diff, det, b2 = torus(m)
        return diff, det + 1, b2

    monkeypatch.setattr(homology, "mapping_torus", shifted)
    return ["vmatrix", "--genus", "3"]


def _tip_unflagged(monkeypatch, tmp_path):
    candidates = polytope.candidate_points

    def unflagged(spec, genus):
        ball, dual, points = candidates(spec, genus)
        return ball, dual, [p._replace(counterexample=False) for p in points]

    monkeypatch.setattr(polytope, "candidate_points", unflagged)
    return ["candidates", "--genus", "3"]


def _dual_norm_two(monkeypatch, tmp_path):
    maxima = polytope._dual_norm_maxima

    def doubled(ball, points):
        values, d = maxima(ball, points)
        return [2 * n for n in values], d

    monkeypatch.setattr(polytope, "_dual_norm_maxima", doubled)
    return ["candidates", "--genus", "3"]


def _fixed_class_input(monkeypatch, tmp_path):
    # one a1 twist on the genus-2 chain: not an opposite-twist word, and it
    # fixes every class that pairs to zero with a1
    doc = {**jsonio.curve_system_to_json(chain_system(2)[0]), "word": [{"label": "a1", "exp": 1}]}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    return ["penner", "--input", str(path)]


def _wrong_conjugator(monkeypatch, tmp_path):
    # the middle index moved by one, as in test_holonomy's wrong-conjugator test
    shift = holonomy.TileShiftMap
    monkeypatch.setattr(holonomy, "TileShiftMap", lambda m, k: shift((m + 1) % k, k))
    return ["holonomy", "tau", "--case", next(iter(holonomy.EXPRESSIONS))]


# for each check `cli` can emit, a committed input or a named fault that
# makes it FAIL; a check that nothing can fail is no check
FAILING = {
    "abs-det-minus-identity-equals-genus-plus-one": _wrong_det,
    "point (0, {}) flagged as the non-realizable candidate": _tip_unflagged,
    "every listed point has dual norm one": _dual_norm_two,
    "word is a valid opposite-twist word": _fixed_class_input,
    "no nonzero fixed homology class": _fixed_class_input,
    "conjugacy identity exact at all samples": _wrong_conjugator,
}


def test_every_check_has_an_input_or_fault_that_fails_it():
    assert sorted(_emitted_check_names()) == sorted(FAILING)


@pytest.mark.parametrize("name", sorted(FAILING))
def test_check_fails_on_its_input_or_fault(monkeypatch, tmp_path, capsys, name):
    code, doc = run_json(capsys, *FAILING[name](monkeypatch, tmp_path))
    pattern = "".join(".+" if part == "{}" else re.escape(part) for part in re.split(r"(\{\})", name))
    verdicts = [c["pass"] for c in doc["checks"] if re.fullmatch(pattern, c["name"])]
    assert (code, doc["status"], verdicts) == (1, "FAIL", [False])


def test_vmatrix_genus_capped(capsys):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "vmatrix", "--genus", "1000000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == f"error: genus must be at most {MAX_CHAIN_GENUS}\n"
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "argv, message",
    [
        (("holonomy", "tau", "--case", "a", "--tiles", str(10**18)), f"tiles must be at most {MAX_TILES}"),
        (("holonomy", "tau", "--case", "a", "--samples", str(10**18)), f"samples must be at most {MAX_SAMPLES}"),
        (("sutured", "witness", "--k", str(10**18), "--m", "1"), f"k must be at most {MAX_WITNESS_K}"),
        (("sutured", "witness", "--k", str(-10**18), "--m", "1"), f"k must be at most {MAX_WITNESS_K}"),
        # a 4299-digit m parses, but |k| * |m| would pass the 4300-digit str() limit
        (("sutured", "witness", "--k", "4096", "--m", "9" * 4299), f"m must be at most {MAX_WITNESS_M}"),
        (("sutured", "witness", "--k", "1", "--m", str(-MAX_WITNESS_M - 1)), f"m must be at most {MAX_WITNESS_M}"),
        # 20 sutures of 4299-digit wraps, or chi from 4300-digit fields, would pass the str() limit
        (("sutured", "core-disk", "--wraps", "9" * 4299, "--sutures", "20"),
         f"longitude_wraps must be at most {MAX_TORUS_COUNT}"),
        (("sutured", "core-disk", "--wraps", "1", "--sutures", str(MAX_TORUS_COUNT + 1)),
         f"suture_count must be at most {MAX_TORUS_COUNT}"),
        (("sutured", "chi", "--base-chi", "-" + "9" * 4300, "--convex", "9" * 4300),
         f"base_chi must be at most {MAX_SURFACE_COUNT}"),
        (("sutured", "chi", "--base-chi", "0", "--concave", str(MAX_SURFACE_COUNT + 1)),
         f"concave must be at most {MAX_SURFACE_COUNT}"),
    ],
)
def test_report_sizes_capped(capsys, argv, message):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert peak < 1_000_000


# Seconds a report at its route's caps may take.  The slowest below took
# 0.10 to 0.16 s in process (holonomy tau) on a shared 2-core machine with
# Python 3.11, whose speed swings about twofold from run to run.
REPORT_BUDGET_S = 2.0

# each route's largest allowed input; penner --input and long holonomy map
# entries are not bounded at the caps yet, so they have no row
LARGEST_INPUTS = {
    "candidates-genus": ["candidates", "--genus", str(MAX_NORM_VALUE // 2)],
    "candidates-spec": ["candidates", "--genus", "3", "--spec", "spec.json"],
    "vmatrix": ["vmatrix", "--genus", str(MAX_CHAIN_GENUS)],
    "sutured-chi": ["sutured", "chi", "--base-chi", str(-MAX_SURFACE_COUNT),
                    "--convex", str(MAX_SURFACE_COUNT), "--concave", str(MAX_SURFACE_COUNT)],
    "sutured-core-disk": ["sutured", "core-disk", "--wraps", str(MAX_TORUS_COUNT), "--sutures", str(MAX_TORUS_COUNT)],
    "sutured-witness": ["sutured", "witness", "--k", str(MAX_WITNESS_K), "--m", str(MAX_WITNESS_M)],
    # one tile fewer than the cap gives the most points: 3 in each of 8190 tiles
    "holonomy-tau": ["holonomy", "tau", "--case", "a", "--tiles", str(MAX_TILES - 1), "--samples", str(MAX_SAMPLES)],
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("route", list(LARGEST_INPUTS))
def test_largest_inputs_end_within_budget(monkeypatch, tmp_path, route, fmt):
    # no hang: every route's largest allowed input ends in a report
    monkeypatch.chdir(tmp_path)
    value = str(MAX_NORM_VALUE)
    (tmp_path / "spec.json").write_text(json.dumps(
        {"x_f": value, "x_s": value, "x_sum": value, "x_diff": value, "chi": ["0", "0"]}))
    start = time.perf_counter()
    code = main([*LARGEST_INPUTS[route], "--format", fmt, "--output", "report"])
    elapsed = time.perf_counter() - start
    assert code == 0 and (tmp_path / "report").stat().st_size > 0
    assert elapsed < REPORT_BUDGET_S, f"{route} --format {fmt}: {elapsed:.3f} s"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_largest_matrix_report_held_once(tmp_path, fmt):
    # the report is held as its pieces, plus one block of them and that
    # block's UTF-8 copy; one whole string and its copy would double it
    path = tmp_path / "report"
    argv = ["vmatrix", "--genus", str(MAX_CHAIN_GENUS), "--format", fmt, "--output", str(path)]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 1.3 * path.stat().st_size


def test_candidates_genus3(capsys):
    code, doc = run_json(capsys, "candidates", "--genus", "3")
    assert code == 0
    flagged = [c for c in doc["candidates"] if c["counterexample"]]
    assert {tuple(c["coords"]) for c in flagged} == {("0", "-4"), ("0", "4")}
    vertices = [c for c in doc["candidates"] if c["location"] == "boundary-vertex"]
    assert len(vertices) == 4
    assert all(c["realizability"] == "realizable-vertex" for c in vertices)
    # chi is even, so only even coordinates are listed
    assert all(int(x) % 2 == 0 and int(y) % 2 == 0 for x, y in (c["coords"] for c in doc["candidates"]))


def test_candidates_custom_spec(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {"x_f": "2", "x_s": "4", "x_sum": "6", "x_diff": "6", "chi": ["-2", "-4"]}
        )
    )
    code, doc = run_json(capsys, "candidates", "--genus", "3", "--spec", str(path))
    assert code == 0
    assert any(c["counterexample"] for c in doc["candidates"])


def test_candidates_spec_outside_family_passes(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps({"x_f": "2", "x_s": "4", "x_sum": "4", "x_diff": "4", "chi": ["-2", "-4"]})
    )
    code, doc = run_json(capsys, "candidates", "--genus", "3", "--spec", str(path))
    assert code == 0
    assert doc["status"] == "PASS"
    assert not any(c["counterexample"] for c in doc["candidates"])


def test_candidates_genus_bound(capsys):
    code, out, err = run(capsys, "candidates", "--genus", "1")
    assert code == 2
    assert err == "error: genus must be an integer >= 2\n"
    code, doc = run_json(capsys, "candidates", "--genus", "2")
    assert code == 0
    assert doc["status"] == "PASS"


def test_candidates_genus_bound_with_spec(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"x_f": "2", "x_s": "4", "x_sum": "4", "x_diff": "4", "chi": ["-2", "-4"]}))
    code, out, err = run(capsys, "candidates", "--genus", "1", "--spec", str(path))
    assert (code, out) == (2, "")
    assert err == "error: genus must be an integer >= 2\n"


def test_candidates_norm_value_cap(tmp_path, capsys):
    cap = MAX_NORM_VALUE
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"x_f": "2", "x_s": str(cap + 1), "x_sum": str(cap + 1), "x_diff": str(cap + 1),
                                "chi": ["-2", "-4"]}))
    code, out, err = run(capsys, "candidates", "--genus", "3", "--spec", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: spec: x_s must be at most {cap}\n"
    code, out, err = run(capsys, "candidates", "--genus", str(cap // 2 + 1))
    assert (code, out) == (2, "")
    assert err == f"error: genus must be at most {cap // 2}\n"
    code, doc = run_json(capsys, "candidates", "--genus", str(cap // 2))
    assert (code, doc["status"]) == (0, "PASS")


def test_candidates_spec_above_the_triangle_inequality(tmp_path, capsys):
    # x(S+F) > x(S) + x(F) puts (1, 1)/x(S+F) inside the ball, which refuses it;
    # so does x(S+F) + x(S-F) < 2 max(x(F), x(S)), which puts an axis point inside
    path = tmp_path / "spec.json"
    for values in (("2", "4", "7", "6"), ("2", "4", "3", "3"), ("4", "2", "3", "3")):
        spec = dict(zip(("x_f", "x_s", "x_sum", "x_diff"), values), chi=["-2", "-4"])
        path.write_text(json.dumps(spec))
        assert run(capsys, "candidates", "--genus", "3", "--spec", str(path)) == (
            2, "", "error: spec: norm values are inconsistent (some value is too large)\n"), values


def test_candidates_large_genus_with_small_spec(tmp_path, capsys):
    # the genus only decides whether the spec is the family; a large one is no error
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"x_f": "2", "x_s": "4", "x_sum": "6", "x_diff": "6", "chi": ["-2", "-4"]}))
    code, doc = run_json(capsys, "candidates", "--genus", "3000", "--spec", str(path))
    assert (code, doc["status"]) == (0, "PASS")
    assert [c["name"] for c in doc["checks"]] == ["every listed point has dual norm one"]
    assert not any(c["counterexample"] for c in doc["candidates"])


def test_penner_bundled_fixture(capsys):
    code, doc = run_json(capsys, "penner")
    assert code == 0
    assert doc["report"]["word_valid"] is True
    assert doc["mapping_torus_b2"] == 1
    assert doc["fixed_homology_trivial"] is True


def test_penner_default_matches_chain_system_input(tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(_bundled_penner_doc()))
    for fmt in ("text", "json"):
        default = run(capsys, "penner", "--format", fmt)
        assert default == run(capsys, "penner", "--input", str(path), "--format", fmt)
        assert default[0] == 0


def test_penner_fixed_class_fails(tmp_path, capsys):
    # a single twist fixes every class that pairs to zero with its curve
    doc = {**jsonio.curve_system_to_json(chain_system(2)[0]), "word": [{"label": "a1", "exp": 1}]}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    code, doc = run_json(capsys, "penner", "--input", str(path))
    assert code == 1
    assert doc["mapping_torus_b2"] == 4
    assert doc["fixed_homology_trivial"] is False
    checks = {c["name"]: c["pass"] for c in doc["checks"]}
    assert checks["no nonzero fixed homology class"] is False


def test_twist_action_built_once_per_report(tmp_path, monkeypatch, capsys):
    # M and M - Id are built once per report, and one elimination of M - Id
    # gives both det(M - Id) and b2, also when the determinant is 0
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(homology, "word_action", counted("word_action", homology.word_action))
    for name in ("minus_identity", "_echelon"):
        monkeypatch.setattr(IntMatrix, name, counted(name, getattr(IntMatrix, name)))
    path = tmp_path / "system.json"
    path.write_text(json.dumps({**jsonio.curve_system_to_json(chain_system(2)[0]),
                                "word": [{"label": "a1", "exp": 1}]}))
    for argv, code in ((["vmatrix", "--genus", "30"], 0), (["penner"], 0), (["penner", "--input", str(path)], 1)):
        counts.update(word_action=0, minus_identity=0, _echelon=0)
        assert run(capsys, *argv)[0] == code
        assert counts == {"word_action": 1, "minus_identity": 1, "_echelon": 1}, argv


def test_penner_input_genus_capped(tmp_path, monkeypatch, capsys):
    # one curve over a genus above the cap: the report would print M densely
    def one_curve(genus):
        curve = {"label": "c", "coords": ["1"] + ["0"] * (2 * genus - 1), "family": "A"}
        return {"genus": genus, "curves": [curve], "geo_int": [[]], "word": [{"label": "c", "exp": -1}]}

    path = tmp_path / "system.json"
    path.write_text(json.dumps(one_curve(MAX_CHAIN_GENUS)))
    code, doc = run_json(capsys, "penner", "--input", str(path))
    assert (code, doc["genus"], len(doc["action_matrix"])) == (1, MAX_CHAIN_GENUS, 2 * MAX_CHAIN_GENUS)

    def refuse(*args):
        raise AssertionError("action built above the genus cap")

    monkeypatch.setattr(homology, "word_action", refuse)
    path.write_text(json.dumps(one_curve(MAX_CHAIN_GENUS + 1)))
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "penner", "--input", str(path), "--format", fmt)
        assert (code, out, err) == (2, "", f"error: input.genus: genus must be at most {MAX_CHAIN_GENUS}\n")


def test_penner_invalid_word_fails_checks(tmp_path, capsys):
    doc = _bundled_penner_doc()
    doc["word"] = [e for e in doc["word"] if e["label"] != "b1"]
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "penner", "--input", str(path))
    assert code == 1


def test_penner_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "penner", "--input", str(path))
    assert code == 2
    assert "error" in err


def test_penner_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run(capsys, "penner", "--input", str(path))
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: input: ")


@pytest.mark.parametrize("argv, prefix", [
    (["candidates", "--genus", "3", "--spec", ""], "error: spec: "),
    (["candidates", "--genus", "3", "--output", ""], "error: "),
    (["vmatrix", "--genus", "6", "--output", ""], "error: "),
    (["penner", "--input", ""], "error: input: "),
    (["sutured", "pairing", "--input", ""], "error: input: "),
    (["holonomy", "tau", "--case", "a", "--u", "", "--v", ""], "error: u: "),
])
def test_empty_path_is_bad_input(capsys, argv, prefix):
    # an empty path names no file, as for any other path that cannot be opened
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith(prefix)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.pop("word"), "error: input: missing key 'word'\n"),
        (
            lambda doc: doc["word"][2].update(label="z9"),
            "error: input.word[2]: unknown curve label 'z9'\n",
        ),
        (
            lambda doc: doc["curves"][1].update(coords=["0", "2", "0", "0", "0", "0"]),
            "error: input.curves[1]: curve 'b1': class must be primitive or zero, got nonzeros ((1, 2),)\n",
        ),
        (
            lambda doc: doc["curves"][1].update(coords=["0", "1"]),
            "error: input.curves[1].coords: coordinate length must equal 2*genus\n",
        ),
        (
            # entries of the action grow as products of the exponents, past the str() digit limit
            lambda doc: doc["word"][0].update(exp=int("9" * 4000)),
            f"error: input.word: letter 'b2': exponent must be at most {MAX_TWIST_EXPONENT}\n",
        ),
        (
            # small exponents, but a long word: the entries reach about 20 000 bits
            lambda doc: doc.update(word=[{"label": "a1", "exp": -3}, {"label": "b1", "exp": 3}] * 6000),
            f"error: input.word: action entries must be at most {MAX_ACTION_BITS} bits long\n",
        ),
        (
            # a1 and a2 are both in family A and disjoint, so they must pair to 0
            lambda doc: doc["curves"][0].update(coords=["1", "2", "0", "0", "0", "0"]),
            "error: input: curves 'a1' and 'a2' pair to -2 but cross 0 times\n",
        ),
    ],
)
def test_penner_error_names_field(tmp_path, capsys, edit, message):
    doc = _bundled_penner_doc()
    edit(doc)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "penner", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == message


def test_penner_negative_intersection_names_entry(tmp_path, capsys):
    doc = _bundled_penner_doc()
    doc["geo_int"][1][0] = "-1"
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "penner", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "error: input: geo_int[1][0] must be a nonnegative integer\n"


def test_penner_empty_input_path_is_an_error(capsys):
    code, out, err = run(capsys, "penner", "--input", "")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: input: ")


def test_penner_missing_field_diagnostic(tmp_path, capsys):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"genus": 3, "curves": [{"label": "a1"}], "geo_int": [[]]}))
    code, out, err = run(capsys, "penner", "--input", str(path))
    assert code == 2
    assert "curves[0]" in err


def test_sutured_core_disk(capsys):
    code, doc = run_json(capsys, "sutured", "core-disk", "--wraps", "3")
    assert code == 0
    assert doc["chi"] == "-2"
    code, doc = run_json(capsys, "sutured", "core-disk", "--wraps", "2")
    assert doc["chi"] == "-1"


def test_sutured_chi(capsys):
    code, doc = run_json(capsys, "sutured", "chi", "--base-chi", "1", "--convex", "4")
    assert code == 0
    assert doc["chi"] == "-1"


def test_sutured_witness(capsys):
    code, doc = run_json(capsys, "sutured", "witness", "--k", "2", "--m", "3")
    assert code == 0
    steps = doc["witness"]["steps"]
    assert [s["running_total"] for s in steps] == ["6", "0"]
    assert doc["witness"]["final_exponent"] == "0"


def test_sutured_pairing(tmp_path, capsys):
    path = tmp_path / "tangencies.json"
    path.write_text(
        json.dumps(
            [
                {"kind": "saddle", "sign": 1},
                {"kind": "saddle", "sign": -1},
                {"kind": "center", "sign": 1},
            ]
        )
    )
    code, doc = run_json(capsys, "sutured", "pairing", "--input", str(path))
    assert code == 0
    assert doc["euler_pairing"] == 1
    assert doc["poincare_hopf_chi"] == -1


def test_holonomy_tau(capsys):
    code, doc = run_json(capsys, "holonomy", "tau", "--case", "a", "--samples", "64")
    assert code == 0
    assert doc["status"] == "PASS"
    assert len(doc["samples"]) >= 64
    assert all(s["pass"] for s in doc["samples"])


def test_holonomy_tiles_used_as_given(capsys):
    code, doc = run_json(capsys, "holonomy", "tau", "--case", "a", "--tiles", "3", "--samples", "4")
    assert code == 0
    assert doc["tiles_per_side"] == 3
    assert len(doc["samples"]) == 3 + 2 * 3


@pytest.mark.parametrize("flag", ["--samples", "--tiles"])
def test_holonomy_rejects_zero_count(capsys, flag):
    code, out, err = run(capsys, "holonomy", "tau", "--case", "a", flag, "0")
    assert code == 2
    assert err == "error: need at least one tile and one point per tile\n"


def test_holonomy_custom_maps(tmp_path, capsys):
    path_u = tmp_path / "u.json"
    path_u.write_text(json.dumps({"breakpoints": ["-1", "0", "1"], "values": ["-1", "1/3", "1"]}))
    path_v = tmp_path / "v.json"
    path_v.write_text(json.dumps({"breakpoints": ["-1", "1"], "values": ["-1", "1"]}))
    code, doc = run_json(
        capsys, "holonomy", "tau", "--case", "b", "--u", str(path_u), "--v", str(path_v)
    )
    assert code == 0


@pytest.mark.parametrize("key", ["breakpoints", "values"])
def test_holonomy_map_size_capped(tmp_path, capsys, key):
    # 200 001 entries: before the cap this ran seconds of Fraction work and
    # passed; the count is refused before any entry is parsed
    count = 200_001
    doc = {"breakpoints": ["-1", "0", "1"], "values": ["-1", "1/2", "1"]}
    doc[key] = ["-1"] + [f"{i}/{count}" for i in range(2 - count, count - 2, 2)] + ["1"]
    (tmp_path / "u.json").write_text(json.dumps(doc))
    (tmp_path / "v.json").write_text(json.dumps({"breakpoints": ["-1", "1"], "values": ["-1", "1"]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "holonomy", "tau", "--case", "a",
                         "--u", str(tmp_path / "u.json"), "--v", str(tmp_path / "v.json"))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: u: a map has at most {MAX_BREAKPOINTS} breakpoints, got {count}\n"


def test_holonomy_builds_nothing_per_sample(monkeypatch, capsys):
    # the report reads the witness's columns: no SampleCheck, and as many
    # holonomy-module Fractions at 4099 samples as at 67
    made = []
    monkeypatch.setattr(holonomy, "SampleCheck", lambda *a: pytest.fail("SampleCheck built"))
    monkeypatch.setattr(holonomy, "Fraction", lambda *a: made.append(a) or Fraction(*a))
    counts = []
    for tiles, samples in ((8, 64), (256, 4096)):
        made.clear()
        code, out, err = run(capsys, "holonomy", "tau", "--case", "a", "--tiles", str(tiles),
                             "--samples", str(samples), "--format", "json")
        assert code == 0
        counts.append(len(made))
    assert counts[0] == counts[1]


def test_holonomy_rejects_bad_map(tmp_path, capsys):
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"breakpoints": ["-1", "1"], "values": ["-1", "2"]}))
    code, out, err = run(capsys, "holonomy", "tau", "--case", "a", "--u", str(path), "--v", str(path))
    assert code == 2


GOOD_MAP = {"breakpoints": ["-1", "0", "1/2", "1"], "values": ["-1", "1/3", "1/2", "1"]}
LONG_ENTRY = "1/1" + "0" * 4300


def _map_with(entry):
    return {"breakpoints": ["-1", entry, "1"], "values": ["-1", "1/5", "1"]}


# entries that a map file may hold besides plain 'p/q' and 'p', each with
# the sha256 of the JSON report; the digests were taken when every entry
# was still parsed by Fraction(str)
ACCEPTED_ENTRIES = [
    pytest.param(_map_with(" 0 "),
                 "f5f1d2fd172187d9948fac948f2af01e5f79c64600ebc3fd27540edd3dc3da69", id="spaces"),
    pytest.param(_map_with("\t1/2\n"),
                 "4e6b690fa84209fcd729e26976b6dc379da4922301797f390fe09decf6747b55", id="tab-newline"),
    pytest.param(_map_with("1_0/2_0"),
                 "4e6b690fa84209fcd729e26976b6dc379da4922301797f390fe09decf6747b55", id="underscores"),
    pytest.param(_map_with(".5"),
                 "4e6b690fa84209fcd729e26976b6dc379da4922301797f390fe09decf6747b55", id="decimal"),
    pytest.param(_map_with("+1/3"),
                 "00dae8b4d9963efeed488846a838a28f4c534503635312cda54f2737b27bbee2", id="plus-sign"),
    pytest.param(_map_with("٣/4"),
                 "ade28439f1ed41f350c3f7fff295462412ea68de4c9608c63f6dd7c9737d10fe", id="arabic-indic-digit"),
    pytest.param(_map_with("007/8"),
                 "923537b951202e02de4d5d6738ae3c60dc53cfb6f051e24c904f44f3cf00e9e0", id="leading-zeros"),
    pytest.param({"breakpoints": ["-2/2", "1/7", "1"], "values": ["-2/2", "1/5", "1"]},
                 "f35a82bc559f52213fd3a270d265ac11b2396871d7ad446196ee88dfe9925a7a", id="minus-two-halves"),
    # a denominator of 4299 digits, one under int()'s default limit
    pytest.param(_map_with("1/1" + "0" * 4298),
                 "6660a3fc433b7b89c4f162acc249745bd74b7c1f8433910860ef8dbc372d0c87", id="4299-digit-denominator"),
]


@pytest.mark.parametrize("u, sha", ACCEPTED_ENTRIES)
def test_holonomy_map_entries_accepted(tmp_path, capsys, u, sha):
    for name, doc in (("u", u), ("v", GOOD_MAP)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, "holonomy", "tau", "--case", "a", "--tiles", "2", "--samples", "8",
                         "--u", str(tmp_path / "u.json"), "--v", str(tmp_path / "v.json"), "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == sha


@pytest.mark.parametrize("u, v, message", [
    ({**GOOD_MAP, "breakpoints": ["-1", "1/2", "1/2", "1"]}, GOOD_MAP,
     "u: breakpoints must be strictly increasing"),
    (GOOD_MAP, {**GOOD_MAP, "values": ["-1", "1/2", "1/3", "1"]}, "v: values must be strictly increasing"),
    ({**GOOD_MAP, "values": ["-1", "1/3", "1/2", "2/3"]}, GOOD_MAP, "u: endpoints must be fixed"),
    ({"breakpoints": ["0", "1"], "values": ["0", "1"]}, GOOD_MAP, "u: must be a homeomorphism of [-1, 1]"),
    ({**GOOD_MAP, "values": ["-1", "1"]}, GOOD_MAP,
     "u: need matching breakpoint/value sequences of length >= 2"),
    ({**GOOD_MAP, "values": ["-1", "1/3", "1/2", "x"]}, GOOD_MAP, "u.values[3]: not a rational 'p/q' string: 'x'"),
    (GOOD_MAP, {**GOOD_MAP, "breakpoints": ["-1", 0.5, "1/2", "1"]},
     "v.breakpoints[1]: expected an exact rational, got 0.5"),
    ({**GOOD_MAP, "breakpoints": ["-1", "0", None, "1"]}, GOOD_MAP,
     "u.breakpoints[2]: expected an exact rational, got NoneType"),
    ({**GOOD_MAP, "breakpoints": ["-1", "0", True, "1"]}, GOOD_MAP,
     "u.breakpoints[2]: expected an exact rational, got True"),
    ({**GOOD_MAP, "breakpoints": ["-1", "0", "1/0", "1"]}, GOOD_MAP,
     "u.breakpoints[2]: not a rational 'p/q' string: '1/0'"),
    ({"breakpoints": ["-1", "0", "1/2", "1"]}, GOOD_MAP, "u: missing key 'values'"),
    ({**GOOD_MAP, "values": "1/2"}, GOOD_MAP, "u.values: expected a list"),
    ([], GOOD_MAP, "u: expected an object"),
    # two rules broken: the bad entry comes first in a list, and the
    # breakpoints are read before the values, u before v
    ({**GOOD_MAP, "values": ["-1", "y", "x", "1"]}, GOOD_MAP, "u.values[1]: not a rational 'p/q' string: 'y'"),
    ({"breakpoints": ["-1", "x", "1"], "values": ["y", "1"]}, GOOD_MAP,
     "u.breakpoints[1]: not a rational 'p/q' string: 'x'"),
    ({"breakpoints": ["-1", "x", "1"], "values": ["-1"] * (MAX_BREAKPOINTS + 1)}, GOOD_MAP,
     "u.breakpoints[1]: not a rational 'p/q' string: 'x'"),
    ({"breakpoints": ["-1"] * (MAX_BREAKPOINTS + 1), "values": ["x"]}, GOOD_MAP,
     f"u: a map has at most {MAX_BREAKPOINTS} breakpoints, got {MAX_BREAKPOINTS + 1}"),
    ({**GOOD_MAP, "values": ["-1", "1/2", "1/3", "1/2"]}, {"breakpoints": ["x"], "values": []},
     "u: values must be strictly increasing"),
    ({"breakpoints": ["1", "0"], "values": ["0", "1"]}, GOOD_MAP, "u: breakpoints must be strictly increasing"),
    ({"breakpoints": ["0", "1/2"], "values": ["0", "1"]}, GOOD_MAP, "u: endpoints must be fixed"),
    # entries outside the plain 'p/q' form, each refused with the message it
    # had when Fraction(str) read every entry
    ({**GOOD_MAP, "breakpoints": ["-1", "1e-3", "1/2", "1"]}, GOOD_MAP,
     "u.breakpoints[1]: not a rational 'p/q' string: '1e-3'"),
    ({**GOOD_MAP, "breakpoints": ["-1", "1/-2", "1/2", "1"]}, GOOD_MAP,
     "u.breakpoints[1]: not a rational 'p/q' string: '1/-2'"),
    (GOOD_MAP, {**GOOD_MAP, "values": ["-1", "1 / 2", "1/2", "1"]},
     "v.values[1]: not a rational 'p/q' string: '1 / 2'"),
    # a denominator of 4301 digits is past int()'s default limit on string conversion
    pytest.param({**GOOD_MAP, "breakpoints": ["-1", "0", LONG_ENTRY, "1"]}, GOOD_MAP,
                 f"u.breakpoints[2]: not a rational 'p/q' string: {LONG_ENTRY!r}", id="4301-digit-denominator"),
])
def test_holonomy_map_error_messages(tmp_path, capsys, u, v, message):
    for name, doc in (("u", u), ("v", v)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, "holonomy", "tau", "--case", "a",
                         "--u", str(tmp_path / "u.json"), "--v", str(tmp_path / "v.json"))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("value", ["1e-3000000", "1E-30000"])
def test_exponent_notation_is_an_input_error(tmp_path, capsys, value):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"x_f": value, "x_s": "4", "x_sum": "6", "x_diff": "6", "chi": ["-2", "-4"]}))
    pl = tmp_path / "u.json"
    pl.write_text(json.dumps({"breakpoints": ["-1", value, "1"], "values": ["-1", "0", "1"]}))
    for argv, message in (
        (("candidates", "--genus", "3", "--spec", str(spec)), f"spec.x_f: not a rational 'p/q' string: {value!r}"),
        (("holonomy", "tau", "--case", "a", "--u", str(pl), "--v", str(pl)),
         f"u.breakpoints[1]: not a rational 'p/q' string: {value!r}"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_holonomy_empty_map_paths_are_an_error(capsys):
    code, out, err = run(capsys, "holonomy", "tau", "--case", "a", "--u", "", "--v", "")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: u: ")


def test_json_output_deterministic(capsys):
    _, first, _ = run(capsys, "candidates", "--genus", "4", "--format", "json")
    _, second, _ = run(capsys, "candidates", "--genus", "4", "--format", "json")
    assert first == second


_REPORT_INPUTS = {
    "spec": {"x_f": "2", "x_s": "4", "x_sum": "6", "x_diff": "6", "chi": ["-2", "-4"]},
    "tangencies": [{"kind": "saddle", "sign": 1}, {"kind": "saddle", "sign": -1}],
}


@pytest.mark.parametrize(
    "argv",
    [
        ["vmatrix", "--genus", "2"],
        ["vmatrix", "--genus", "120"],
        ["candidates", "--genus", "30"],
        ["candidates", "--genus", "3", "--spec", "@spec"],
        ["penner"],
        ["sutured", "chi", "--base-chi", "1", "--convex", "4", "--concave", "1"],
        ["sutured", "core-disk", "--wraps", "3"],
        ["sutured", "pairing", "--input", "@tangencies"],
        ["sutured", "witness", "--k", "2", "--m", "3"],
        ["holonomy", "tau", "--case", "c"],
    ],
)
def test_json_report_is_stdlib_indent_2(tmp_path, capsys, argv):
    for name, doc in _REPORT_INPUTS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [str(tmp_path / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["vmatrix", "--genus", "6", "--format", "json", "--output", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["status"] == "PASS"


# the bundled penner, a small vmatrix, candidates (more pieces than one
# block holds, as JSON) and the bundled holonomy cases
_STOCK_REPORTS = [("penner",), ("vmatrix", "--genus", "6"), ("candidates", "--genus", "3"),
                  *(("holonomy", "tau", "--case", case) for case in "abcdef")]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv", _STOCK_REPORTS, ids=" ".join)
def test_both_sinks_write_the_joined_report(monkeypatch, tmp_path, capsys, argv, fmt):
    writer = "json_pieces" if fmt == "json" else "text_pieces"
    pieces, reports = getattr(jsonio, writer), []
    monkeypatch.setattr(jsonio, writer, lambda report: reports.append(report) or pieces(report))
    path = tmp_path / "report"
    assert run(capsys, *argv, "--format", fmt, "--output", str(path)) == (0, "", "")
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    joined = (jsonio.dumps_report if fmt == "json" else jsonio.render_text)(reports[0])
    assert path.read_bytes() == out.encode() == (joined + "\n").encode()


def test_each_block_is_dropped_before_its_write():
    pieces = [f"{i} " for i in range(2 * cli.BLOCK_PIECES + 3)]
    text, writes = "".join(pieces), []

    class Sink:
        def write(self, block):
            writes.append((block, len(pieces)))  # the pieces still held

    cli._write_blocks(Sink(), pieces)
    assert "".join(block for block, _ in writes) == text + "\n"
    assert [held for _, held in writes] == [cli.BLOCK_PIECES + 3, 3, 0, 0]


def test_failed_report_leaves_output_untouched(monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise ValueError("row refused")

    monkeypatch.setattr(jsonio, "_write_rows", refuse)
    path = tmp_path / "p"
    argv = ("vmatrix", "--genus", "6", "--format", "json", "--output", str(path))
    assert run(capsys, *argv) == (2, "", "error: row refused\n")
    assert not path.exists()
    path.write_bytes(b"an earlier report\n")
    assert run(capsys, *argv) == (2, "", "error: row refused\n")
    assert path.read_bytes() == b"an earlier report\n"


def test_environment_sets_no_option(monkeypatch, tmp_path, capsys):
    # a report depends only on its argv and input files: no TAUTCALC_<OPTION>
    # variable sets a common option, not even to a value --format refuses
    monkeypatch.chdir(tmp_path)
    argv = ("sutured", "chi", "--base-chi", "1", "--convex", "4")
    for value in ("json", "xml"):
        for option in cli.COMMON_OPTIONS:
            monkeypatch.setenv("TAUTCALC_" + option[2:].upper(), value)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out.startswith("command: sutured chi\n")
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "") and json.loads(out)["command"] == "sutured chi"
    assert list(tmp_path.iterdir()) == []


def test_parser_built_once_and_not_poisoned(tmp_path, capsys):
    argv = ("sutured", "chi", "--base-chi", "1", "--convex", "4")
    cli.build_parser.cache_clear()
    fresh = run(capsys, *argv)
    for bad in (["vmatrix"], ["nope"]):  # missing --genus, unknown subcommand
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, *argv) == fresh
    path = tmp_path / "report.txt"
    assert run(capsys, *argv, "--output", str(path)) == (0, "", "")
    assert path.read_text() == fresh[1]
    assert run(capsys, *argv) == fresh
    assert cli.build_parser.cache_info().misses == 1


_HELP = (("-h", "--help"), "help", None, argparse.SUPPRESS, False, None, "show this help message and exit")
_COMMON = [
    (("--format",), "format", None, None, False, ("text", "json"), "report format (default: text)"),
    (("--output",), "output", None, None, False, None, "write the report to this path instead of stdout"),
]

# each parser below build_parser(): (prog, the help its parent lists it with,
# or SUPPRESS when the parent lists no line for it, and each action's
# (option strings, dest, type, default, required, choices, help))
DECLARATION = {
    "": ("tautcalc", None, [
        _HELP,
        ((), "command", None, None, True, ("vmatrix", "candidates", "penner", "sutured", "holonomy"), None),
    ]),
    "vmatrix": ("tautcalc vmatrix", "action of the genus-g chain word and its determinant law", [
        _HELP, *_COMMON,
        (("--genus",), "genus", int, None, True, None, None),
    ]),
    "candidates": ("tautcalc candidates", "dual-ball integral points and realizability", [
        _HELP, *_COMMON,
        (("--genus",), "genus", int, None, True, None, None),
        (("--spec",), "spec", None, None, False, None, "JSON file with norm values and chi (default: the genus-g family)"),
    ]),
    "penner": ("tautcalc penner", "validate a twist word over a curve system", [
        _HELP, *_COMMON,
        (("--input",), "input", None, None, False, None,
         "JSON file with the curve system and word (default: the genus-3 chain system)"),
    ]),
    "sutured": ("tautcalc sutured", "sutured Euler characteristic and witnesses", [
        _HELP,
        ((), "sutured_command", None, None, True, ("chi", "core-disk", "pairing", "witness"), None),
    ]),
    "sutured chi": ("tautcalc sutured chi", argparse.SUPPRESS, [
        _HELP, *_COMMON,
        (("--base-chi",), "base_chi", int, None, True, None, None),
        (("--convex",), "convex", int, 0, False, None, None),
        (("--concave",), "concave", int, 0, False, None, None),
    ]),
    "sutured core-disk": ("tautcalc sutured core-disk", argparse.SUPPRESS, [
        _HELP, *_COMMON,
        (("--wraps",), "wraps", int, None, True, None, "longitudinal wraps of each suture"),
        (("--sutures",), "sutures", int, 2, False, None, None),
    ]),
    "sutured pairing": ("tautcalc sutured pairing", argparse.SUPPRESS, [
        _HELP, *_COMMON,
        (("--input",), "input", None, None, True, None, "JSON file with a tangency list"),
    ]),
    "sutured witness": ("tautcalc sutured witness", argparse.SUPPRESS, [
        _HELP, *_COMMON,
        (("--k",), "k", int, None, True, None, None),
        (("--m",), "m", int, None, True, None, None),
    ]),
    "holonomy": ("tautcalc holonomy", "interval holonomy constructions", [
        _HELP,
        ((), "holonomy_command", None, None, True, ("tau",), None),
    ]),
    "holonomy tau": ("tautcalc holonomy tau", argparse.SUPPRESS, [
        _HELP, *_COMMON,
        (("--case",), "case", None, None, True, ("a", "b", "c", "d", "e", "f"), None),
        (("--samples",), "samples", int, 64, False, None, "minimum number of sample points"),
        (("--tiles",), "tiles", int, 8, False, None, "tiles per side to sample across"),
        (("--u",), "u", None, None, False, None, "JSON file for the first map (default: bundled shift)"),
        (("--v",), "v", None, None, False, None, "JSON file for the second map (default: bundled shift)"),
    ]),
}


def _declared(parser, route=(), help=None):
    """(route, (prog, help, actions)) for parser and each parser below it, in
    the fields of DECLARATION; a subparsers action's choices are its words."""
    actions, children = [], []
    for action in parser._actions:
        choices = action.choices
        if action.nargs == argparse.PARSER:
            listed = {choice.dest: choice.help for choice in action._choices_actions}
            children = [(name, child, listed.get(name, argparse.SUPPRESS)) for name, child in choices.items()]
            choices = tuple(choices)
        actions.append((tuple(action.option_strings), action.dest, action.type, action.default,
                        action.required, choices, action.help))
    yield " ".join(route), (parser.prog, help, actions)
    for name, child, child_help in children:
        yield from _declared(child, (*route, name), child_help)


def test_command_line_declaration_pinned():
    # help bytes differ between Python versions; these fields do not
    assert dict(_declared(cli.build_parser())) == DECLARATION


# argv that argparse answers with help (exit 0) or a usage error (exit 2)
ARGPARSE_ANSWERS = [
    ["-h"],
    ["--help"],
    ["sutured", "-h"],
    ["holonomy", "-h"],
    ["vmatrix", "-h"],
    ["candidates", "-h"],
    ["penner", "-h"],
    ["sutured", "chi", "-h"],
    ["sutured", "core-disk", "-h"],
    ["sutured", "pairing", "-h"],
    ["sutured", "witness", "-h"],
    ["holonomy", "tau", "-h"],
    ["vmatrix", "--genus", "6", "-h"],
    ["vmatrix"],
    ["candidates"],
    ["sutured", "chi"],
    ["sutured", "core-disk"],
    ["sutured", "pairing"],
    ["sutured", "witness", "--k", "2"],
    ["holonomy", "tau"],
    ["vmatrix", "--genus", "x"],
    ["vmatrix", "--genus", ""],
    ["vmatrix", "--genus=", "6"],
    ["vmatrix", "--genus", "6", "--format", "xml"],
    ["holonomy", "tau", "--case", "g"],
    ["vmatrix", "--genus"],
    ["vmatrix", "--genus", "-h"],
    ["vmatrix", "--genus", "6", "--output", "--format"],
    ["vmatrix", "--genus", "6", "extra"],
    ["vmatrix", "--genus", "6", "--spec", "s.json"],
    ["vmatrix", "--", "--genus", "6"],
    ["nope"],
    ["sutured"],
    ["sutured", "nope"],
    [],
]


def _argparse_outcome(capsys, call, argv):
    """(exit code, stdout, stderr) of call(argv), which argparse ends with SystemExit."""
    with pytest.raises(SystemExit) as exc:
        call(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv", ARGPARSE_ANSWERS, ids=" ".join)
def test_help_and_usage_errors_are_argparse_own(capsys, argv):
    # compared with argparse on the running interpreter, whose wording differs by version
    expected = _argparse_outcome(capsys, cli.build_parser().parse_args, argv)
    assert expected[0] in (0, 2)
    assert _argparse_outcome(capsys, main, argv) == expected


# argv that `main` reads without argparse: a route, then (option, value) pairs
READER_ACCEPTS = [
    ["vmatrix", "--genus", "6"],
    ["vmatrix", "--genus", "6", "--format", "json", "--output", "r.json"],
    ["vmatrix", "--format", "text", "--genus", "6"],
    ["vmatrix", "--genus", " 7 "],
    ["vmatrix", "--genus", "1_000"],
    ["vmatrix", "--genus", "6", "--genus", "7"],
    ["vmatrix", "--genus", "6", "--output", ""],
    ["vmatrix", "--genus", "6", "--output", "-5"],
    ["vmatrix", "--genus", "6", "--output", "a=b"],
    ["candidates", "--genus", "3"],
    ["candidates", "--genus", "3", "--spec", "my_norms.json"],
    ["penner"],
    ["penner", "--input", "system.json"],
    ["sutured", "chi", "--base-chi", "-1"],
    ["sutured", "chi", "--base-chi", "1", "--convex", "4", "--concave", "2"],
    ["sutured", "core-disk", "--wraps", "3"],
    ["sutured", "core-disk", "--wraps", "3", "--sutures", "4", "--format", "json"],
    ["sutured", "pairing", "--input", "tangencies.json"],
    ["sutured", "witness", "--k", "-24", "--m", "3"],
    ["holonomy", "tau", "--case", "a"],
    ["holonomy", "tau", "--case", "f", "--samples", "64", "--tiles", "3", "--u", "u.json", "--v", "v.json"],
]


def _fields(args):
    return {name: (type(value), value) for name, value in vars(args).items()}


@pytest.mark.parametrize("argv", READER_ACCEPTS, ids=" ".join)
def test_reader_builds_argparse_namespace(argv):
    read = cli._read(list(argv))
    assert read is not None
    assert _fields(read) == _fields(cli.build_parser().parse_args(list(argv)))


@pytest.mark.parametrize("argv", [*ARGPARSE_ANSWERS, ["vmatrix", "--genus", 6], ["vmatrix", b"--genus", "6"]],
                         ids=lambda argv: " ".join(map(str, argv)))
def test_reader_leaves_help_and_errors_to_argparse(argv):
    assert cli._read(list(argv)) is None


def test_table_options_are_what_the_reader_reads():
    options = [*cli.COMMON_OPTIONS.items(), *(item for *_, options in cli.COMMANDS for item in options.items())]
    assert len(options) >= 15
    for option, keywords in options:
        # so that every argparse reads "-" and digits after an option as a value
        assert option.startswith("--") and not re.fullmatch(r"-\d+|-\d*\.\d+", option), option
        # `_read` applies these keywords alone; a str default argparse would convert with type
        assert set(keywords) <= {"type", "required", "default", "choices", "help"}, option
        assert not isinstance(keywords.get("default"), str), option


# argv whose value argparse reads as a negative number, though it is not "-"
# and ASCII digits, each with its twin written in ASCII
NEGATIVE_TWINS = [
    (["vmatrix", "--genus", "6", "--output", "-1.5"], ["vmatrix", "--genus", "6", "--output", "r.txt"]),
    (["sutured", "chi", "--base-chi", "-٣"], ["sutured", "chi", "--base-chi", "-3"]),
    (["sutured", "witness", "--k", "-٢", "--m", "3"], ["sutured", "witness", "--k", "-2", "--m", "3"]),
]


@pytest.mark.parametrize("argv, twin", NEGATIVE_TWINS, ids=lambda argv: " ".join(argv))
def test_negative_numbers_the_reader_leaves_to_argparse(monkeypatch, tmp_path, capsys, argv, twin):
    monkeypatch.chdir(tmp_path)
    assert cli._read(argv) is None and cli._read(twin) is not None
    parsed = vars(cli.build_parser().parse_args(argv))
    assert parsed == {**vars(cli._read(twin)), "output": parsed["output"]}
    assert run(capsys, *argv) == run(capsys, *twin)
    if parsed["output"] is not None:
        assert (tmp_path / parsed["output"]).read_bytes() == (tmp_path / twin[-1]).read_bytes()


@pytest.mark.parametrize("argv", [["vmatrix", "--gen", "6"], ["vmatrix", "--genus=6"]])
def test_option_spellings_argparse_accepts(capsys, argv):
    assert run(capsys, *argv) == run(capsys, "vmatrix", "--genus", "6")


@pytest.mark.parametrize(
    "argv",
    [
        ["penner"],
        ["vmatrix", "--genus", "6"],
        ["candidates", "--genus", "3"],
        ["sutured", "chi", "--base-chi", "1", "--convex", "4", "--concave", "1"],
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_in_process_report_matches_subprocess(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "tautcalc.cli", *argv, "--format", fmt],
                          capture_output=True, env=env)
    assert (code, out.encode(), err.encode()) == (proc.returncode, proc.stdout, proc.stderr)


def test_imports_only_the_standard_library():
    # -S as well as -I: the interpreter's site hooks may import third-party
    # modules of their own before any tautcalc code runs
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import tautcalc, tautcalc.cli; "
            "print(*{m.partition('.')[0] for m in sys.modules})")
    out = subprocess.run([sys.executable, "-B", "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert "tautcalc" in loaded
    extra = loaded - set(sys.stdlib_module_names) - {"tautcalc", "__main__"}
    assert not extra, f"non-stdlib modules imported: {sorted(extra)}"


@pytest.mark.parametrize("module, expected", [
    ("tautcalc", {"tautcalc"}),
    ("tautcalc.holonomy", {"tautcalc", "tautcalc.exact", "tautcalc.holonomy"}),
    ("tautcalc.penner", {"tautcalc", "tautcalc.exact", "tautcalc.matrices", "tautcalc.homology", "tautcalc.penner"}),
    ("tautcalc.cli", {"tautcalc", "tautcalc.cli", "tautcalc.exact", "tautcalc.holonomy", "tautcalc.homology",
                      "tautcalc.jsonio", "tautcalc.matrices", "tautcalc.penner", "tautcalc.polytope",
                      "tautcalc.sutured"}),
])
def test_importing_a_module_loads_only_what_it_needs(module, expected):
    # the package root re-exports nothing, so a library module pulls in only
    # its own imports; -B keeps bytecode out of src/
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import {module}; "
            "print(*(m for m in sys.modules if m.partition('.')[0] == 'tautcalc'))")
    out = subprocess.run([sys.executable, "-B", "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
    assert set(out.stdout.split()) == expected


@pytest.mark.parametrize("index", [0, 6])
def test_penner_unknown_label_at_either_end(tmp_path, capsys, index):
    doc = _bundled_penner_doc()
    assert len(doc["word"]) == 7
    doc["word"][index].update(label="z9")
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "penner", "--input", str(path), "--format", fmt)
        assert (code, out, err) == (2, "", f"error: input.word[{index}]: unknown curve label 'z9'\n")


def test_penner_unknown_label_reported_before_genus_cap(tmp_path, capsys):
    # a document above the genus cap whose word also names an unknown curve:
    # the labels are checked first
    genus = MAX_CHAIN_GENUS + 1
    curve = {"label": "c", "coords": ["1"] + ["0"] * (2 * genus - 1), "family": "A"}
    doc = {"genus": genus, "curves": [curve], "geo_int": [[]],
           "word": [{"label": "c", "exp": -1}, {"label": "z9", "exp": 1}]}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "penner", "--input", str(path))
    assert (code, out, err) == (2, "", "error: input.word[1]: unknown curve label 'z9'\n")
