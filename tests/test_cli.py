import argparse
import ast
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from golden import assert_pinned

from tautcalc import cli, holonomy, homology, jsonio, polytope
from tautcalc.cli import main
from tautcalc.homology import MAX_ACTION_BITS, MAX_TWIST_EXPONENT
from tautcalc.holonomy import MAX_BREAKPOINTS, MAX_ENTRY_BITS, MAX_SAMPLES, MAX_TILES
from tautcalc.matrices import IntMatrix
from tautcalc.penner import MAX_CHAIN_GENUS, chain_system
from tautcalc.polytope import MAX_NORM_BITS, MAX_NORM_VALUE
from tautcalc.sutured import MAX_SURFACE_COUNT, MAX_TANGENCIES, MAX_TORUS_COUNT, MAX_WITNESS_K, MAX_WITNESS_M


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def _bundled_penner_doc(genus=3):
    """The input document of the genus-g chain system; `penner` reports on
    the genus-3 one by default."""
    system, word = chain_system(genus)
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
    """The name of each `Check` the library builds, as written there, with
    each field of an f-string shown as {}."""
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Check":
                name = node.args[0]
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
    # the check sees the ball scaled by 2, so every point's dual norm doubles
    is_one = polytope.dual_norm_is_one

    def doubled(ball, points):
        return is_one(polytope.RatPolytope([(2 * x, 2 * y) for x, y in ball.vertices]), points)

    monkeypatch.setattr(polytope, "dual_norm_is_one", doubled)
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


# for each check a report can emit, a committed input or a named fault that
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

# each route's largest allowed input; penner --input is not bounded at the
# caps yet, so it has no row
LARGEST_INPUTS = {
    "candidates-genus": ["candidates", "--genus", str(MAX_NORM_VALUE // 2)],
    "candidates-spec": ["candidates", "--genus", "3", "--spec", "spec.json"],
    # values whose numerators and denominators all have MAX_NORM_BITS bits
    "candidates-spec-long-parts": ["candidates", "--genus", "3", "--spec", "long-parts.json"],
    "vmatrix": ["vmatrix", "--genus", str(MAX_CHAIN_GENUS)],
    "sutured-chi": ["sutured", "chi", "--base-chi", str(-MAX_SURFACE_COUNT),
                    "--convex", str(MAX_SURFACE_COUNT), "--concave", str(MAX_SURFACE_COUNT)],
    "sutured-core-disk": ["sutured", "core-disk", "--wraps", str(MAX_TORUS_COUNT), "--sutures", str(MAX_TORUS_COUNT)],
    "sutured-witness": ["sutured", "witness", "--k", str(MAX_WITNESS_K), "--m", str(MAX_WITNESS_M)],
    "sutured-pairing": ["sutured", "pairing", "--input", "tangencies.json"],
    # one tile fewer than the cap gives the most points: 3 in each of 8190 tiles
    "holonomy-tau": ["holonomy", "tau", "--case", "a", "--tiles", str(MAX_TILES - 1), "--samples", str(MAX_SAMPLES)],
    # one tile per side repeats no chart point, so no tile map's memo is hit
    "holonomy-tau-one-tile": ["holonomy", "tau", "--case", "a", "--tiles", "1", "--samples", str(MAX_SAMPLES)],
    # the same layout over two maps of the most breakpoints, with parts of the most bits
    "holonomy-tau-long-entries": ["holonomy", "tau", "--case", "a", "--tiles", str(MAX_TILES - 1),
                                  "--samples", str(MAX_SAMPLES), "--u", "u.json", "--v", "v.json"],
}


def _map_at_entry_cap(shift):
    """A map of MAX_BREAKPOINTS breakpoints whose interior breakpoints and
    values have MAX_ENTRY_BITS-bit denominators, each its own, in lowest terms."""
    n = MAX_BREAKPOINTS - 2

    def entries(offset):
        out = []
        for i in range(1, n + 1):
            d = 2 ** MAX_ENTRY_BITS - 2 * i - offset
            a = (2 * i - n - 1) * d // (n + 1)
            while math.gcd(a, d) != 1:
                a += 1
            out.append(f"{a}/{d}")
        return ["-1", *out, "1"]

    return {"breakpoints": entries(shift), "values": entries(shift + 2 * n + 1)}


def _spec_at_part_cap():
    """A valid spec whose eight value parts have MAX_NORM_BITS bits, each its
    own: x(F) and x(S) just under 1, x(S+F) and x(S-F) just over."""
    d = 2 ** MAX_NORM_BITS - 3
    values = [f"{d - 1}/{d}", f"{d - 3}/{d - 2}", f"{d - 4}/{d - 5}", f"{d - 6}/{d - 7}"]
    return {**dict(zip(("x_f", "x_s", "x_sum", "x_diff"), values)), "chi": ["0", "0"]}


def _saddles(count):
    """count saddles of alternating signs, so the list is not fully marked."""
    return [{"kind": "saddle", "sign": "-1" if i % 2 else "1"} for i in range(count)]


# the input files of LARGEST_INPUTS, each written where its test runs
_LARGEST_FILES = {
    "spec.json": lambda: {**dict.fromkeys(("x_f", "x_s", "x_sum", "x_diff"), str(MAX_NORM_VALUE)), "chi": ["0", "0"]},
    "long-parts.json": _spec_at_part_cap,
    "u.json": lambda: _map_at_entry_cap(1),
    "v.json": lambda: _map_at_entry_cap(3),
    "tangencies.json": lambda: _saddles(MAX_TANGENCIES),
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("route", list(LARGEST_INPUTS))
def test_largest_inputs_end_within_budget(monkeypatch, tmp_path, route, fmt):
    # no hang: every route's largest allowed input ends in a report
    monkeypatch.chdir(tmp_path)
    for name in _LARGEST_FILES.keys() & set(LARGEST_INPUTS[route]):
        (tmp_path / name).write_text(json.dumps(_LARGEST_FILES[name]()))
    start = time.perf_counter()
    code = main([*LARGEST_INPUTS[route], "--format", fmt, "--output", "report"])
    elapsed = time.perf_counter() - start
    assert code == 0 and (tmp_path / "report").stat().st_size > 0
    assert elapsed < REPORT_BUDGET_S, f"{route} --format {fmt}: {elapsed:.3f} s"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_tangency_list_length_capped(tmp_path, capsys, fmt):
    # the length is refused before any entry is parsed, so a list of bad
    # entries one past the cap names its length, not its first entry
    path = tmp_path / "tangencies.json"
    path.write_text(json.dumps([None] * (MAX_TANGENCIES + 1)))
    error = f"error: input: a tangency list has at most {MAX_TANGENCIES} entries, got {MAX_TANGENCIES + 1}\n"
    assert run(capsys, "sutured", "pairing", "--input", str(path), "--format", fmt) == (2, "", error)
    path.write_text(json.dumps(_saddles(MAX_TANGENCIES + 1)))
    assert run(capsys, "sutured", "pairing", "--input", str(path), "--format", fmt) == (2, "", error)


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
    # unit fractions of 2200 digits: their report would write integers past
    # the 4300 digits int() converts to a string
    a, b = 10**2199 + 1, 10**2199 + 3
    path.write_text(json.dumps({"x_f": f"1/{a}", "x_s": f"1/{b}", "x_sum": f"1/{a}", "x_diff": f"1/{a}",
                                "chi": ["0", "0"]}))
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "candidates", "--genus", "3", "--spec", str(path), "--format", fmt)
        assert (code, out, err) == (2, "", f"error: spec: x_f parts must be at most {MAX_NORM_BITS} bits long\n")
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
    assert doc["mapping_torus_b2"] == "1"
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
    assert doc["mapping_torus_b2"] == "4"
    assert doc["fixed_homology_trivial"] is False
    checks = {c["name"]: c["pass"] for c in doc["checks"]}
    assert checks["no nonzero fixed homology class"] is False


def test_penner_five_chain_curves_do_not_fill(tmp_path, capsys):
    # a1, b1, a2, b2, a3 on genus 3 leave an annulus, whose core is a fixed
    # class, so b2 = 2; an empty region list certifies nothing
    system = chain_system(3)[0]
    doc = jsonio.curve_system_to_json(system)
    doc["curves"] = doc["curves"][:5]
    doc["geo_int"] = [row[:i] for i, row in enumerate(doc["geo_int"][:5])]
    doc["regions"] = []
    doc["word"] = [{"label": c["label"], "exp": 1 if c["family"] == "B" else -1} for c in doc["curves"]]
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    code, doc = run_json(capsys, "penner", "--input", str(path))
    assert (code, doc["mapping_torus_b2"], doc["report"]["filling_status"]) == (1, "2", "failed")
    assert doc["report"]["messages"] == [
        "Euler count chi + I = 0 < 1: filling curves cut the surface into chi + I disks"]
    assert [(c["name"], c["pass"]) for c in doc["checks"]] == [
        ("word is a valid opposite-twist word", True), ("no nonzero fixed homology class", False)]


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
    assert (code, doc["genus"], len(doc["action_matrix"])) == (1, str(MAX_CHAIN_GENUS), 2 * MAX_CHAIN_GENUS)

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
    assert doc["euler_pairing"] == "1"
    assert doc["poincare_hopf_chi"] == "-1"


def test_holonomy_tau(capsys):
    code, doc = run_json(capsys, "holonomy", "tau", "--case", "a", "--samples", "64")
    assert code == 0
    assert doc["status"] == "PASS"
    assert len(doc["samples"]) >= 64
    assert all(s["pass"] for s in doc["samples"])


def test_holonomy_tiles_used_as_given(capsys):
    code, doc = run_json(capsys, "holonomy", "tau", "--case", "a", "--tiles", "3", "--samples", "4")
    assert code == 0
    assert doc["tiles_per_side"] == "3"
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
ENTRY_BITS = f"breakpoint and value parts must be at most {MAX_ENTRY_BITS} bits long"


def _map_with(entry):
    return {"breakpoints": ["-1", entry, "1"], "values": ["-1", "1/5", "1"]}


# entries that a map file may hold besides plain 'p/q' and 'p', each with
# the sha256 of the JSON report; the digests were taken when every entry
# was still parsed by Fraction(str), and re-pinned through
# `golden.assert_pinned` when every integer in a report became a string
ACCEPTED_ENTRIES = [
    pytest.param(_map_with(" 0 "),
                 "852fe85d00ef7660fc824b2f32e1f23b85a769231cf6612718b75b0522051688", id="spaces"),
    pytest.param(_map_with("\t1/2\n"),
                 "1f72063a81b8bb558409f74d73f2a91091110e5fdb25e89628c7aa6fb918fe57", id="tab-newline"),
    pytest.param(_map_with("1_0/2_0"),
                 "1f72063a81b8bb558409f74d73f2a91091110e5fdb25e89628c7aa6fb918fe57", id="underscores"),
    pytest.param(_map_with(".5"),
                 "1f72063a81b8bb558409f74d73f2a91091110e5fdb25e89628c7aa6fb918fe57", id="decimal"),
    pytest.param(_map_with("+1/3"),
                 "7aab2abc74e6decbd473c467010a43e8269f419ffb9807c6a5d8416bbc401509", id="plus-sign"),
    pytest.param(_map_with("٣/4"),
                 "882702830bfe6b81bdd3e676792d981d1dd5484b65c503ab7b13c5231e4f7d57", id="arabic-indic-digit"),
    pytest.param(_map_with("007/8"),
                 "94cc7422aed4ddc3986ee246b5f30a2e56ddf892806c5ea7d6deec11e9c1badd", id="leading-zeros"),
    pytest.param({"breakpoints": ["-2/2", "1/7", "1"], "values": ["-2/2", "1/5", "1"]},
                 "1093dcb36db5e9e9c548046cc05bd57bdba89609b51652da7384768132e4c787", id="minus-two-halves"),
]


@pytest.mark.parametrize("u, sha", ACCEPTED_ENTRIES)
def test_holonomy_map_entries_accepted(tmp_path, capsys, u, sha):
    for name, doc in (("u", u), ("v", GOOD_MAP)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, "holonomy", "tau", "--case", "a", "--tiles", "2", "--samples", "8",
                         "--u", str(tmp_path / "u.json"), "--v", str(tmp_path / "v.json"), "--format", "json")
    assert (code, err) == (0, "")
    assert_pinned(out, sha)


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
    # a denominator of 4299 digits parses, one under int()'s default limit,
    # but the solve's arithmetic grows with it, so parts are capped in bits
    pytest.param(_map_with("1/1" + "0" * 4298), GOOD_MAP, f"u: {ENTRY_BITS}", id="4299-digit-denominator"),
    pytest.param(GOOD_MAP, {**GOOD_MAP, "values": ["-1", f"1/{2 ** MAX_ENTRY_BITS}", "1/2", "1"]},
                 f"v: {ENTRY_BITS}", id="one-bit-past-the-cap"),
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


# a JSON report that echoes its input document, and the option that reads it
_ECHOES = [
    (["candidates", "--genus", "3"], "norm_spec", "--spec"),
    (["candidates", "--genus", "29", "--spec", "@rational"], "norm_spec", "--spec"),
    (["sutured", "pairing", "--input", "@tangencies"], "tangencies", "--input"),
]


@pytest.mark.parametrize("argv, echo, option", _ECHOES, ids=[" ".join(argv) for argv, _, _ in _ECHOES])
def test_report_echoes_are_valid_inputs(tmp_path, capsys, argv, echo, option):
    # the echo, read back as the input it stands for, gives the same report
    inputs = {**_REPORT_INPUTS, "rational": {"x_f": "16", "x_s": "56", "x_sum": "287/4", "x_diff": "283/4",
                                             "chi": ["-2", "-2"]}}
    for name, doc in inputs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [str(tmp_path / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(json.loads(out)[echo]))
    given = argv[:argv.index(option)] if option in argv else argv
    assert run(capsys, *given, option, str(path), "--format", "json") == (code, out, err)


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["vmatrix", "--genus", "6", "--format", "json", "--output", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["status"] == "PASS"


def _map_doc(grow):
    """The map taking 2i/15 - 1 to grow(i)/225 - 1 for i = 0..15: 16
    breakpoints, the most a benchmark map has."""
    return {"breakpoints": [jsonio.fmt_frac(Fraction(2 * i, 15) - 1) for i in range(16)],
            "values": [jsonio.fmt_frac(Fraction(grow(i), 225) - 1) for i in range(16)]}


# input files the reports below read, each written where the test runs
_SINK_FILES = {
    "chain.json": lambda: _bundled_penner_doc(MAX_CHAIN_GENUS),
    "u.json": lambda: _map_doc(lambda i: i * (i + 15)),
    "v.json": lambda: _map_doc(lambda i: i * (45 - i)),
}

# the bundled penner, a small vmatrix, candidates (more pieces than one
# block holds, as JSON) and the bundled holonomy cases; then the largest
# eliminations a report runs, vmatrix and penner --input at the genus cap,
# the latter the largest document the curve-system pairing reads; and
# holonomy tau over two map files, where case e also sets up their inverses
_SINK_REPORTS = [("penner",), ("vmatrix", "--genus", "6"), ("candidates", "--genus", "3"),
                  *(("holonomy", "tau", "--case", case) for case in "abcdef"),
                  ("vmatrix", "--genus", str(MAX_CHAIN_GENUS)), ("penner", "--input", "chain.json"),
                  *(("holonomy", "tau", "--case", case, "--tiles", "256", "--samples", "4096",
                     "--u", "u.json", "--v", "v.json") for case in "ae")]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv", _SINK_REPORTS, ids=" ".join)
def test_both_sinks_write_the_joined_report(monkeypatch, tmp_path, capsys, argv, fmt):
    monkeypatch.chdir(tmp_path)
    for name in _SINK_FILES.keys() & set(argv):
        (tmp_path / name).write_text(json.dumps(_SINK_FILES[name]()))
    writer = "json_pieces" if fmt == "json" else "text_pieces"
    pieces, reports = getattr(jsonio, writer), []
    monkeypatch.setattr(jsonio, writer, lambda report: reports.append(report) or pieces(report))
    path = tmp_path / "report"
    assert run(capsys, *argv, "--format", fmt, "--output", str(path)) == (0, "", "")
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert path.read_bytes() == out.encode() == ("".join(pieces(reports[0])) + "\n").encode()


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
# (option strings, dest, type, default, required, choices, help)); no table
# option declares a default, so each option's default is None
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
        (("--convex",), "convex", int, None, False, None, None),
        (("--concave",), "concave", int, None, False, None, None),
    ]),
    "sutured core-disk": ("tautcalc sutured core-disk", argparse.SUPPRESS, [
        _HELP, *_COMMON,
        (("--wraps",), "wraps", int, None, True, None, "longitudinal wraps of each suture"),
        (("--sutures",), "sutures", int, None, False, None, None),
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
        (("--samples",), "samples", int, None, False, None, "minimum number of sample points"),
        (("--tiles",), "tiles", int, None, False, None, "tiles per side to sample across"),
        (("--u",), "u", None, None, False, None, "JSON file for the first map (default: bundled shift)"),
        (("--v",), "v", None, None, False, None, "JSON file for the second map (default: bundled shift)"),
    ]),
}


def _declared(parser, route=(), help=None):
    """(route, (prog, help, actions)) for parser and each parser below it, in
    the fields of DECLARATION; an action's choices are read as a tuple, so a
    subparsers action's are its words and --case's the keys of its mapping."""
    actions, children = [], []
    for action in parser._actions:
        if action.nargs == argparse.PARSER:
            listed = {choice.dest: choice.help for choice in action._choices_actions}
            children = [(name, child, listed.get(name, argparse.SUPPRESS)) for name, child in action.choices.items()]
        choices = None if action.choices is None else tuple(action.choices)
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
        # `_read` applies these keywords alone; no option declares a default,
        # so an absent option reads None in both readers and each default is
        # written once, in the library signature or type it belongs to
        assert set(keywords) <= {"type", "required", "choices", "help"}, option


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


# argv that leaves options out, and the values the library gives them in the report
LIBRARY_DEFAULTS = [
    (["sutured", "chi", "--base-chi", "1"], {"convex": "0", "concave": "0"}),
    (["sutured", "core-disk", "--wraps", "3"], {"suture_count": "2"}),
    (["holonomy", "tau", "--case", "a"], {"tiles_per_side": str(holonomy.DEFAULT_TILES)}),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, values", LIBRARY_DEFAULTS, ids=[" ".join(argv) for argv, _ in LIBRARY_DEFAULTS])
def test_absent_options_take_library_defaults_in_both_readers(capsys, argv, values, fmt):
    # `_read` reads "--opt value" and argparse alone reads "--opt=value"; an
    # absent option is None in both Namespaces, and the library fills it in
    argv = [*argv, "--format", fmt]
    joined = [*argv[:2], *(f"{option}={value}" for option, value in zip(argv[2::2], argv[3::2]))]
    assert cli._read(argv) is not None and cli._read(joined) is None
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert run(capsys, *joined) == (code, out, err)
    if fmt == "json":
        report = json.loads(out)
        assert {key: report[key] for key in values} == values
    else:
        assert all(f"\n{key}: {value}\n" in out for key, value in values.items()), out


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


def _tautcalc_modules(code, cwd=None):
    """The tautcalc modules loaded after code runs in a fresh interpreter
    that imports from src/; -B keeps bytecode out of src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (f"import sys; sys.path.insert(0, {src!r})\n{code}\n"
            "print(*(m for m in sys.modules if m.partition('.')[0] == 'tautcalc'))")
    out = subprocess.run([sys.executable, "-B", "-I", "-S", "-c", code], capture_output=True, text=True, check=True,
                         cwd=cwd)
    return set(out.stdout.split())


# what `import tautcalc.cli` loads: the package, the CLI, and the report
# writers with the two modules they need; a route's own modules wait for it
CLI_MODULES = {"tautcalc", "tautcalc.cli", "tautcalc.exact", "tautcalc.jsonio", "tautcalc.matrices"}


@pytest.mark.parametrize("module, expected", [
    ("tautcalc", {"tautcalc"}),
    ("tautcalc.holonomy", {"tautcalc", "tautcalc.exact", "tautcalc.holonomy"}),
    ("tautcalc.penner", {"tautcalc", "tautcalc.exact", "tautcalc.matrices", "tautcalc.homology", "tautcalc.penner"}),
    ("tautcalc.cli", CLI_MODULES),
    ("tautcalc.jsonio", {"tautcalc", "tautcalc.jsonio", "tautcalc.exact", "tautcalc.matrices"}),
])
def test_importing_a_module_loads_only_what_it_needs(module, expected):
    # the package root re-exports nothing, so a library module pulls in only
    # its own imports
    assert _tautcalc_modules(f"import {module}") == expected


# (route words, options, the modules the route loads beyond CLI_MODULES)
ROUTE_MODULES = [
    (("vmatrix",), ["--genus", "6"], {"penner", "homology"}),
    (("candidates",), ["--genus", "3"], {"polytope"}),
    (("penner",), [], {"penner", "homology"}),
    (("sutured", "chi"), ["--base-chi", "1"], {"sutured"}),
    (("sutured", "core-disk"), ["--wraps", "3"], {"sutured"}),
    (("sutured", "pairing"), ["--input", "tangencies.json"], {"sutured"}),
    (("sutured", "witness"), ["--k", "2", "--m", "3"], {"sutured"}),
    (("holonomy", "tau"), ["--case", "a", "--tiles", "1", "--samples", "4"], {"holonomy"}),
]


def test_route_modules_name_every_route():
    assert [route for route, *_ in ROUTE_MODULES] == list(cli.LEAVES)


@pytest.mark.parametrize("route, options, modules", ROUTE_MODULES, ids=[" ".join(route) for route, *_ in ROUTE_MODULES])
def test_a_report_loads_only_its_route_modules(tmp_path, route, options, modules):
    (tmp_path / "tangencies.json").write_text(json.dumps([{"kind": "saddle", "sign": 1}]))
    argv = [*route, *options, "--output", "report.txt"]
    code = f"from tautcalc import cli\nassert cli.main({argv!r}) == 0"
    assert _tautcalc_modules(code, cwd=tmp_path) == CLI_MODULES | {f"tautcalc.{m}" for m in modules}
    assert (tmp_path / "report.txt").stat().st_size > 0


# help and usage errors build the whole parser, which prints one library
# value, the --case choices; so they load `holonomy` and no other route's module
@pytest.mark.parametrize("argv, exit_code", [(["sutured", "chi", "-h"], 0),
                                             (["sutured", "core-disk", "--wraps", "x"], 2)], ids=["help", "usage error"])
def test_help_and_usage_errors_load_only_holonomy(argv, exit_code):
    code = f"""
import contextlib, io
from tautcalc import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        cli.main({argv!r})
    except SystemExit as exc:
        assert exc.code == {exit_code}, exc.code
    else:
        raise AssertionError("argparse did not answer")
"""
    assert _tautcalc_modules(code) == CLI_MODULES | {"tautcalc.holonomy"}


def test_package_root_imports_a_submodule_on_first_access():
    code = """
import tautcalc
assert [m for m in sys.modules if m.partition(".")[0] == "tautcalc"] == ["tautcalc"]
assert tautcalc.holonomy.PLHomeo.__module__ == "tautcalc.holonomy"
try:
    from tautcalc import PLHomeo
except ImportError:
    pass
else:
    raise SystemExit("from tautcalc import PLHomeo succeeded")
try:
    tautcalc.nosuch
except AttributeError as exc:
    assert str(exc) == "module 'tautcalc' has no attribute 'nosuch'", exc
else:
    raise SystemExit("tautcalc.nosuch resolved")
"""
    assert _tautcalc_modules(code) == {"tautcalc", "tautcalc.exact", "tautcalc.holonomy"}


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
