"""Property tests: every JSON schema round-trips, every malformed input
file ends in exit 2 with one error line that names its field path, valid
norm specs, maps and tangency lists at the caps end in a report within
the budget, the dual ball's edge walk finds the points of a box scan, and
the sparse elimination agrees with dense Bareiss on banded matrices."""

import contextlib
import copy
import io
import itertools
import json
import random
import re
import time
from fractions import Fraction
from math import ceil, floor, gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tautcalc import jsonio
from tautcalc.cli import main
from tautcalc.holonomy import MAX_BREAKPOINTS, MAX_ENTRY_BITS, PLHomeo, bundled_shifts
from tautcalc.homology import Family, TwistGenerator, TwistWord
from tautcalc.matrices import IntMatrix
from tautcalc.penner import CurveSystem, Region, chain_system
from tautcalc.polytope import MAX_NORM_BITS, MAX_NORM_VALUE, NormSpec, candidate_points
from tautcalc.sutured import MAX_TANGENCIES, Tangency, TangencyKind
from oracles import dense_class, dense_coords, pairing_dense
from test_cli import REPORT_BUDGET_S, _map_at_entry_cap
from test_matrices import assert_matches_dense
from test_polytope import boundary_points_by_scan

PROPS = settings(derandomize=True, database=None, max_examples=40, deadline=None)


# -- valid domain objects ------------------------------------------------------------


@st.composite
def penner_inputs(draw):
    """A curve system of genus 1..3 with up to five curves, and a word over it.

    Family A classes lie in the span of the r_i and family B classes in that
    of the s_i, so two curves of one family pair to 0, and each count is the
    absolute pairing plus 0 or 2, as CurveSystem requires."""
    genus = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    labels = draw(st.lists(st.text(max_size=3), min_size=n, max_size=n, unique=True))
    curves = []
    for label in labels:
        family = draw(st.sampled_from(Family))
        half = draw(st.lists(st.integers(-3, 3), min_size=genus, max_size=genus))
        g = gcd(*half) or 1
        coords = [0] * (2 * genus)
        coords[family is Family.B::2] = [c // g for c in half]
        curves.append(TwistGenerator(label, dense_class(genus, coords), family))
    crossings = []
    for j, i in itertools.combinations(range(n), 2):
        if curves[i].family != curves[j].family:
            count = abs(pairing_dense(curves[j].cls, curves[i].cls)) + 2 * draw(st.integers(0, 1))
            if count:
                crossings.append((i, j, count))
    regions = draw(st.none() | st.lists(st.builds(Region, st.booleans(), st.text(max_size=3)), max_size=3).map(tuple))
    letters = st.tuples(st.sampled_from(labels), st.integers(-3, 3).filter(bool))
    word = TwistWord(tuple(draw(st.lists(letters, max_size=6))))
    return CurveSystem(genus, tuple(curves), tuple(sorted(crossings)), regions), word


@st.composite
def norm_specs(draw):
    """Values of the norm max_k |<w_k, v>| for spanning integer functionals
    w_k, scaled by a positive rational, with even chi."""
    ws = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=2, max_size=4))
    assume(any(a * d - b * c for (a, b), (c, d) in itertools.combinations(ws, 2)))
    scale = draw(st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=5))

    def x(v):
        return scale * max(abs(a * v[0] + b * v[1]) for a, b in ws)

    chi = (2 * draw(st.integers(-5, 1)), 2 * draw(st.integers(-5, 1)))
    return NormSpec(x((1, 0)), x((0, 1)), x((1, 1)), x((-1, 1)), chi)


tangency_lists = st.lists(
    st.builds(Tangency, st.sampled_from(TangencyKind), st.sampled_from((1, -1))), max_size=8
)


@st.composite
def pl_maps(draw):
    k = draw(st.integers(0, 4))
    interior = st.fractions(min_value=-1, max_value=1, max_denominator=12).filter(lambda q: abs(q) < 1)
    bps = sorted(draw(st.sets(interior, min_size=k, max_size=k)))
    vals = sorted(draw(st.sets(interior, min_size=k, max_size=k)))
    return PLHomeo([-1, *bps, 1], [-1, *vals, 1])


matrices = st.integers(1, 4).flatmap(
    lambda w: st.lists(st.lists(st.integers(), min_size=w, max_size=w), min_size=1, max_size=4)
).map(IntMatrix)


# -- round trips ---------------------------------------------------------------------


def _through_text(doc):
    return json.loads(json.dumps(doc))


def _written(value):
    """value as a JSON report writes it, read back."""
    return json.loads("".join(jsonio.json_pieces({"value": value})))["value"]


def penner_doc(pair):
    system, word = pair
    return {**jsonio.curve_system_to_json(system), "word": jsonio.word_to_json(word)}


@PROPS
@given(penner_inputs())
def test_penner_input_roundtrip(pair):
    doc = _through_text(penner_doc(pair))
    assert jsonio.penner_input_from_json(doc) == pair
    assert jsonio.curve_system_from_json(doc) == pair[0]
    assert jsonio.word_from_json(doc["word"]) == pair[1]


@PROPS
@given(penner_inputs())
def test_curve_system_json_is_a_fixed_point(pair):
    doc = _through_text(jsonio.curve_system_to_json(pair[0]))
    assert jsonio.curve_system_to_json(jsonio.curve_system_from_json(doc)) == doc


@PROPS
@given(matrices)
def test_matrix_roundtrip(m):
    rows = json.loads("".join(jsonio.json_pieces({"m": m})))["m"]
    assert IntMatrix([[int(e, 10) for e in row] for row in rows]) == m


@PROPS
@given(norm_specs())
def test_norm_spec_roundtrip(spec):
    assert jsonio.norm_spec_from_json(_through_text(jsonio.norm_spec_to_json(spec))) == spec


@PROPS
@given(tangency_lists)
def test_tangencies_roundtrip(ts):
    assert jsonio.tangencies_from_json(_written(jsonio.tangencies_to_json(ts))) == ts


@PROPS
@given(pl_maps())
def test_pl_roundtrip(f):
    assert jsonio.pl_from_json(_through_text(jsonio.pl_to_json(f))) == f


# -- candidate points ----------------------------------------------------------------


@PROPS
@given(norm_specs())
def test_candidate_points_match_box_scan(spec):
    _, dual, classified = candidate_points(spec, 2)
    cf, cs = spec.chi
    scanned = [(pt, v) for pt, v in boundary_points_by_scan(dual) if (pt[0] - cf) % 2 == 0 and (pt[1] - cs) % 2 == 0]
    assert [(p.coords, p.vertex) for p in classified] == scanned


# -- sparse elimination --------------------------------------------------------------


@st.composite
def banded_rows(draw):
    """An n x n matrix, n <= 12, zero outside lower and upper bandwidths 0..3."""
    n = draw(st.integers(1, 12))
    lower, upper = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    entry = st.integers(-3, 3)
    return [[draw(entry) if -lower <= j - i <= upper else 0 for j in range(n)] for i in range(n)]


@settings(PROPS, max_examples=200)
@given(banded_rows())
def test_banded_rank_and_det_match_dense_bareiss(rows):
    assert_matches_dense(rows)


# -- malformed files -----------------------------------------------------------------
#
# Each corruption below makes any valid document invalid, so every fuzzed
# file must be rejected.


def _nodes(doc, path=()):
    yield path, doc
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _nodes(v, path + (i,))


def _set(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for p in path[:-1]:
        parent = parent[p]
    parent[path[-1]] = value
    return doc


def _optional(path):
    return path == ("regions",) or (len(path) == 3 and path[0] == "regions" and path[2] == "label")


def _penner_semantic(doc):
    labels = [c["label"] for c in doc["curves"]]
    fresh = "?" + "".join(labels)
    n = len(labels)
    bad = [
        ("genus", "0"),
        ("genus", str(doc["genus"] + 1)),
        ("curves", [{**doc["curves"][0], "family": "C"}] + doc["curves"][1:]),
        ("curves", [{**doc["curves"][0], "coords": ["2"] + ["0"] * (len(doc["curves"][0]["coords"]) - 1)}]
         + doc["curves"][1:]),
        ("word", doc["word"] + [{"label": fresh, "exp": 1}]),
        ("word", doc["word"] + [{"label": labels[0], "exp": 0}]),
        ("regions", [{"disk": "yes"}]),
    ]
    if n >= 2:
        bad.append(("curves", [doc["curves"][0], {**doc["curves"][1], "label": labels[0]}] + doc["curves"][2:]))
        bad.append(("geo_int", doc["geo_int"][:1] + [["-1"]] + doc["geo_int"][2:]))
    return [{**doc, key: value} for key, value in bad]


def _spec_semantic(doc):
    xs = {k: Fraction(doc[k]) for k in ("x_f", "x_s", "x_sum", "x_diff")}
    bad = [
        ("x_f", "-2"),
        ("x_s", "0"),
        ("x_s", "1/0"),
        ("x_sum", jsonio.fmt_frac(xs["x_s"] + xs["x_f"] + 1)),
        ("x_s", jsonio.fmt_frac(xs["x_sum"] + xs["x_diff"])),  # (0, 1/x_s) inside the ball
        ("chi", doc["chi"][:1]),
        ("chi", [str(int(doc["chi"][0]) + 1), doc["chi"][1]]),
    ]
    return [{**doc, key: value} for key, value in bad]


def _tangency_semantic(doc):
    return [doc + [bad] for bad in ({"kind": "node", "sign": 1}, {"kind": "saddle", "sign": 0},
                                    {"kind": "center", "sign": "2"})]


def _pl_semantic(doc):
    bps, vals = doc["breakpoints"], doc["values"]

    def shift(qs):
        return [jsonio.fmt_frac(Fraction(q) + 1) for q in qs]

    return [
        {**doc, "breakpoints": ["0"] + bps[1:]},
        {**doc, "values": [vals[0], "2"] + vals[2:]},
        {**doc, "values": vals[:-1]},
        {"breakpoints": shift(bps), "values": shift(vals)},  # a map of [0, 2]
    ]


@st.composite
def corrupted(draw, valid_docs, semantic):
    """Text of a valid document broken by one seeded corruption."""
    doc = draw(valid_docs)
    op = draw(st.sampled_from(("truncate", "drop", "junk", "nest", "semantic")))
    if op == "truncate":
        text = json.dumps(doc)
        return text[: draw(st.integers(0, len(text) - 1))]
    if op == "nest":
        depth = draw(st.integers(1, 3000))
        return "[" * depth + json.dumps(doc) + "]" * depth
    nodes = list(_nodes(doc))
    if op == "drop":
        keys = [p for p, _ in nodes if p and isinstance(p[-1], str) and not _optional(p)]
        if keys:
            path = draw(st.sampled_from(keys))
            parent = {k: v for k, v in dict(nodes)[path[:-1]].items() if k != path[-1]}
            return json.dumps(_set(doc, path[:-1], parent))
    if op == "semantic":
        return json.dumps(draw(st.sampled_from(semantic(doc))))
    path = draw(st.sampled_from([p for p, _ in nodes]))
    return json.dumps(_set(doc, path, draw(st.sampled_from((0.5, None, {})))))


ERROR_LINE = re.compile(r"^error: (input|spec|u|v)[.\[:]")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "good.json").write_text(json.dumps(jsonio.pl_to_json(bundled_shifts()[0])))
    return path


def _run(workdir, argv):
    """(exit code, stdout, stderr lines, seconds) of main(argv), each .json
    argument read from workdir."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(workdir / a) if a.endswith(".json") else a for a in argv])
    return code, out.getvalue(), err.getvalue().splitlines(), time.perf_counter() - start


def _rejects(workdir, text, argv):
    (workdir / "bad.json").write_text(text)
    code, out, lines, _ = _run(workdir, argv)
    assert (code, out) == (2, ""), text
    assert len(lines) == 1 and ERROR_LINE.match(lines[0]), (lines, text)
    return lines[0]


FUZZ = settings(PROPS, max_examples=120)


@FUZZ
@given(corrupted(penner_inputs().map(penner_doc), _penner_semantic))
def test_malformed_penner_file(workdir, text):
    _rejects(workdir, text, ["penner", "--input", "bad.json"])


@st.composite
def moved_chain_docs(draw):
    """The document of a chain system of genus 2..8 with one zero coordinate
    of one curve moved by 2, and that curve's label.

    Moving x_k by t moves <x, y> by t y_{k^1} for even k and by -t y_{k^1}
    for odd k.  Every count of the chain equals its pairing's absolute value,
    so t is signed to take the pairing with a curve y holding k ^ 1 away from
    0, past its count; the class stays primitive, since it holds a 1."""
    genus = draw(st.integers(2, 8))
    system, word = chain_system(genus)
    doc = penner_doc((system, word))
    coords = [dense_coords(c.cls) for c in system.curves]
    moves = [(c, k, d) for c, x in enumerate(coords) for k in range(2 * genus) if not x[k]
             for d, y in enumerate(coords) if d != c and y[k ^ 1]]
    c, k, d = draw(st.sampled_from(moves))
    step = -coords[d][k ^ 1] if k & 1 else coords[d][k ^ 1]
    old = pairing_dense(system.curves[c].cls, system.curves[d].cls)
    doc["curves"][c]["coords"][k] = "2" if step * old >= 0 else "-2"
    return json.dumps(doc), system.curves[c].label


@PROPS
@given(moved_chain_docs())
def test_penner_file_with_a_coordinate_moved_by_two(workdir, moved):
    text, label = moved
    line = _rejects(workdir, text, ["penner", "--input", "bad.json"])
    match = re.fullmatch(r"error: input: curves '(\w+)' and '(\w+)' pair to -?\d+ but cross \d+ times", line)
    assert match and label in match.groups(), line


@FUZZ
@given(corrupted(norm_specs().map(jsonio.norm_spec_to_json), _spec_semantic))
def test_malformed_spec_file(workdir, text):
    _rejects(workdir, text, ["candidates", "--genus", "3", "--spec", "bad.json"])


@FUZZ
@given(corrupted(tangency_lists.map(jsonio.tangencies_to_json).map(_written), _tangency_semantic))
def test_malformed_tangency_file(workdir, text):
    _rejects(workdir, text, ["sutured", "pairing", "--input", "bad.json"])


@FUZZ
@given(corrupted(pl_maps().map(jsonio.pl_to_json), _pl_semantic), st.booleans())
def test_malformed_pl_file(workdir, text, bad_is_u):
    u, v = ("bad.json", "good.json") if bad_is_u else ("good.json", "bad.json")
    _rejects(workdir, text, ["holonomy", "tau", "--case", "a", "--u", u, "--v", v])


# -- valid documents at the caps -----------------------------------------------------


def _report_or_field_error(workdir, argv):
    """Run argv: it ends in a report (exit 0 or 1) within REPORT_BUDGET_S, or
    in exit 2 with one error line that names its field path."""
    code, out, lines, elapsed = _run(workdir, argv)
    if code == 2:
        assert out == "" and len(lines) == 1 and ERROR_LINE.match(lines[0]), lines
    else:
        assert code in (0, 1) and out and not lines, (code, lines)
        assert elapsed < REPORT_BUDGET_S, elapsed


NORM_PART = 2 ** MAX_NORM_BITS - 1  # the largest numerator or denominator of a spec value


def _norm_value(draw, lo, hi, fallback):
    """A rational in [lo, hi] with numerator and denominator in 1..NORM_PART;
    fallback, such a rational in [lo, hi], when none has the drawn denominator."""
    bits = draw(st.integers(1, MAX_NORM_BITS))
    q = draw(st.integers(2 ** (bits - 1), 2 ** bits - 1))
    p_lo, p_hi = max(ceil(lo * q), 1), min(floor(hi * q), NORM_PART)
    return Fraction(draw(st.integers(p_lo, p_hi)), q) if p_lo <= p_hi else fallback


@st.composite
def specs_at_the_caps(draw):
    """A valid spec document whose values reach MAX_NORM_VALUE and whose parts
    reach MAX_NORM_BITS bits.  With m = max(x(F), x(S)) and hi the smaller
    of x(F) + x(S) and MAX_NORM_VALUE, the larger diagonal value lies in
    [m, hi] and the other in [2m - larger, hi], which is every pair the rule
    takes."""
    x_f, x_s = (_norm_value(draw, 0, MAX_NORM_VALUE, MAX_NORM_VALUE) for _ in range(2))
    m, hi = max(x_f, x_s), min(x_f + x_s, MAX_NORM_VALUE)
    larger = _norm_value(draw, m, hi, m)
    other = _norm_value(draw, 2 * m - larger, hi, m)
    diagonals = (larger, other) if draw(st.booleans()) else (other, larger)
    chi = (2 * draw(st.integers(-5, 1)), 2 * draw(st.integers(-5, 1)))
    return jsonio.norm_spec_to_json(NormSpec(x_f, x_s, *diagonals, chi))


@settings(PROPS, max_examples=60)
@given(specs_at_the_caps())
# unit fractions at the cap: unbounded, such a spec's report wrote integers
# past the 4300 digits int() converts to a string
@example({"x_f": f"1/{NORM_PART}", "x_s": f"1/{NORM_PART - 2}", "x_sum": f"1/{NORM_PART - 2}",
          "x_diff": f"1/{NORM_PART - 2}", "chi": ["0", "0"]})
def test_spec_at_the_caps_ends_in_a_report(workdir, doc):
    (workdir / "spec.json").write_text(json.dumps(doc))
    _report_or_field_error(workdir, ["candidates", "--genus", "3", "--spec", "spec.json"])


@st.composite
def maps_at_the_caps(draw):
    """A valid map document of up to MAX_BREAKPOINTS breakpoints, whose
    interior breakpoints and values have parts of up to MAX_ENTRY_BITS bits;
    the entries come from a seeded Random, as so many would not fit in one
    example's draws."""
    count = draw(st.integers(0, MAX_BREAKPOINTS - 2))
    bits = draw(st.integers(2, MAX_ENTRY_BITS))
    rng = draw(st.randoms(use_true_random=True))

    def interior():
        points = set()
        for _ in range(count):
            d = rng.randrange(2, 2 ** bits)
            points.add(Fraction(rng.randrange(1 - d, d), d))
        return sorted(points)

    breakpoints, values = interior(), interior()
    n = min(len(breakpoints), len(values))
    return {"breakpoints": ["-1", *map(jsonio.fmt_frac, breakpoints[:n]), "1"],
            "values": ["-1", *map(jsonio.fmt_frac, values[:n]), "1"]}


@settings(PROPS, max_examples=20)
@given(maps_at_the_caps(), maps_at_the_caps(), st.sampled_from("abcdef"), st.integers(1, 8), st.integers(1, 64))
# two maps of MAX_BREAKPOINTS breakpoints and MAX_ENTRY_BITS-bit parts, and
# the case that also sets up their inverses
@example(_map_at_entry_cap(1), _map_at_entry_cap(3), "e", 8, 64)
def test_maps_at_the_caps_end_in_a_report(workdir, u, v, case, tiles, samples):
    for name, doc in (("u", u), ("v", v)):
        (workdir / f"{name}.json").write_text(json.dumps(doc))
    _report_or_field_error(workdir, ["holonomy", "tau", "--case", case, "--tiles", str(tiles),
                                     "--samples", str(samples), "--u", "u.json", "--v", "v.json"])


@st.composite
def tangencies_up_to_the_cap(draw):
    """A valid tangency list of 0, 1, 12 or MAX_TANGENCIES entries, each sign
    a bare number or a decimal string; the entries come from a drawn seed,
    so hypothesis never shrinks a list of the cap's length."""
    size = draw(st.sampled_from((0, 1, 12, MAX_TANGENCIES)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kinds = [kind.value for kind in TangencyKind]
    return [{"kind": rng.choice(kinds), "sign": rng.choice((1, -1, "1", "-1"))} for _ in range(size)]


@settings(PROPS, max_examples=8)
@given(tangencies_up_to_the_cap())
def test_tangencies_up_to_the_cap_echo_their_report(workdir, doc):
    # each format's report within the budget, and the README's echo: the
    # report's tangencies, read back as the input, give the same report
    (workdir / "tangencies.json").write_text(json.dumps(doc))
    reports = {}
    for fmt in ("json", "text"):
        code, out, lines, elapsed = _run(workdir, ["sutured", "pairing", "--input", "tangencies.json", "--format", fmt])
        assert (code, lines) == (0, []) and elapsed < REPORT_BUDGET_S, (len(doc), fmt, code, lines, elapsed)
        reports[fmt] = out
    (workdir / "echo.json").write_text(json.dumps(json.loads(reports["json"])["tangencies"]))
    for fmt, out in reports.items():
        assert _run(workdir, ["sutured", "pairing", "--input", "echo.json", "--format", fmt])[1] == out, (len(doc), fmt)
