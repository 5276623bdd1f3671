import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tautcalc import cli, exact, jsonio
from tautcalc.holonomy import bundled_shifts
from tautcalc.homology import word_action
from tautcalc.matrices import IntMatrix
from tautcalc.penner import chain_system
from tautcalc.polytope import MAX_NORM_BITS, NormSpec, norm_ball_from_values
from tautcalc.sutured import novikov_witness


def test_scalar_formats():
    assert jsonio.fmt_frac(Fraction(1, 2)) == "1/2"
    assert jsonio.fmt_frac(Fraction(-4)) == "-4"
    assert read_x_f("1/2").x_f == Fraction(1, 2)
    assert exact.frac("-4") == Fraction(-4)  # the rule read_x_f applies; a norm value is positive
    assert jsonio.parse_int("12", "x") == 12
    with pytest.raises(ValueError):
        read_x_f(0.5)
    with pytest.raises(ValueError):
        jsonio.parse_int("1/2", "x")


def read_x_f(value):
    """The spec whose x_f is value, read as a spec file carries it."""
    return jsonio.norm_spec_from_json({"x_f": value, "x_s": "1", "x_sum": "1", "x_diff": "1", "chi": ["0", "0"]})


def test_matrix_roundtrip():
    system, word = chain_system(3)
    m = word_action(word, system.generator_map())
    data = json.loads(_joined({"m": m}))["m"]
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


def test_curve_system_json_is_a_fixed_point():
    for genus in (3, 30):
        doc = jsonio.curve_system_to_json(chain_system(genus)[0])
        assert jsonio.curve_system_to_json(jsonio.curve_system_from_json(doc)) == doc


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


@pytest.mark.parametrize("value", ["1e-3000000", "1E5", "2.5e0", "1/2e3"])
def test_parse_frac_rejects_exponent_notation(value):
    with pytest.raises(ValueError) as exc:
        read_x_f(value)
    assert str(exc.value) == f"spec.x_f: not a rational 'p/q' string: {value!r}"


def test_parse_frac_accepts_fractions_decimals_and_long_digits():
    assert read_x_f("0.5").x_f == Fraction(1, 2)
    # parts of 1233 digits, 4093 bits, within the cap on a spec value's parts
    p, q = 10**1232 + 1, 10**1232 + 3
    assert read_x_f(f"{p}/{q}").x_f == Fraction(p, q)
    # 4000 digits parse, but are past the spec's cap on a value's parts
    p, q = 10**3999 + 1, 10**3999 + 3
    with pytest.raises(ValueError) as exc:
        read_x_f(f"{p}/{q}")
    assert str(exc.value) == f"spec: x_f parts must be at most {MAX_NORM_BITS} bits long"


@pytest.mark.parametrize(
    "entry, message",
    [
        (True, "expected an integer, got a boolean"),
        (0.0, "expected an integer, got float"),
        ("1/2", "not an integer: '1/2'"),
        (None, "expected an integer, got NoneType"),
    ],
)
def test_integer_lists_name_the_bad_entry(entry, message):
    system, _ = chain_system(3)
    doc = jsonio.curve_system_to_json(system)
    doc["curves"][1]["coords"][2] = entry
    with pytest.raises(ValueError) as exc:
        jsonio.curve_system_from_json(doc, "sys")
    assert str(exc.value) == f"sys.curves[1].coords[2]: {message}"
    doc = jsonio.curve_system_to_json(system)
    doc["geo_int"][3][1] = entry
    with pytest.raises(ValueError) as exc:
        jsonio.curve_system_from_json(doc, "sys")
    assert str(exc.value) == f"sys.geo_int[3][1]: {message}"


@pytest.mark.parametrize(
    "raw, expected",
    [
        ([], (0, [])),
        (["0", "0", "0"], (3, [])),
        (["0", "0", "7", "0", "-12"], (5, [(2, 7), (4, -12)])),
        # int(x, 10)'s own rules: signs, spaces and underscores
        (["00", "-0", "+2", " 3", "1_0"], (5, [(2, 2), (3, 3), (4, 10)])),
        ([0, 5, "0", -3], (4, [(1, 5), (3, -3)])),  # JSON numbers
        # a bad entry after a run of "0"s is named by its own index
        (["0", "0", "0", "x"], "[3]: not an integer: 'x'"),
        (["0", "0", "1/2", "0"], "[2]: not an integer: '1/2'"),
        (["1", "0", ""], "[2]: not an integer: ''"),
        (["0", "0", True], "[2]: expected an integer, got a boolean"),
        (["0", 0.0], "[1]: expected an integer, got float"),
        ([0, "0", None], "[2]: expected an integer, got NoneType"),
        ("0", ": expected a list"),
    ],
)
def test_integer_lists_parse_only_their_nonzeros(raw, expected):
    if isinstance(expected, tuple):
        assert jsonio._parse_int_list(raw, "f") == expected
        return
    with pytest.raises(ValueError) as exc:
        jsonio._parse_int_list(raw, "f")
    assert str(exc.value) == f"f{expected}"
    doc = jsonio.curve_system_to_json(chain_system(3)[0])
    doc["curves"][1]["coords"] = raw
    with pytest.raises(ValueError) as exc:
        jsonio.curve_system_from_json(doc, "sys")
    assert str(exc.value) == f"sys.curves[1].coords{expected}"
    doc = jsonio.curve_system_to_json(chain_system(3)[0])
    doc["geo_int"][2] = raw
    with pytest.raises(ValueError) as exc:
        jsonio.curve_system_from_json(doc, "sys")
    assert str(exc.value) == f"sys.geo_int[2]{expected}"


@pytest.mark.parametrize("raw", ["C", "a", "SADDLE", 1, None, ["A"], {"kind": "saddle"}])
def test_enum_fields_name_their_values(raw):
    system, _ = chain_system(3)
    doc = jsonio.curve_system_to_json(system)
    doc["curves"][1]["family"] = raw
    with pytest.raises(ValueError) as exc:
        jsonio.curve_system_from_json(doc, "sys")
    assert str(exc.value) == "sys.curves[1].family: expected 'A' or 'B'"
    with pytest.raises(ValueError) as exc:
        jsonio.tangencies_from_json([{"kind": "saddle", "sign": 1}, {"kind": raw, "sign": 1}])
    assert str(exc.value) == "tangencies[1].kind: expected 'saddle' or 'center'"


def test_integer_lists_take_json_numbers():
    system, _ = chain_system(3)
    doc = jsonio.curve_system_to_json(system)
    for curve in doc["curves"]:
        curve["coords"] = [int(x) for x in curve["coords"]]
    doc["geo_int"] = [[int(x) for x in row] for row in doc["geo_int"]]
    doc["geo_int"][3][1] = str(doc["geo_int"][3][1])  # one row mixes strings and numbers
    assert jsonio.curve_system_from_json(doc, "sys") == system
    doc["geo_int"][4][2] = True  # a bool among numbers is still named
    with pytest.raises(ValueError) as exc:
        jsonio.curve_system_from_json(doc, "sys")
    assert str(exc.value) == "sys.geo_int[4][2]: expected an integer, got a boolean"


# -- the report writer -------------------------------------------------------------

_specials = st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\u2603", "\U0001f600", "\ud800", "/"]
)
_text = st.text(st.characters(exclude_categories=()) | _specials, max_size=8)


def _joined(report) -> str:
    return "".join(jsonio.json_pieces(report))


def _rendered(report) -> str:
    return "".join(jsonio.text_pieces(report))


# -- matrices ----------------------------------------------------------------------


@st.composite
def _sparse_matrices(draw):
    """An IntMatrix of 1..6 by 1..6, mostly zeros, some rows all zero, with
    entries of up to 31 digits and either sign; each row's nonzeros are
    stored in a drawn column order, not necessarily increasing."""
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.just(0) | st.just(0) | st.integers(-9, 9) | st.integers(-(10**30), 10**30)
    zero_rows = draw(st.sets(st.integers(0, n_rows - 1)))
    rows = []
    for i in range(n_rows):
        values = [0] * n_cols if i in zero_rows else draw(st.lists(entry, min_size=n_cols, max_size=n_cols))
        order = draw(st.permutations(range(n_cols)))
        rows.append({j: values[j] for j in order if values[j]})
    return IntMatrix._from_nonzeros(rows, n_cols)


def _nest(report, depth):
    """report inside `depth` dicts, with a sibling key after each level."""
    for _ in range(depth):
        report = {"inner": report, "after": "1"}
    return report


def _plain(report):
    """The report with every IntMatrix as its rows of decimal strings, every
    Table as its list of records and every Check as its dict."""
    if isinstance(report, exact.Check):
        return {"name": report.name, "pass": report.passed}
    if isinstance(report, IntMatrix):
        return [list(map(str, row)) for row in report.rows]
    if isinstance(report, jsonio.Table):
        return _records(report.columns)
    if isinstance(report, dict):
        return {key: _plain(value) for key, value in report.items()}
    if isinstance(report, list):
        return list(map(_plain, report))
    return report


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_sparse_matrices(), st.integers(0, 2))
@example(IntMatrix([[0]]), 0)
@example(IntMatrix([[7]]), 2)
@example(IntMatrix([[0, 0, 0], [1, 0, -123456]]), 1)
@example(IntMatrix([[-99999], [100000], [0]]), 0)
def test_matrix_writes_as_its_dense_rows(m, depth):
    report = _nest({"m": m, "n": m, "after": "1"}, depth)
    assert _joined(report) == json.dumps(_plain(report), indent=2)
    assert _rendered(report) == _rendered(_plain(report))


def test_matrix_reports_never_build_dense_rows(monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("dense rows built for a matrix")

    system, word = chain_system(4)
    path = tmp_path / "input.json"
    path.write_text(json.dumps({**jsonio.curve_system_to_json(system), "word": jsonio.word_to_json(word)}))
    monkeypatch.setattr(IntMatrix, "rows", property(refuse))
    monkeypatch.setattr(jsonio, "_dense_row", refuse)
    for fmt in ("json", "text"):
        assert cli.main(["vmatrix", "--genus", "30", "--format", fmt]) == 0
        assert cli.main(["penner", "--format", fmt]) == 0
        assert cli.main(["penner", "--input", str(path), "--format", fmt]) == 0


# -- tables ------------------------------------------------------------------------


@st.composite
def _table_columns(draw):
    """Columns of one length: strs, bools, or tuples of strs of one width.
    A record key "checks" means a list of checks to the text renderer, so
    it is left out."""
    rows = draw(st.integers(min_value=0, max_value=5))
    keys = draw(st.lists(_text.filter(lambda k: k != "checks"), unique=True, max_size=4))
    columns = {}
    for key in keys:
        kind = draw(st.sampled_from(["str", "bool", "tuple"]))
        if kind == "tuple":
            cell = st.tuples(*[_text] * draw(st.integers(min_value=0, max_value=3)))
        else:
            cell = _text if kind == "str" else st.booleans()
        columns[key] = draw(st.lists(cell, min_size=rows, max_size=rows))
    return columns


def _records(columns):
    """The table's list of records, a tuple cell as the list it stands for."""
    return [
        {key: list(x) if isinstance(x, tuple) else x for key, x in zip(columns, values)}
        for values in zip(*columns.values())
    ]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_table_columns())
@example({"point": ["1/2", '"', "0"], "pass": [True, False, True]})
@example({"point": ["1/2", "\\", "0"], "pass": [True, False, True]})
@example({"point": ["1/2", "\n", "0"], "pass": [True, False, True]})
@example({"point": ["1/2", "\x7f", "0"], "pass": [True, False, True]})
@example({"point": ["1/2", "\u00e9", "0"], "pass": [True, False, True]})
@example({"point": ["1/2", "\u2028", "0"], "pass": [True, False, True]})
@example({"point": ["1/2", "", "0"], "pass": [True, False, True]})
@example({"point": [], "pass": []})
@example({"coords": [("1", "-4")], "location": ["boundary-vertex"], "counterexample": [False]})
# a column that fails the clean test beside columns that pass it
@example({"a": ["1", "\n"], "b": ["2", "3"], "c": [("\u00e9", "4"), ("5", "6")], "d": [("7",), ("8",)]})
@example({"empty": [(), ()], "b": [True, False]})
def test_table_writes_as_its_records(columns):
    table = jsonio.Table(columns)
    records = _records(columns)
    assert len(table) == len(records)
    assert _joined({"k": table}) == json.dumps({"k": records}, indent=2)
    assert _rendered({"k": table}) == _rendered({"k": records})


def test_table_rejects_ragged_or_mixed_columns():
    with pytest.raises(ValueError, match="equal lengths"):
        jsonio.Table({"a": ["1", "2"], "b": [True]})
    for column in (["1", True], [("1",), ("2", "3")], [1, 2], [("1",), "2"]):
        with pytest.raises(TypeError):
            _joined({"k": jsonio.Table({"a": column})})


# -- whole reports against the stdlib oracle ---------------------------------------

# a report is a dict whose values are strings, bools, dicts, Tables,
# matrices and lists; a list holds strings (and takes the one-join path),
# lists of strings, dicts, or Checks, and an integer is a decimal string
_strings = st.lists(_text | st.integers().map(str), max_size=4)
_checks = st.lists(st.builds(exact.Check, _text, st.booleans()), max_size=4)
_reports = st.recursive(
    _text | st.integers().map(str) | st.booleans() | _strings | st.lists(_strings, max_size=4) | _checks
    | _sparse_matrices() | _table_columns().map(jsonio.Table),
    lambda children: st.lists(st.dictionaries(_text, children, max_size=5), max_size=5)
    | st.dictionaries(_text, children, max_size=5),
    max_leaves=40,
).map(lambda value: {"report": value})


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_reports)
# a matrix row of decimal strings takes the unescaped join; a row in which
# one item needs an escape, or is empty, must match too
@example({"matrix": [[str(7919 * k - 10**6) for k in range(240)]] * 2})
@example({"row": ["12", "-3", '"', "0"]})
@example({"row": ["12", "-3", "\\", "0"]})
@example({"row": ["12", "-3", "\n", "0"]})
@example({"row": ["12", "-3", "\x7f", "0"]})
@example({"row": ["12", "-3", "\u00e9", "0"]})
@example({"row": ["12", "-3", "\u2028", "0"]})
@example({"row": ["12", "-3", "", "0"]})
def test_json_pieces_match_stdlib_indent_2(report):
    assert _joined(report) == json.dumps(_plain(report), indent=2)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_checks, st.sampled_from(["", "  "]))
@example([exact.Check("a", True), exact.Check('b "c"', False)], "")
def test_checks_write_as_their_dicts_and_lines(checks, pad):
    # a report's "checks" list: {"name", "pass"} records in JSON, and one
    # [PASS] or [FAIL] line per record in text, at the list's own indent
    report = {"checks": checks} if not pad else {"k": {"checks": checks}}
    assert _joined(report) == json.dumps(_plain(report), indent=2)
    lines = [f"\n{pad}[{'PASS' if c.passed else 'FAIL'}] {c.name}" for c in checks]
    assert _rendered(report) == ("k:" if pad else "") + "".join(lines)[0 if pad else 1:]


@pytest.mark.parametrize(
    "value", [0, -(10**30), None, 0.5, True, False, "1"], ids=["int", "long-int", "null", "float", "true", "false", "str"]
)
def test_json_pieces_reject_numbers_and_null(value):
    # the writer has no path for a bare number or a null in any position, nor
    # for a string or bool anywhere but as a dict's value or an item of a list
    # of strings: at the root, or in a list with an item that is not a string
    reports = [value, {"x": [["1"], value]}, {"x": [{"y": "1"}, value]}]
    if not isinstance(value, str):
        reports += [[value], {"x": [value]}, {"x": ["1", value]}]
    if not isinstance(value, (str, bool)):
        reports += [{"x": value}, {"x": {"y": value}}]
    for report in reports:
        with pytest.raises(TypeError):
            jsonio.json_pieces(report)


def _number_paths(value, path=""):
    """The paths in a parsed JSON document that hold a number or a null; the
    items of a list share the path "name[]"."""
    if isinstance(value, dict):
        return set().union(*(_number_paths(v, f"{path}.{k}" if path else k) for k, v in value.items()))
    if isinstance(value, list):
        return set().union(*(_number_paths(v, path + "[]") for v in value))
    return set() if isinstance(value, (str, bool)) else {path}


# each leaf's stock argv
STOCK_ARGV = {
    ("vmatrix",): ["--genus", "6"],
    ("candidates",): ["--genus", "3"],
    ("penner",): [],
    ("sutured", "chi"): ["--base-chi", "-1"],
    ("sutured", "core-disk"): ["--wraps", "3"],
    ("sutured", "pairing"): ["--input", "tangencies.json"],
    ("sutured", "witness"): ["--k", "-24", "--m", "3"],
    ("holonomy", "tau"): ["--case", "a"],
}


def test_json_reports_hold_no_bare_number(monkeypatch, tmp_path, capsys):
    assert set(STOCK_ARGV) == set(cli.LEAVES)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tangencies.json").write_text('[{"kind": "saddle", "sign": 1}, {"kind": "center", "sign": 1}]')
    for route, options in STOCK_ARGV.items():
        assert cli.main([*route, *options, "--format", "json"]) == 0, route
        assert _number_paths(json.loads(capsys.readouterr().out)) == set(), route
    # 999999998000000001 convex corners, past 2**53: a reader that parses
    # numbers as doubles still gets the count back exactly
    assert cli.main(["sutured", "core-disk", "--wraps", "999999999", "--sutures", "999999999", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out, parse_int=float)
    assert report["convex_corners"] == "999999998000000001"
    assert int(report["convex_corners"]) == 999999999**2 != float(999999999**2)
