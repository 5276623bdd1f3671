"""JSON encoding and decoding for the domain types, and the report writers.

Integers and rationals travel as decimal strings ("p/q" for non-integral
rationals) so consumers never lose precision, and matrices are row-major
arrays of such strings.  The report writer raises TypeError on a bare
number or a null, so a report prints every integer as a decimal string,
and on a string or bool that is not a dict's value or an item of a list
of strings.  Parsers also take a bare integer for an integer.
They check only the JSON shape and call the owner of every other rule:
the domain types, `exact`, `homology.check_genus`, `homology.check_labels`,
`penner.check_genus_cap`, `holonomy.check_breakpoint_count` and
`sutured.check_tangency_count`.  Either way a parser raises ValueError
prefixed with the field path, so the CLI can report where an input file
went wrong.
A curve system keeps only its nonzeros (class pairs and crossings).  Its
dense coordinates and lower triangle are the schema's form, read and
written only here: `curve_system_from_json` checks their lengths and that
the counts are nonnegative, then hands the nonzeros to `HomologyClass` and
`CurveSystem`; a "0" entry is skipped unparsed.  At module level `jsonio`
imports only `exact` and `matrices` (the writers test for an `IntMatrix`);
each schema function imports the domain types it builds or checks when it
runs, so importing `jsonio`, and `cli` with it, loads no route's module.

Reports are written as lists of pieces: `json_pieces` gives the pieces
whose join is exactly what `json.dumps(report, indent=2)` returns, and
`text_pieces` those of the text report, each writing an `exact.Check` in
one branch.  `cli._emit` writes the join of each block of consecutive
pieces, so a large report is held once, as its pieces, and never also as
one string and that string's UTF-8 copy.

A list of strings, such as a coordinate pair, is written in one join.
When the items joined with no separator are ASCII, printable and hold no
'"' or '\\', no item needs an escape, and the list is the items joined by
'",', newline, indent and '"', inside one pair of quotes.  That test is
exact: the stdlib's ASCII string encoder leaves alone precisely the
characters ' ' to '~' other than '"' and '\\', and `isascii() and
isprintable()` holds for precisely the strings made of ' ' to '~'.  Any
other list goes through that encoder item by item.

A matrix reaches the writers as the `IntMatrix` itself and is written as
its rows, one piece per row, straight from its nonzeros, by one routine,
`_write_rows`.  A decimal string always passes the clean test, so a JSON
row of n entries is n cells joined by '",', newline, indent and '"', and
those separators depend on the indent alone.  `_write_rows` builds that
row once with every cell "0"; cell j then starts at j times the
separator's length plus one, and a row is the template's slices between
its nonzero columns, in increasing order, with str(v) in place of each
"0" cell.  The text report, one piece per line, takes the same call with
cells of "    0" joined by " " and f"{v:>5}" in place of a cell, so an
entry wider than five characters widens only its own cell.  Python work
per row grows with its nonzeros; the rest is C-level slicing.

A record list that grows with the input (the holonomy samples, the
candidate points) travels as a `Table`, one column per key, so no dict is
built per record.  A column holds strs, bools, or tuples of strs of one
width.  In `json.dumps(records, indent=2)` everything between two cells is
fixed by the indent and the keys alone: a comma, a newline, spaces, a
brace, a key, and the quotes around a string cell.  So the whole list is
those literals interleaved with the cells, in one join.  A bool cell is
"true" or "false", a tuple cell spreads into one string cell per
position, and a string column is written bare inside its literal quotes
when it passes the clean test above, or item by item through the string
encoder when it does not, which is the same rule a list of strings takes.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _encode_str
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Mapping, Sequence, Tuple, Type

from .exact import Check, frac, frac_pair, is_int
from .matrices import IntMatrix

if TYPE_CHECKING:  # each schema function imports the types it builds
    from .holonomy import ConjugacyWitness, PLHomeo
    from .homology import TwistWord
    from .penner import CurveSystem, PennerReport
    from .polytope import CandidatePoint, NormSpec, RatPolytope
    from .sutured import NovikovWitness, Tangency


# -- scalar encoding -----------------------------------------------------------


def _pair_strs(pairs: Iterable[Tuple[int, int]]) -> List[str]:
    """Each (numerator, denominator) pair as 'p/q', or 'p' over 1."""
    return [f"{a}/{d}" if d != 1 else str(a) for a, d in pairs]


def fmt_frac(x: Fraction) -> str:
    """_pair_strs of one value; takes an int or a Fraction as is."""
    return _pair_strs(((x.numerator, x.denominator),))[0]


def parse_int(value: Any, field: str) -> int:
    if is_int(value):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise ValueError(f"{field}: not an integer: {value!r}") from None
    if isinstance(value, bool):
        raise ValueError(f"{field}: expected an integer, got a boolean")
    raise ValueError(f"{field}: expected an integer, got {type(value).__name__}")


def _parse_int_list(value: Any, field: str) -> Tuple[int, List[Tuple[int, int]]]:
    """The length of a list and the (index, parse_int) pairs of its nonzero
    entries; an entry that is the string "0" is skipped unparsed."""
    raw = _expect_list(value, field)
    return len(raw), [(j, v) for j, x in enumerate(raw) if x != "0" and (v := parse_int(x, f"{field}[{j}]"))]


def _expect_list(value: Any, field: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{field}: expected a list")
    return value


def _expect_map(value: Any, field: str) -> Mapping:
    if not isinstance(value, dict):
        raise ValueError(f"{field}: expected an object")
    return value


def _get(mapping: Mapping, key: str, field: str) -> Any:
    if key not in mapping:
        raise ValueError(f"{field}: missing key {key!r}")
    return mapping[key]


def _get_enum(mapping: Mapping, key: str, field: str, kind: Type[Enum]) -> Enum:
    """The member of kind whose value is mapping[key]."""
    raw = _get(mapping, key, field)
    try:
        return kind(raw)
    except ValueError:
        expected = " or ".join(repr(member.value) for member in kind)
        raise ValueError(f"{field}.{key}: expected {expected}") from None


def _build(field: str, make: Callable, *args):
    """make(*args), with a domain type's ValueError prefixed by the field path."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from None


# -- reports -------------------------------------------------------------------


class Table:
    """A list of records stored by column, for `json_pieces`: record i is
    {key: column[i] for each key}, in key order.  A column holds strs,
    bools, or tuples of strs that all have one length."""

    __slots__ = ("columns",)

    def __init__(self, columns: Mapping[str, Sequence]):
        if len(set(map(len, columns.values()))) > 1:
            raise ValueError("table columns must have equal lengths")
        self.columns = dict(columns)

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))


def _interleave(seps: Sequence[str], columns: Sequence[Iterable[str]], rows: int) -> str:
    """seps[0] + columns[0][0] + seps[1] + columns[1][0] + ... + seps[-1],
    then the same for rows 1 to rows - 1, in one join; len(seps) is one
    more than len(columns)."""
    cells = [x for sep, column in zip(seps, columns) for x in (repeat(sep), column)]
    return "".join(chain.from_iterable(zip(*cells, repeat(seps[-1], rows))))


def json_pieces(report: dict) -> List[str]:
    """The pieces whose join is json.dumps(report, indent=2), byte for byte,
    for a tree of dicts with str keys, lists, strings, bools, `Table`s,
    `Check`s and `IntMatrix`es, a Table being written as its list of
    records, a Check as its {"name", "pass"} dict and a matrix as its rows
    of decimal strings.  A string or bool stands only as
    a dict's value, or a string in a list of strings; any other value, an
    int or None among them, raises TypeError.

    The stdlib falls back to its pure-Python encoder when indent is set.
    Here a string or bool in a dict is written inline with its key, a list
    of strings (a coordinate pair) or a Table is written in one join and a
    matrix row by row into one template, one piece per row, by the rules in
    the module docstring; every other string goes through the C string
    encoder."""
    parts: List[str] = []
    _write(report, "\n", parts)
    return parts


def _clean(flat: str) -> bool:
    """Whether no item of a join that makes flat needs an escape."""
    return flat.isascii() and flat.isprintable() and '"' not in flat and "\\" not in flat


def _write(o: Any, nl: str, parts: List[str]) -> None:
    """Append the parts of o; a closing bracket goes after nl, a newline
    and o's own indent."""
    if isinstance(o, dict):
        if not o:
            parts.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in o.items():
            if isinstance(value, str):
                parts.append(f"{sep}{_encode_str(key)}: {_encode_str(value)}")
            elif value is True or value is False:
                parts.append(f"{sep}{_encode_str(key)}: {'true' if value else 'false'}")
            else:
                parts.append(f"{sep}{_encode_str(key)}: ")
                _write(value, inner, parts)
            sep = "," + inner
        parts.append(nl + "}")
    elif isinstance(o, list):
        if not o:
            parts.append("[]")
            return
        inner = nl + "  "
        try:
            flat = "".join(o)
        except TypeError:  # not all strings
            pass
        else:
            if _clean(flat):
                quoted = '",' + inner + '"'
                parts.append(f'[{inner}"{quoted.join(o)}"{nl}]')
            else:
                parts.append(f"[{inner}{(',' + inner).join(map(_encode_str, o))}{nl}]")
            return
        sep = "[" + inner
        for value in o:
            parts.append(sep)
            _write(value, inner, parts)
            sep = "," + inner
        parts.append(nl + "]")
    elif isinstance(o, Table):
        _write_table(o, nl, parts)
    elif isinstance(o, Check):
        _write({"name": o.name, "pass": o.passed}, nl, parts)
    elif isinstance(o, IntMatrix):
        inner = nl + "  "
        item = inner + "  "
        _write_rows(parts, o, "0", f'",{item}"', str, f'[{inner}[{item}"', f'"{inner}],{inner}[{item}"',
                    f'"{inner}]{nl}]')
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


_BOOLS = ("false", "true")


def _write_table(table: Table, nl: str, parts: List[str]) -> None:
    """Append the table as its list of records, all of them in one join.

    Between two cells of a record, and around it, stand only literals: the
    newlines and indents, the braces, the keys, and the quotes of a clean
    column.  So the list is the columns `_interleave`d with those literals,
    a tuple column giving one column per position.  A column of strings
    that fails the clean test goes through the string encoder item by item."""
    if not len(table):
        parts.append("[]")
        return
    inner = nl + "  "
    field = inner + "  "
    item = field + "  "
    seps, cells = [], []
    sep, lead = "," + inner + "{", field  # the first record drops the comma
    for key, column in table.columns.items():
        sep += f"{lead}{_encode_str(key)}: "
        lead = "," + field
        kinds = set(map(type, column))
        if kinds == {bool}:
            seps.append(sep)
            cells.append(map(_BOOLS.__getitem__, column))
            sep = ""
            continue
        if kinds == {str}:
            subs, flat, start, end = [column], "".join(column), "", ""
        elif kinds == {tuple} and len(widths := set(map(len, column))) == 1:
            (width,) = widths
            subs = [map(itemgetter(j), column) for j in range(width)]
            flat = "".join(chain.from_iterable(column))
            start, end = ("[" + item, field + "]") if width else ("[]", "")
        else:
            raise TypeError(f"table column {key!r} must hold strs, bools or tuples of strs of one length")
        quote = '"' if _clean(flat) else ""
        sep += start
        for j, sub in enumerate(subs):
            seps.append(f"{sep}{',' + item if j else ''}{quote}")
            cells.append(sub if quote else map(_encode_str, sub))
            sep = quote
        sep += end
    seps.append(sep + inner + "}")
    parts.append("[" + _interleave(seps, cells, len(table))[1:] + nl + "]")


# -- matrices ------------------------------------------------------------------


def _dense_row(nonzeros, n: int) -> List[str]:
    """The n decimal strings of a row given by its (index, value) nonzeros."""
    line = ["0"] * n
    for j, v in nonzeros:
        line[j] = str(v)
    return line


def _write_rows(parts: List[str], m: IntMatrix, zero: str, sep: str, fmt: Callable[[int], str],
                lead: str, between: str, end: str) -> None:
    """Append m's rows to parts, one piece per row, lead before the first,
    between two rows and end after the last, as a piece of its own.  A row
    is m.n_cols cells of `zero` joined by sep, written as that template's
    slices with fmt(v) in place of the cell of each nonzero v, which starts
    at j * (len(sep) + len(zero)) for column j; the columns are taken in
    increasing order."""
    template, stride, width = sep.join(repeat(zero, m.n_cols)), len(sep) + len(zero), len(zero)
    for row in m.nonzeros:
        piece = [lead]
        at = 0
        for j in sorted(row):
            start = j * stride
            piece += (template[at:start], fmt(row[j]))
            at = start + width
        piece.append(template[at:])
        parts.append("".join(piece))
        lead = between
    parts.append(end)


# -- text reports ----------------------------------------------------------------


def text_pieces(report: dict) -> List[str]:
    """The pieces of the text report, one per line, one per matrix row, and
    a Table's records in one piece.  The report is one "key: value" line per
    entry, a nested dict or a list of records indented under its key, a
    Check as a "[PASS]" or "[FAIL]" line, and a matrix as its rows of
    five-character cells."""
    parts: List[str] = []
    _text(report, "", parts)
    if parts:
        parts[0] = parts[0][1:]  # each piece opens with the newline before its line
    return parts


def _text(report: dict, pad: str, parts: List[str]) -> None:
    """Append the lines of report, indented by pad, each after a newline."""
    for key, value in report.items():
        if key == "checks":
            parts += [f"\n{pad}[{'PASS' if c.passed else 'FAIL'}] {c.name}" for c in value]
        elif isinstance(value, dict):
            parts.append(f"\n{pad}{key}:")
            _text(value, pad + "  ", parts)
        elif isinstance(value, Table) and len(value):
            parts += (f"\n{pad}{key}:", _render_table(value, pad + "  "))
        elif isinstance(value, Table):
            parts.append(f"\n{pad}{key}: []")
        elif isinstance(value, IntMatrix):
            parts.append(f"\n{pad}{key}:")
            _write_rows(parts, value, "    0", " ", "{:>5}".format, f"\n{pad}  ", f"\n{pad}  ", "")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            parts.append(f"\n{pad}{key}:")
            for i, item in enumerate(value):
                if i:
                    parts.append(f"\n{pad}  -")
                _text(item, pad + "  ", parts)
        elif isinstance(value, list) and value and isinstance(value[0], list):
            parts.append(f"\n{pad}{key}:")
            parts += [f"\n{pad}  " + " ".join(f"{e:>5}" for e in row) for row in value]
        else:
            parts.append(f"\n{pad}{key}: {value}")


def _render_table(table: Table, pad: str) -> str:
    """The lines `text_pieces` gives the table's list of records, each after
    a newline: one "key: value" line per cell and a "-" line between
    records, in one join."""
    columns = table.columns
    seps = [f"\n{pad}{key}: " for key in columns]
    seps[0] = f"\n{pad}-" + seps[0]
    # a tuple shows as the list it stands for; a str or bool as itself
    cells = [map(str, map(list, c) if isinstance(c[0], tuple) else c) for c in columns.values()]
    return _interleave(seps + [""], cells, len(table))[len(pad) + 2:]


# -- curve systems and words ---------------------------------------------------


def curve_system_to_json(sys: CurveSystem) -> dict:
    n = 2 * sys.genus
    return {
        "genus": sys.genus,
        "curves": [
            {"label": c.label, "coords": _dense_row(c.cls.nonzeros, n), "family": c.family.value}
            for c in sys.curves
        ],
        "geo_int": _triangle(sys),
        **(
            {"regions": [{"disk": r.disk, "label": r.label} for r in sys.regions]}
            if sys.regions is not None
            else {}
        ),
    }


def _triangle(sys: CurveSystem) -> List[List[str]]:
    """The strict lower triangle of intersection numbers, zeros included."""
    rows = [[] for _ in sys.curves]
    for i, j, count in sys.crossings:
        rows[i].append((j, count))
    return [_dense_row(row, i) for i, row in enumerate(rows)]


def word_to_json(word: TwistWord) -> List[dict]:
    return [{"label": label, "exp": exp} for label, exp in word]


def curve_system_from_json(data: Any, field: str = "system") -> CurveSystem:
    from .homology import Family, HomologyClass, TwistGenerator, check_genus
    from .penner import CurveSystem, Region

    obj = _expect_map(data, field)
    genus = parse_int(_get(obj, "genus", field), f"{field}.genus")
    _build(f"{field}.genus", check_genus, genus)
    n = 2 * genus
    curves = []
    for i, entry in enumerate(_expect_list(_get(obj, "curves", field), f"{field}.curves")):
        at = f"{field}.curves[{i}]"
        e = _expect_map(entry, at)
        label = _get(e, "label", at)
        length, nonzeros = _parse_int_list(_get(e, "coords", at), f"{at}.coords")
        family = _get_enum(e, "family", at, Family)
        if length != n:
            raise ValueError(f"{at}.coords: coordinate length must equal 2*genus")
        cls = HomologyClass(genus, tuple(nonzeros))
        curves.append(_build(at, TwistGenerator, label, cls, family))
    geo = [
        _parse_int_list(row, f"{field}.geo_int[{i}]")
        for i, row in enumerate(_expect_list(_get(obj, "geo_int", field), f"{field}.geo_int"))
    ]
    regions = None
    if "regions" in obj:
        regions = []
        for i, entry in enumerate(_expect_list(obj["regions"], f"{field}.regions")):
            at = f"{field}.regions[{i}]"
            e = _expect_map(entry, at)
            regions.append(_build(at, Region, _get(e, "disk", at), e.get("label", "")))
        regions = tuple(regions)
    # row i of the strict lower triangle holds the counts of curve i with
    # curves 0..i-1; only the nonzeros become crossings
    if len(geo) != len(curves):
        raise ValueError(f"{field}: geo_int must have length {len(curves)}, one row per curve")
    crossings = []
    for i, (length, nonzeros) in enumerate(geo):
        if length != i:
            raise ValueError(f"{field}: geo_int[{i}] must have length {i} (strict lower triangle)")
        for j, count in nonzeros:
            if count < 0:
                raise ValueError(f"{field}: geo_int[{i}][{j}] must be a nonnegative integer")
            crossings.append((i, j, count))
    return _build(field, CurveSystem, genus, tuple(curves), tuple(crossings), regions)


def word_from_json(data: Any, field: str = "word") -> TwistWord:
    from .homology import TwistWord

    letters = []
    for i, entry in enumerate(_expect_list(data, field)):
        at = f"{field}[{i}]"
        e = _expect_map(entry, at)
        letters.append((_get(e, "label", at), parse_int(_get(e, "exp", at), f"{at}.exp")))
    return _build(field, TwistWord, tuple(letters))


def penner_input_from_json(data: Any, field: str = "input") -> Tuple[CurveSystem, TwistWord]:
    """The penner document: a curve system plus the word over its labels,
    at a genus the report can print."""
    from .homology import check_labels
    from .penner import check_genus_cap

    system = curve_system_from_json(data, field)
    word = word_from_json(_get(data, "word", field), f"{field}.word")
    check_labels(word, system.generator_map(), f"{field}.word")
    _build(f"{field}.genus", check_genus_cap, system.genus)
    return system, word


def penner_report_to_json(report: PennerReport) -> dict:
    return {
        "word_valid": report.word_valid,
        "all_curves_used": report.all_curves_used,
        "sign_discipline": report.sign_discipline,
        "filling_status": report.filling_status.value,
        "messages": list(report.messages),
    }


# -- polytopes -----------------------------------------------------------------


def polytope_to_json(p: RatPolytope) -> dict:
    return {
        "vertices": [[fmt_frac(x), fmt_frac(y)] for x, y in p.vertices],
        "halfspaces": [
            {"normal": [str(a), str(b)], "offset": str(c)}
            for (a, b), c in p.halfspaces
        ],
    }


def norm_spec_to_json(spec: NormSpec) -> dict:
    return {
        "x_f": fmt_frac(spec.x_f),
        "x_s": fmt_frac(spec.x_s),
        "x_sum": fmt_frac(spec.x_sum),
        "x_diff": fmt_frac(spec.x_diff),
        "chi": [str(spec.chi[0]), str(spec.chi[1])],
    }


def norm_spec_from_json(data: Any, field: str = "spec") -> NormSpec:
    from .polytope import NormSpec

    obj = _expect_map(data, field)
    chi_raw = _expect_list(_get(obj, "chi", field), f"{field}.chi")
    if len(chi_raw) != 2:
        raise ValueError(f"{field}.chi: expected two entries")
    return _build(
        field,
        NormSpec,
        *(_build(f"{field}.{k}", frac, _get(obj, k, field)) for k in ("x_f", "x_s", "x_sum", "x_diff")),
        (parse_int(chi_raw[0], f"{field}.chi[0]"), parse_int(chi_raw[1], f"{field}.chi[1]")),
    )


def candidates_to_json(points: Sequence[CandidatePoint]) -> Table:
    # every listed point lies on the dual ball's boundary and, being in 2Z^2,
    # matches the even chi mod 2; the vertices are the realizable ones
    vertex = [p.vertex for p in points]
    return Table({
        "coords": [(str(x), str(y)) for (x, y), _, _ in points],
        "location": ["boundary-vertex" if v else "boundary-nonvertex" for v in vertex],
        "parity_ok": [True] * len(points),
        "realizability": ["realizable-vertex" if v else "candidate" for v in vertex],
        "counterexample": [p.counterexample for p in points],
    })


# -- sutured -------------------------------------------------------------------


def tangencies_from_json(data: Any, field: str = "tangencies") -> List[Tangency]:
    from .sutured import Tangency, TangencyKind, check_tangency_count

    raw = _expect_list(data, field)
    _build(field, check_tangency_count, len(raw))  # before any entry is parsed
    out = []
    for i, entry in enumerate(raw):
        at = f"{field}[{i}]"
        e = _expect_map(entry, at)
        kind = _get_enum(e, "kind", at, TangencyKind)
        out.append(_build(at, Tangency, kind, parse_int(_get(e, "sign", at), f"{at}.sign")))
    return out


def tangencies_to_json(tangencies: Sequence[Tangency]) -> List[dict]:
    return [{"kind": t.kind.value, "sign": str(t.sign)} for t in tangencies]


def witness_to_json(w: NovikovWitness) -> dict:
    return {
        "k": str(w.k),
        "m": str(w.m),
        "initial_exponent": str(w.initial_exponent),
        "steps": [
            {
                "op": s.op,
                "exponent_added": str(s.exponent_added),
                "running_total": str(s.running_total),
            }
            for s in w.steps
        ],
        "final_exponent": str(w.final_exponent),
    }


# -- PL homeomorphisms ----------------------------------------------------------


def pl_to_json(f: PLHomeo) -> dict:
    return {"breakpoints": _pair_strs(f.breakpoint_pairs), "values": _pair_strs(f.value_pairs)}


def pl_from_json(data: Any, field: str = "map") -> PLHomeo:
    from .holonomy import PLHomeo

    obj = _expect_map(data, field)
    bps, vals = (_rational_list(obj, key, field) for key in ("breakpoints", "values"))
    return _build(field, PLHomeo._from_pairs, bps, vals)


def _rational_list(obj: Mapping, key: str, field: str) -> List[Tuple[int, int]]:
    """The lowest-terms pairs of a map's breakpoints or values, in one pass
    of frac_pair; their count is checked before any of them is parsed, and
    a bad entry is found again by the per-entry walk, which names its path."""
    from .holonomy import check_breakpoint_count

    at = f"{field}.{key}"
    raw = _expect_list(_get(obj, key, field), at)
    _build(field, check_breakpoint_count, len(raw))
    try:
        return list(map(frac_pair, raw))
    except ValueError:
        return [_build(f"{at}[{i}]", frac_pair, x) for i, x in enumerate(raw)]


def conjugacy_samples_to_json(w: ConjugacyWitness) -> Table:
    """The sample points as 'p/q' (or 'p') strings beside their verdicts."""
    return Table({"point": _pair_strs(zip(w.numerators, w.denominators)), "pass": w.verdicts})
