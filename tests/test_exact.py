import ast
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

from tautcalc import exact, jsonio, penner
from tautcalc.holonomy import PLHomeo, bundled_shifts, solve_conjugacy
from tautcalc.homology import HomologyClass, TwistWord
from tautcalc.matrices import IntMatrix
from tautcalc.polytope import NormSpec
from tautcalc.sutured import CorneredSurface, SuturedSolidTorus, Tangency, TangencyKind, novikov_witness


# a library call and an input file get the same answer, the file's with its field path
@pytest.mark.parametrize(
    "value, message",
    [
        (True, "expected an exact rational, got True"),
        (0.5, "expected an exact rational, got 0.5"),
        ("1e-3", "not a rational 'p/q' string: '1e-3'"),
        ("1E5", "not a rational 'p/q' string: '1E5'"),
        ("1/0", "not a rational 'p/q' string: '1/0'"),
        ([1], "expected an exact rational, got list"),
        (None, "expected an exact rational, got NoneType"),
    ],
)
def test_one_rational_rule_for_library_and_files(value, message):
    for make in (
        exact.frac,
        lambda x: NormSpec(x, x, 2, 2, (0, 0)),
        lambda x: PLHomeo([-1, x, 1], [-1, 0, 1]),
        lambda x: PLHomeo([-1, 0, 1], [-1, x, 1]),
    ):
        with pytest.raises(ValueError) as exc:
            make(value)
        assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        jsonio.norm_spec_from_json({"x_f": value, "x_s": "2", "x_sum": "2", "x_diff": "2", "chi": ["0", "0"]})
    assert str(exc.value) == f"spec.x_f: {message}"


class _Int(int):
    pass


class _Str(str):
    pass


class _Fraction(Fraction):
    pass


# plain 'p/q' and 'p' entries, which frac_pair reads itself, and the forms
# it hands to frac, each with frac's answer
PAIR_INPUTS = [
    "0", "-0", "+0/7", "7", "-12/8", "+3/9", "007/8", "0/5", "123456789012345678901234567890/3",
    "9" * 4300, "1/" + "9" * 4300, "9" * 4301, "1/" + "9" * 4301, "1/0", "0/0", "-5/0",
    " 0 ", "\t1/2\n", "1/2\n", "1_0/2_0", ".5", "1.", "-2.25", "٣/4", "1/٤", "1/-2", "1 / 2", "--1", "+-1",
    "1/2/3", "1e-3", "1E5", "", " ", "/2", "2/", "x", "1/x",
    0, -3, 10**30, Fraction(-6, 4), _Int(5), _Str("2/6"), _Str("1e3"), _Fraction(3, 9),
    True, False, 0.5, None, [1], (1, 2),
]


def _outcome(f, x):
    try:
        return f(x)
    except ValueError as exc:
        return ("error", str(exc))


@pytest.mark.parametrize("x", PAIR_INPUTS, ids=lambda x: repr(x)[:40])
def test_frac_pair_follows_frac(x):
    want = _outcome(exact.frac, x)
    got = _outcome(exact.frac_pair, x)
    if isinstance(want, Fraction):
        assert got == (want.numerator, want.denominator)
        assert type(got[0]) is int and type(got[1]) is int
    else:
        assert got == want


def test_frac_dispatch_keeps_subclasses_on_their_branches():
    # exact types take the fast branches; a subclass gets the answer it got
    # from the isinstance checks
    q = _Fraction(3, 9)
    assert exact.frac(q) is q
    assert exact.frac(_Int(5)) == 5 and type(exact.frac(_Int(5))) is Fraction
    assert exact.frac(_Str(" 2/6 ")) == Fraction(1, 3)
    for x, message in ((_Str("1e3"), "not a rational 'p/q' string: '1e3'"),
                       (True, "expected an exact rational, got True"),
                       (_Str("1/0"), "not a rational 'p/q' string: '1/0'")):
        with pytest.raises(ValueError) as exc:
            exact.frac(x)
        assert str(exc.value) == message


# -- the integer rule ------------------------------------------------------------

_CHAIN2 = penner.chain_system(2)[0]


def _crossing_count(x):
    return penner.CurveSystem(2, _CHAIN2.curves, ((1, 0, x),) + _CHAIN2.crossings[1:])


# Every integer field: how to build it from x, a value the field accepts, and
# the outcome of True, 1.0 and "1" in turn, a message or None for accepted.
INT_FIELDS = [
    ("HomologyClass genus", lambda x: HomologyClass(x, ()), 2, ("genus must be a positive integer",) * 3),
    ("HomologyClass index", lambda x: HomologyClass(2, ((x, 5),)), 1,
     ("nonzero indices must increase within range(2*genus)",) * 3),
    ("HomologyClass coordinate", lambda x: HomologyClass(2, ((0, x),)), -2,
     ("coordinates must be integers",) * 3),
    ("TwistWord exponent", lambda x: TwistWord((("a", x),)), -3,
     ("letter 'a': exponent must be a nonzero integer",) * 3),
    ("IntMatrix entry", lambda x: IntMatrix([[x, 0]]), 7,
     ("entries must be integers, got True", "entries must be integers, got 1.0",
      "entries must be integers, got '1'")),
    ("CurveSystem crossing count", _crossing_count, 3,
     ("crossings[0] must be an (i, j, count) triple of integers",) * 3),
    ("chain_system genus", penner.chain_system, 3, ("genus must be an integer >= 2",) * 3),
    ("NormSpec.chi[0]", lambda x: NormSpec(2, 2, 4, 4, (x, -2)), -2, ("chi entries must be integers",) * 3),
    ("NormSpec.chi[1]", lambda x: NormSpec(2, 2, 4, 4, (-2, x)), -2, ("chi entries must be integers",) * 3),
    ("NormSpec.surgery_family genus", NormSpec.surgery_family, 3, ("genus must be an integer >= 2",) * 3),
    ("NormSpec.is_surgery_family genus", NormSpec.surgery_family(3).is_surgery_family, 3,
     ("genus must be an integer >= 2",) * 3),
    ("CorneredSurface.base_chi", CorneredSurface, -1, ("base_chi must be an integer",) * 3),
    ("CorneredSurface.convex", lambda x: CorneredSurface(1, x), 2, ("convex must be an integer",) * 3),
    ("CorneredSurface.concave", lambda x: CorneredSurface(1, 0, x), 2, ("concave must be an integer",) * 3),
    ("SuturedSolidTorus.longitude_wraps", SuturedSolidTorus, 3,
     ("longitude_wraps must be a positive integer",) * 3),
    ("SuturedSolidTorus.suture_count", lambda x: SuturedSolidTorus(1, x), 4,
     ("suture_count must be a positive integer",) * 3),
    ("Tangency.sign", lambda x: Tangency(TangencyKind.SADDLE, x), -1, ("sign must be +1 or -1",) * 3),
    ("novikov_witness k", lambda x: novikov_witness(x, 1), -3, ("k must be a nonzero integer",) * 3),
    ("novikov_witness m", lambda x: novikov_witness(1, x), 5, ("m must be a nonzero integer",) * 3),
    ("solve_conjugacy tiles_per_side", lambda x: solve_conjugacy(*bundled_shifts(), "a", x, 4)[1], 2,
     ("tiles and samples must be integers",) * 3),
    ("solve_conjugacy samples", lambda x: solve_conjugacy(*bundled_shifts(), "a", 1, x)[1], 4,
     ("tiles and samples must be integers",) * 3),
    ("jsonio.parse_int", lambda x: jsonio.parse_int(x, "f"), 9,
     ("f: expected an integer, got a boolean", "f: expected an integer, got float", None)),
]


@pytest.mark.parametrize("name, make, good, messages", INT_FIELDS, ids=[f[0] for f in INT_FIELDS])
def test_integer_fields_share_one_rule(name, make, good, messages):
    # an int subclass is an integer and a bool is not, whatever the field
    for x, message in ((True, messages[0]), (1.0, messages[1]), ("1", messages[2]), (_Int(good), None)):
        if message is None:
            assert make(x) == make(int(x)), (name, x)
        else:
            with pytest.raises(ValueError) as exc:
                make(x)
            assert str(exc.value) == message, (name, x)


def _isinstance_tests(path):
    """For each expression that a module passes to isinstance, the type
    names it is tested against anywhere in that module."""
    tested = defaultdict(set)
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            value, types = node.args
            names = types.elts if isinstance(types, ast.Tuple) else [types]
            tested[ast.unparse(value)].update(n.id for n in names if isinstance(n, ast.Name))
    return tested


def test_integer_rule_has_one_owner():
    # the integer rule (an int, never a bool) is spelled in exact.is_int
    # alone; no other module tests one value against both bool and int
    modules = sorted(Path(exact.__file__).parent.glob("*.py"))
    spelled = {
        path.name: [expr for expr, names in _isinstance_tests(path).items() if {"bool", "int"} <= names]
        for path in modules
    }
    assert spelled.pop("exact.py") == ["x"]
    assert len(spelled) >= 9 and not any(spelled.values()), spelled
