from fractions import Fraction

import pytest

from tautcalc import exact, jsonio
from tautcalc.holonomy import PLHomeo
from tautcalc.polytope import NormSpec


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
        jsonio.parse_frac(value, "x")
    assert str(exc.value) == f"x: {message}"


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
