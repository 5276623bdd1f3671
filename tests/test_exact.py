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
