"""The one rule for exact rational inputs, from a library call or a file:
an int or a 'p/q' or decimal string is exact; a bool, a float, an exponent
string or any other type is not."""

from __future__ import annotations

from fractions import Fraction


def frac(x) -> Fraction:
    """x as a Fraction; a Fraction is returned as is."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool) or isinstance(x, float):
        raise ValueError(f"expected an exact rational, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        # Fraction would expand an exponent such as 1e-3000000 digit by digit
        if "e" not in x and "E" not in x:
            try:
                return Fraction(x)
            except (ValueError, ZeroDivisionError):
                pass
        raise ValueError(f"not a rational 'p/q' string: {x!r}")
    raise ValueError(f"expected an exact rational, got {type(x).__name__}")
