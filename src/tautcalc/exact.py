"""The one rule for exact rational inputs, from a library call or a file:
an int or a 'p/q' or decimal string is exact; a bool, a float, an exponent
string or any other type is not.

`frac` applies the rule and returns a Fraction.  `frac_pair` applies the
same rule and returns the lowest-terms pair (numerator, denominator), with
the denominator positive.  A plain entry, an optional sign, ASCII digits
and an optional '/' and ASCII digits, is read by one compiled pattern and
int(); everything else, and a plain entry with a zero denominator or a
part past int()'s digit limit, goes through `frac`, so both functions
accept the same inputs and raise the same messages.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Tuple

_PLAIN = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def frac(x) -> Fraction:
    """x as a Fraction; a Fraction is returned as is."""
    # the exact types first; a subclass takes the isinstance checks below
    cls = type(x)
    if cls is Fraction:
        return x
    if cls is int:
        return Fraction(x)
    if cls is not str:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, bool) or isinstance(x, float):
            raise ValueError(f"expected an exact rational, got {x!r}")
        if isinstance(x, int):
            return Fraction(x)
        if not isinstance(x, str):
            raise ValueError(f"expected an exact rational, got {type(x).__name__}")
    # Fraction would expand an exponent such as 1e-3000000 digit by digit
    if "e" not in x and "E" not in x:
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"not a rational 'p/q' string: {x!r}")


def frac_pair(x) -> Tuple[int, int]:
    """frac(x) as its lowest-terms (numerator, denominator) pair."""
    cls = type(x)
    if cls is str:
        plain = _PLAIN.fullmatch(x)
        if plain is not None:
            num, den = plain.groups()
            try:
                n, d = int(num), int(den or 1)
            except ValueError:  # a part past int()'s digit limit; frac says so
                pass
            else:
                if d:
                    g = gcd(n, d)
                    return n // g, d // g
    elif cls is int:
        return x, 1
    q = frac(x)
    return q.numerator, q.denominator
