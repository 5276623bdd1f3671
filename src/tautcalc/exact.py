"""The one owner of each number rule for inputs, from a library call or a
file.

`is_int` is the integer rule: an int or an int subclass, never a bool.
Every integer field tests its value with it, then applies its own bounds
and message.

`frac_pair` is the exact rational rule and its one parser.  An int, a
Fraction, or a 'p/q' or decimal string is exact and comes back as its
lowest-terms pair (numerator, denominator), the denominator positive; a
bool, a float, an exponent string or any other type is not.  A plain
entry, an optional sign, ASCII digits and an optional '/' and ASCII
digits, is read by one compiled pattern and int(); any other string, and
a plain entry with a zero denominator or a part past int()'s digit limit,
by Fraction(str).  `frac` is the Fraction view of `frac_pair`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Tuple

_PLAIN = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


class Check(NamedTuple):
    """A report check, from the function that decides it; only `jsonio` writes it."""

    name: str
    passed: bool


def is_int(x) -> bool:
    """Whether x is an integer: an int or an int subclass, never a bool."""
    return type(x) is int or (isinstance(x, int) and not isinstance(x, bool))


def frac_pair(x) -> Tuple[int, int]:
    """x as its lowest-terms (numerator, denominator) pair."""
    if isinstance(x, str):
        plain = _PLAIN.fullmatch(x)
        if plain is not None:
            num, den = plain.groups()
            try:
                n, d = int(num), int(den or 1)
            except ValueError:  # a part past int()'s digit limit; Fraction says so
                pass
            else:
                if d:
                    g = gcd(n, d)
                    return n // g, d // g
        # Fraction would expand an exponent such as 1e-3000000 digit by digit
        if "e" not in x and "E" not in x:
            try:
                q = Fraction(x)
            except (ValueError, ZeroDivisionError):
                pass
            else:
                return q.numerator, q.denominator
        raise ValueError(f"not a rational 'p/q' string: {x!r}")
    if is_int(x) or isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, (bool, float)):
        raise ValueError(f"expected an exact rational, got {x!r}")
    raise ValueError(f"expected an exact rational, got {type(x).__name__}")


def frac(x) -> Fraction:
    """frac_pair(x) as a Fraction; a Fraction or a subclass is returned as is."""
    if isinstance(x, Fraction):
        return x
    return Fraction(*frac_pair(x))
