"""Symplectic homology of a closed surface and Dehn-twist actions.

A closed orientable surface of genus g has first homology Z^{2g}.  We work
in the ordered basis r_1, s_1, ..., r_g, s_g in which the intersection form
is block diagonal with g blocks [[0, 1], [-1, 0]]; in particular
<r_i, s_i> = 1.

A Dehn twist along a simple closed curve c acts on homology as the
transvection x |-> x + <x, c> c (for the right-handed twist; the inverse
twist flips the sign).  Products of twists are encoded as words and their
actions computed as exact integer matrices.  The mapping torus of a map
acting as M on H_1 has b2 = 1 + dim ker(M - Id), which is 1 (M fixes no
nonzero class) exactly when det(M - Id) != 0.

A class is stored by its nonzero coordinates, as sorted (index, value)
pairs, so a curve of bounded support costs the same at every genus, to
build, to pair and to twist along.

Convention: matrices computed here act on coordinate column vectors, so
column k holds the image of the k-th basis vector.  Every action matrix is
derived from its twist word by `word_action`; none is stored.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain
from math import gcd
from typing import Mapping

from .matrices import IntMatrix


class Family(enum.Enum):
    """Which multicurve a twist generator belongs to."""

    A = "A"
    B = "B"


@dataclass(frozen=True)
class SymplecticSpace:
    """H_1 of a closed genus-g surface with its intersection form."""

    genus: int

    def __post_init__(self):
        if isinstance(self.genus, bool) or not isinstance(self.genus, int) or self.genus < 1:
            raise ValueError("genus must be a positive integer")

    @property
    def dimension(self) -> int:
        return 2 * self.genus


@dataclass(frozen=True)
class HomologyClass:
    """Integer homology class in the symplectic basis of its space.

    `nonzeros` is the one stored copy: the (index, value) pairs of the
    nonzero coordinates, in increasing index order, so equal classes have
    equal pairs and `==` and `hash` compare classes.  A chain curve has at
    most two pairs whatever the genus, and every check here costs in
    proportion to the pairs.
    """

    space: SymplecticSpace
    nonzeros: tuple

    def __post_init__(self):
        if type(self.nonzeros) is not tuple:
            raise ValueError("nonzeros must be a tuple of (index, value) pairs")
        n, last = self.space.dimension, -1
        for pair in self.nonzeros:
            if type(pair) is not tuple or len(pair) != 2:
                raise ValueError("nonzeros must be a tuple of (index, value) pairs")
            k, v = pair
            # exact ints pass on the type test; the isinstance tests only run
            # to admit an int subclass
            if (type(k) is not int and (isinstance(k, bool) or not isinstance(k, int))) or not last < k < n:
                raise ValueError("nonzero indices must increase within range(2*genus)")
            if type(v) is not int and (isinstance(v, bool) or not isinstance(v, int)):
                raise ValueError("coordinates must be integers")
            if not v:
                raise ValueError("nonzeros must not hold a zero coordinate")
            last = k

    @property
    def is_zero(self) -> bool:
        return not self.nonzeros

    @property
    def is_primitive(self) -> bool:
        # math.gcd of many arguments only checks the rest once it reaches 1
        return gcd(*[v for _, v in self.nonzeros]) == 1


def algebraic_intersection(x: HomologyClass, y: HomologyClass) -> int:
    """Symplectic pairing <x, y> = x^T J y.

    J pairs coordinate k with k ^ 1, with sign + for even k, so the sum
    runs over the nonzeros of x against those of y."""
    if x.space != y.space:
        raise ValueError("classes live in different spaces")
    other = dict(y.nonzeros)
    total = 0
    for k, v in x.nonzeros:
        w = other.get(k ^ 1, 0)
        total += -v * w if k & 1 else v * w
    return total


@dataclass(frozen=True)
class TwistGenerator:
    """A simple closed curve we twist along, together with its class.

    The class of a simple closed curve is primitive or zero; zero means the
    curve is null-homologous (separating) and its twist acts trivially on
    homology.  Anything else is rejected.
    """

    label: str
    cls: HomologyClass
    family: Family

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise ValueError("label must be a string")
        if not self.cls.is_zero and not self.cls.is_primitive:
            raise ValueError(
                f"curve {self.label!r}: class must be primitive or zero, got nonzeros {self.cls.nonzeros}"
            )


# Action-matrix entries grow as products of the exponents, and every report
# prints them exactly, so each |exponent| is capped as the witness |k| is,
# and so is the length of every entry of the action a word reaches: 8192
# bits is about 2467 decimal digits, under the 4300-digit limit of str().
MAX_TWIST_EXPONENT = 4096
MAX_ACTION_BITS = 8192


@dataclass(frozen=True)
class TwistWord:
    """Word in the twist generators; the rightmost letter is applied first.
    Each exponent is a nonzero integer with |exponent| <= MAX_TWIST_EXPONENT."""

    letters: tuple

    def __post_init__(self):
        for letter in self.letters:
            label, exp = letter
            if not isinstance(label, str):
                raise ValueError("letter labels must be strings")
            if isinstance(exp, bool) or not isinstance(exp, int) or exp == 0:
                raise ValueError(f"letter {label!r}: exponent must be a nonzero integer")
            if abs(exp) > MAX_TWIST_EXPONENT:
                raise ValueError(f"letter {label!r}: exponent must be at most {MAX_TWIST_EXPONENT}")

    def __iter__(self):
        return iter(self.letters)

    def __len__(self):
        return len(self.letters)


def word_action(word: TwistWord, gens: Mapping[str, TwistGenerator]) -> IntMatrix:
    """Product of transvection matrices in the word's composition order.

    Letters are written outermost first, so the matrix is the product of the
    letter matrices in written order (the rightmost letter acts first on
    column vectors).  The letter c^e is the matrix I - e c (c^T J), so
    multiplying by it on the right is the rank-one update
    rows -= e (rows c)(c^T J), which changes only the rows with a nonzero on
    the support of c, and in them only the columns of c^T J.

    The rows are dicts of their nonzeros, and `holders[k]` is the set of
    rows with a nonzero in column k, kept up to date as entries appear and
    cancel.  Each letter reads the holders of its support and rewrites only
    those rows, so a word over curves of bounded support costs in proportion
    to the nonzeros it reaches, not to n^2.

    Raises ValueError when an entry of the product is longer than
    MAX_ACTION_BITS bits, which one pass over the nonzeros finds.
    """
    spaces = {g.cls.space for g in gens.values()}
    if not spaces:
        raise ValueError("empty generator set")
    if len(spaces) > 1:
        raise ValueError("generators live in different spaces")
    (space,) = spaces
    n = space.dimension
    rows = [{i: 1} for i in range(n)]
    holders = [{i} for i in range(n)]
    for label, exp in word:
        if label not in gens:
            raise ValueError(f"unknown twist label {label!r}")
        support = gens[label].cls.nonzeros
        # row += f * e (c^T J), f = row . c, with (c^T J)_{2i+1} = c_{2i}
        # and (c^T J)_{2i} = -c_{2i+1}
        update = [(k ^ 1, exp * ck if k & 1 else -exp * ck) for k, ck in support]
        for i in set().union(*[holders[k] for k, _ in support]):
            row = rows[i]
            f = 0
            for k, ck in support:
                if k in row:
                    f += row[k] * ck
            if not f:
                continue
            for j, v in update:
                if j in row:
                    x = row[j] + f * v
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                        holders[j].discard(i)
                else:
                    row[j] = f * v
                    holders[j].add(i)
    if max(map(abs, chain.from_iterable(map(dict.values, rows)))).bit_length() > MAX_ACTION_BITS:
        raise ValueError(f"action entries must be at most {MAX_ACTION_BITS} bits long")
    return IntMatrix._from_nonzeros(rows, n)


# -- mapping-torus homology checks --------------------------------------------


def mapping_torus(f_star: IntMatrix) -> tuple:
    """(f_star - Id, its signed determinant, b2) for a map acting as f_star
    on H_1.  b2 = 1 + dim ker(f_star - Id) is 1 exactly when the determinant
    is nonzero; only otherwise does a second elimination find the rank.
    """
    diff = f_star.minus_identity()
    det = diff.det()
    return diff, det, 1 if det else 1 + diff.n_rows - diff.rank()
