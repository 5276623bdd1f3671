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
derived from its twist word by `word_action`, which applies each letter on
the left, to the rows on its curve's support; none is stored.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain
from math import gcd
from typing import Mapping

from .exact import is_int
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
        if not is_int(self.genus) or self.genus < 1:
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
        if not isinstance(self.space, SymplecticSpace):
            raise ValueError("space must be a SymplecticSpace")
        if type(self.nonzeros) is not tuple:
            raise ValueError("nonzeros must be a tuple of (index, value) pairs")
        n, last = self.space.dimension, -1
        for pair in self.nonzeros:
            if type(pair) is not tuple or len(pair) != 2:
                raise ValueError("nonzeros must be a tuple of (index, value) pairs")
            k, v = pair
            if not is_int(k) or not last < k < n:
                raise ValueError("nonzero indices must increase within range(2*genus)")
            if not is_int(v):
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
        if not isinstance(self.family, Family):
            raise ValueError(f"curve {self.label!r}: family must be a Family")
        if not isinstance(self.cls, HomologyClass):
            raise ValueError(f"curve {self.label!r}: class must be a HomologyClass")
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
        if type(self.letters) is not tuple:
            raise ValueError("letters must be a tuple of (label, exponent) pairs")
        for letter in self.letters:
            if type(letter) is not tuple or len(letter) != 2:
                raise ValueError("letters must be a tuple of (label, exponent) pairs")
            label, exp = letter
            if not isinstance(label, str):
                raise ValueError("letter labels must be strings")
            if not is_int(exp) or exp == 0:
                raise ValueError(f"letter {label!r}: exponent must be a nonzero integer")
            if abs(exp) > MAX_TWIST_EXPONENT:
                raise ValueError(f"letter {label!r}: exponent must be at most {MAX_TWIST_EXPONENT}")

    def __iter__(self):
        return iter(self.letters)

    def __len__(self):
        return len(self.letters)


def check_labels(word: TwistWord, gens: Mapping[str, TwistGenerator], field: str = "word") -> None:
    """The one unknown-label rule: refuse the first letter whose label is not
    a key of gens, naming it by its index under field."""
    for i, (label, _) in enumerate(word):
        if label not in gens:
            raise ValueError(f"{field}[{i}]: unknown curve label {label!r}")


def word_action(word: TwistWord, gens: Mapping[str, TwistGenerator]) -> IntMatrix:
    """Product of transvection matrices in the word's composition order.

    Letters are written outermost first, so the matrix is the product of the
    letter matrices in written order (the rightmost letter acts first on
    column vectors).  The letter c^e is the matrix I - e c (c^T J), so the
    letters are taken from the last written to the first and each multiplies
    the product so far on the left: the rank-one update
    M -= e c (c^T J M), which changes only the rows on the support of c and
    reads only the rows paired with it.  The rows are dicts of their
    nonzeros, so a word over curves of bounded support costs in proportion
    to the nonzeros it reaches, not to n^2.

    Raises ValueError on a label `check_labels` refuses, before any letter
    is applied, and on an entry of the product over MAX_ACTION_BITS bits.
    """
    spaces = {g.cls.space for g in gens.values()}
    if not spaces:
        raise ValueError("empty generator set")
    if len(spaces) > 1:
        raise ValueError("generators live in different spaces")
    (space,) = spaces
    check_labels(word, gens)
    n = space.dimension
    rows = [{i: 1} for i in range(n)]
    for label, exp in reversed(word.letters):
        support = gens[label].cls.nonzeros
        # row i += c_i u for i on the support, u = -e (c^T J) M, which sums
        # -e c_k (row k^1) for even k and +e c_k (row k^1) for odd k, since
        # (c^T J)_{2i+1} = c_{2i} and (c^T J)_{2i} = -c_{2i+1}.  A class can
        # hold both k and k^1, so u is read in full before any row is written.
        u = {}
        for k, ck in support:
            f = exp * ck if k & 1 else -exp * ck
            for j, v in rows[k ^ 1].items():
                u[j] = u.get(j, 0) + f * v
        for i, ci in support:
            row = rows[i]
            for j, v in u.items():
                x = row.get(j, 0) + ci * v
                if x:
                    row[j] = x
                elif j in row:
                    del row[j]
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
