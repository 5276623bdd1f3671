"""Symplectic homology of a closed surface and Dehn-twist actions.

A closed orientable surface of genus g has first homology Z^{2g}.  We work
in the ordered basis r_1, s_1, ..., r_g, s_g in which the intersection form
is block diagonal with g blocks [[0, 1], [-1, 0]]; in particular
<r_i, s_i> = 1.

A Dehn twist along a simple closed curve c acts on homology as the
transvection x |-> x + <x, c> c (for the right-handed twist; the inverse
twist flips the sign).  Products of twists are encoded as words and their
actions computed as exact integer matrices.  The mapping torus of a map
acting as M on H_1 has b2 = 1 + dim ker(M - Id); b2 = 1 is the statement
that M fixes no nonzero class.

Convention: matrices computed here act on coordinate column vectors, so
column k holds the image of the k-th basis vector.  Every action matrix is
derived from its twist word by `word_action`; none is stored.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import compress
from math import gcd
from typing import Mapping, Sequence

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

    def cls(self, coords: Sequence[int]) -> "HomologyClass":
        return HomologyClass(self, tuple(coords))

    def zero(self) -> "HomologyClass":
        return self.cls([0] * self.dimension)

    def basis_s(self, i: int) -> "HomologyClass":
        """The class s_i, 1-based."""
        if not 1 <= i <= self.genus:
            raise ValueError("basis index out of range")
        coords = [0] * self.dimension
        coords[2 * i - 1] = 1
        return self.cls(coords)


@dataclass(frozen=True)
class HomologyClass:
    """Integer homology class in the symplectic basis of its space."""

    space: SymplecticSpace
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.space.dimension:
            raise ValueError("coordinate length must equal 2*genus")
        # one C-level pass over the types; the per-entry check only runs to
        # admit an int subclass
        if not {*map(type, self.coords)} <= {int} and any(
            isinstance(c, bool) or not isinstance(c, int) for c in self.coords
        ):
            raise ValueError("coordinates must be integers")

    def __add__(self, other: "HomologyClass") -> "HomologyClass":
        self._require_same_space(other)
        return HomologyClass(self.space, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "HomologyClass") -> "HomologyClass":
        self._require_same_space(other)
        return HomologyClass(self.space, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "HomologyClass":
        return HomologyClass(self.space, tuple(-a for a in self.coords))

    def __rmul__(self, k: int) -> "HomologyClass":
        if isinstance(k, bool) or not isinstance(k, int):
            raise ValueError("scalar must be an integer")
        return HomologyClass(self.space, tuple(k * a for a in self.coords))

    def _require_same_space(self, other: "HomologyClass"):
        if self.space != other.space:
            raise ValueError("classes live in different spaces")

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    @property
    def is_primitive(self) -> bool:
        # math.gcd of many arguments only checks the rest once it reaches 1
        return gcd(*self.coords) == 1


def algebraic_intersection(x: HomologyClass, y: HomologyClass) -> int:
    """Symplectic pairing <x, y> = x^T J y."""
    if x.space != y.space:
        raise ValueError("classes live in different spaces")
    total = 0
    coords_x, coords_y = x.coords, y.coords
    for i in range(x.space.genus):
        total += coords_x[2 * i] * coords_y[2 * i + 1] - coords_x[2 * i + 1] * coords_y[2 * i]
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
                f"curve {self.label!r}: class must be primitive or zero, got {self.cls.coords}"
            )


# Action-matrix entries grow as products of the exponents, and every report
# prints them exactly, so each |exponent| is capped as the witness |k| is.
MAX_TWIST_EXPONENT = 4096


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
        coords = gens[label].cls.coords
        support = [(k, coords[k]) for k in compress(range(n), coords)]
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
    return IntMatrix._from_nonzeros(rows, n)


# -- mapping-torus homology checks --------------------------------------------


def mapping_torus_b2(f_star: IntMatrix) -> int:
    """Rank of H_2 of the mapping torus of a map acting as f_star on H_1.

    Equals 1 + dim ker(f_star - Id), so it is 1 exactly when f_star fixes
    no nonzero class, i.e. det(f_star - Id) != 0.  The rank of f_star - Id
    comes from a fraction-free elimination, so it is exact.
    """
    return 1 + f_star.minus_identity().nullity()
