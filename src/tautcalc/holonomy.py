"""Exact piecewise-linear interval homeomorphisms and conjugacy constructions.

`PLHomeo` is an increasing PL self-map of [-1, 1]; its breakpoints and
values go through `exact.frac_pair` to lowest-terms integer (numerator,
denominator) pairs, and inversion and evaluation are exact.  It is stored
and set up on those pairs, with no Fraction per entry and no Fraction
arithmetic; `breakpoints` and `values` are Fraction views of them, and
`inverse` is read off the stored segments.

`solve_conjugacy` builds, for endpoint-fixing homeomorphisms u and v of
[-1, 1], a homeomorphism t of [-1, 1] conjugate to a chosen concatenation
expression in u, v and t itself:

    (a) u t^-1 v   (b) u t v   (c) u t   (d) t v   (e) u t^-1   (f) t^-1 v

where concatenation places the maps side by side on consecutive
subintervals.  The solution tiles [-1, 1] by the intervals

    [-1, -1/2], [-1/2, -1/3], ... -> 0 <- ..., [1/3, 1/2], [1/2, 1]

and holds, per side, a tuple of one or two maps of [-1, 1]: tile n carries
an affinely rescaled copy of maps[(n - 1) % len(maps)], with t(0) = 0.
The negative side holds (u,) or, when t enters the expression inverted,
(u, u^-1); the positive side holds v likewise, and a side whose map is
absent from the expression holds the identity.  When t enters inverted,
t^-1 holds t's tile maps in turn, (u^-1, u) and (v^-1, v), so each map is
inverted once per construction.  The conjugating map h carries each tile
onto the next one outward, into the prepended/appended pieces of the
concatenation; everything is affine on tiles, so the conjugacy identity
h(t(x)) = expr(h(x)) can be checked exactly at rational points.  The
tiling is stored as a rule, never materialized, so evaluation is exact at
every rational.

Every chart is in closed form, an affine map y = k*q - m of an interval
onto [-1, 1] with integers k and m, and its inverse q = (m + y)/k.  Tile n
on side s (s = +-1) is [1/(n + 1), 1/n], mirrored for s = -1, with
k = 2n(n + 1) and m = s(2n + 1); the tile of a nonzero q = a/d is
n = d // |a|.  Piece i of a concatenation is [i, i + 1], with k = 2 and
m = 2i + 1.

Each map evaluates in one kernel, `_eval_pair`, on an unreduced integer
pair a/d with d > 0 in its domain, which no kernel checks: the public
`eval` refuses a point outside it, and `solve_conjugacy` lays its samples
out in [-1, 1], where each chart and map sends its domain into the next
by construction.  The chart in is (k*a - m*d, d), the chart out
(m*d' + a', k*d'), and the tile and piece indices d // |a| and a // d do
not change when a and d are scaled, so no chart reduces its pair.  The
one reduction is at a `PLHomeo`: its kernel divides the point by
gcd(a, d) and looks it up in `memo`, a dict keyed on (id of the map,
numerator, denominator) of the point in lowest terms, with the map's value
there as a pair; only on a miss does it search the segments and store the
result.  A `PLHomeo` segment is y = (A*x + C)/D with integers A, C, D of
its own, computed from the cross products of its ends and reduced by
gcd(A, C, D), and the segment search compares a/d with each breakpoint by
cross-multiplying.  The inverse segment is x = (D*y - C)/A.  `TiledHomeo`
and `Concatenation` pass `memo` down to their maps; `TileShiftMap` holds
no map and takes none; it computes its chart constants from its two
fields once, when it is built.

The caller owns `memo` and sets its scope: each public `eval` passes a
new one and reduces the kernel's pair to one Fraction, and
`solve_conjugacy` makes one per call, drops it on return, and compares
both sides of the identity as pairs.  The chart of tile n sends the j-th
sample point of that tile to -1 + 2j/(per_tile + 1), for every n and on
both sides, and h sends it to the same chart point of tile n - 1 in the
middle piece.  So in one solve each tile map is searched at about
per_tile + 2 points, however many tiles there are; the memo holds one
entry per map and distinct point, and every id in it names a map that the
call keeps alive.  A layout that repeats no chart point (one tile per
side) pays for the lookups and gains nothing.

The sample layout is integer columns: tile n holds per_tile numerators
over the one denominator n(n + 1)(per_tile + 1), reduced by gcd in one
pass over the columns.  `solve_conjugacy` feeds each reduced pair to the
per-point kernels and keeps the pairs and the verdicts as columns in
`ConjugacyWitness`, so no Fraction, `SampleCheck` or other per-sample
object is built between a sample point and its verdict;
`ConjugacyWitness.checks` builds its `SampleCheck`s on demand.  A map has
at most MAX_BREAKPOINTS breakpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, repeat, starmap
from math import gcd
from operator import floordiv, itemgetter, mul, ne, sub
from typing import List, Optional, Sequence, Tuple

from .exact import frac_pair, is_int


# A map is read and inverted in time and memory that grow with its
# breakpoints, so their number is capped.
MAX_BREAKPOINTS = 4096


def check_breakpoint_count(count: int) -> None:
    """Refuse a map with more than MAX_BREAKPOINTS breakpoints or values."""
    if count > MAX_BREAKPOINTS:
        raise ValueError(f"a map has at most {MAX_BREAKPOINTS} breakpoints, got {count}")


def _unit_pair(q) -> Tuple[int, int]:
    """q as a lowest-terms pair (`exact.frac_pair`), refused outside [-1, 1]."""
    a, d = frac_pair(q)
    if abs(a) > d:
        raise ValueError(f"{Fraction(a, d)} outside [-1, 1]")
    return a, d


class PLHomeo:
    """Increasing piecewise-linear homeomorphism of [-1, 1].

    Stored as the lowest-terms integer pairs (numerator, denominator) of its
    interior breakpoints and their values, the ends being -1 and 1; collinear
    interior breakpoints are dropped, so equal maps have equal data.
    `breakpoints` and `values` are Fraction views of the pairs, ends
    included.  Each segment is derived once, for the kernels:
    y = (A*x + C)/D as integers (A, C, D) with D > 0 and gcd(A, C, D) = 1,
    the one such triple of its line.

    Set-up runs on the pairs of the inputs (`exact.frac_pair`): the order
    and endpoint checks cross-multiply, each input segment's triple comes
    from the four cross products of its ends, and a breakpoint is collinear
    with its neighbours exactly when the segments on either side have equal
    triples.  `inverse` reads its data off the stored segments.
    """

    __slots__ = ("_cuts", "_cut_values", "_segments")

    def __init__(self, breakpoints: Sequence, values: Sequence):
        check_breakpoint_count(max(len(breakpoints), len(values)))
        _setup(self, list(map(frac_pair, breakpoints)), list(map(frac_pair, values)))

    @classmethod
    def from_pairs(cls, breakpoints: List[Tuple[int, int]], values: List[Tuple[int, int]]) -> "PLHomeo":
        """The map through breakpoints and values given as lowest-terms
        (numerator, denominator) pairs with positive denominators, as
        `exact.frac_pair` returns them."""
        check_breakpoint_count(max(len(breakpoints), len(values)))
        f = object.__new__(cls)
        _setup(f, breakpoints, values)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("PLHomeo is immutable")

    @property
    def breakpoint_pairs(self) -> Tuple[Tuple[int, int], ...]:
        return ((-1, 1), *self._cuts, (1, 1))

    @property
    def value_pairs(self) -> Tuple[Tuple[int, int], ...]:
        return ((-1, 1), *self._cut_values, (1, 1))

    @property
    def breakpoints(self) -> Tuple[Fraction, ...]:
        return tuple(starmap(Fraction, self.breakpoint_pairs))

    @property
    def values(self) -> Tuple[Fraction, ...]:
        return tuple(starmap(Fraction, self.value_pairs))

    def __eq__(self, other):
        return (
            isinstance(other, PLHomeo)
            and self._cuts == other._cuts
            and self._cut_values == other._cut_values
        )

    def __hash__(self):
        return hash((self._cuts, self._cut_values))

    def __repr__(self):
        pairs = ", ".join(f"{b}->{v}" for b, v in zip(self.breakpoints, self.values))
        return f"PLHomeo({pairs})"

    @classmethod
    def identity(cls) -> "PLHomeo":
        """The identity of [-1, 1]: no interior breakpoint, and the one
        segment y = (1*x + 0)/1."""
        f = object.__new__(cls)
        _fill(f, (), (), ((1, 0, 1),))
        return f

    def eval(self, q) -> Fraction:
        return Fraction(*self._eval_pair(*_unit_pair(q), {}))

    def _eval_pair(self, a: int, d: int, memo: dict) -> Tuple[int, int]:
        """The value at a/d in [-1, 1], d > 0, as a pair whose denominator
        is D times that of a/d in lowest terms.  memo holds the values found
        so far, keyed on (id(self), numerator, denominator) of the point in
        lowest terms; the caller owns it and keeps the maps alive while it
        does."""
        g = gcd(a, d)
        a, d = a // g, d // g
        key = (id(self), a, d)
        y = memo.get(key)
        if y is not None:
            return y
        # the last segment whose left breakpoint is <= a/d; the right
        # endpoint 1 takes the last segment
        cuts = self._cuts
        lo, hi = 0, len(cuts)
        while lo < hi:
            mid = (lo + hi) // 2
            bn, bd = cuts[mid]
            if a * bd < bn * d:
                hi = mid
            else:
                lo = mid + 1
        A, C, D = self._segments[lo]
        y = memo[key] = A * a + C * d, D * d
        return y

    def inverse(self) -> "PLHomeo":
        """The inverse map, from the stored data: y = (A*x + C)/D inverts to
        x = (D*y - C)/A, and A > 0 since the map increases."""
        inv = object.__new__(PLHomeo)
        _fill(inv, self._cut_values, self._cuts, tuple((D, -C, A) for A, C, D in self._segments))
        return inv


def _setup(f: PLHomeo, bps: List[Tuple[int, int]], vals: List[Tuple[int, int]]) -> None:
    if len(bps) != len(vals) or len(bps) < 2:
        raise ValueError("need matching breakpoint/value sequences of length >= 2")
    bn, bd = list(map(itemgetter(0), bps)), list(map(itemgetter(1), bps))
    vn, vd = list(map(itemgetter(0), vals)), list(map(itemgetter(1), vals))
    # segment i runs from x0 = a0/b0 to x1 = a1/b1, and from y0 = c0/e0
    # to y1 = c1/e1; over the denominators b0*b1*e0*e1 its line is
    # y = (A*x + C)/D with D = (a1*b0 - a0*b1)*e0*e1,
    # A = (c1*e0 - c0*e1)*b0*b1 and C = c0*e1*a1*b0 - c1*e0*a0*b1
    ab, ba = list(map(mul, bn[1:], bd)), list(map(mul, bn, bd[1:]))
    ce, ec = list(map(mul, vn[1:], vd)), list(map(mul, vn, vd[1:]))
    dx, dy = list(map(sub, ab, ba)), list(map(sub, ce, ec))
    if min(dx) <= 0:
        raise ValueError("breakpoints must be strictly increasing")
    if min(dy) <= 0:
        raise ValueError("values must be strictly increasing")
    ends = (bn[0], bd[0], bn[-1], bd[-1])
    if (vn[0], vd[0], vn[-1], vd[-1]) != ends:
        raise ValueError("endpoints must be fixed")
    if ends != (-1, 1, 1, 1):
        raise ValueError("must be a homeomorphism of [-1, 1]")
    A = list(map(mul, dy, map(mul, bd, bd[1:])))
    C = list(map(sub, map(mul, ec, ab), map(mul, ce, ba)))
    D = list(map(mul, dx, map(mul, vd, vd[1:])))
    g = list(map(gcd, A, C, D))
    lines = list(zip(map(floordiv, A, g), map(floordiv, C, g), map(floordiv, D, g)))
    # interior breakpoint i is kept when segments i - 1 and i differ
    kept = list(map(ne, lines, lines[1:]))
    _fill(
        f,
        tuple(compress(bps[1:-1], kept)),
        tuple(compress(vals[1:-1], kept)),
        (lines[0], *compress(lines[1:], kept)),
    )


def _fill(f: PLHomeo, cuts: tuple, cut_values: tuple, segments: tuple) -> None:
    object.__setattr__(f, "_cuts", cuts)
    object.__setattr__(f, "_cut_values", cut_values)
    object.__setattr__(f, "_segments", segments)


# -- lazy tiled homeomorphisms ----------------------------------------------------


@dataclass(frozen=True)
class TiledHomeo:
    """Homeomorphism of [-1, 1] assembled from rescaled copies of the tile
    maps on the standard tiles, fixing 0.

    Each side holds one or two maps of [-1, 1]; tile n on that side carries
    `maps[(n - 1) % len(maps)]`, so two maps alternate from tile 1 outward.
    """

    negative: Tuple[PLHomeo, ...]
    positive: Tuple[PLHomeo, ...]

    def __post_init__(self):
        if not self.negative or not self.positive:
            raise ValueError("each side needs one or more maps of [-1, 1]")

    def eval(self, q) -> Fraction:
        return Fraction(*self._eval_pair(*_unit_pair(q), {}))

    def _eval_pair(self, a: int, d: int, memo: dict) -> Tuple[int, int]:
        if a < 0:
            n = d // -a
            maps, m = self.negative, -(2 * n + 1)
        elif a:
            n = d // a
            maps, m = self.positive, 2 * n + 1
        else:
            return a, d
        k = 2 * n * (n + 1)
        ya, yd = maps[(n - 1) % len(maps)]._eval_pair(k * a - m * d, d, memo)
        return m * yd + ya, k * yd


# -- concatenations and the conjugacy witness -------------------------------------


@dataclass(frozen=True)
class Concatenation:
    """Maps placed side by side: piece i acts on [i, i+1], rescaled from its
    own domain [-1, 1]."""

    pieces: tuple
    _count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("a concatenation needs one or more pieces")
        object.__setattr__(self, "_count", len(self.pieces))

    def eval(self, q) -> Fraction:
        a, d = frac_pair(q)
        if not 0 <= a <= self._count * d:
            raise ValueError(f"{Fraction(a, d)} outside [0, {self._count}]")
        return Fraction(*self._eval_pair(a, d, {}))

    def _eval_pair(self, a: int, d: int, memo: dict) -> Tuple[int, int]:
        k = self._count
        i = a // d
        if i == k:
            i -= 1
        m = 2 * i + 1
        ya, yd = self.pieces[i]._eval_pair(2 * a - m * d, d, memo)
        return m * yd + ya, 2 * yd


@dataclass(frozen=True)
class TileShiftMap:
    """The conjugator h: [-1, 1] -> concatenation domain.

    The end piece on the negative (positive) side is piece middle_index - 1
    (middle_index + 1).  Where it exists, tile 1 on that side is carried
    onto it and tile n onto the chart image of tile n-1 in the middle
    piece; on a side without one, h is the affine chart onto the middle
    piece.  Affine on every tile, with h(0) at the chart image of 0.
    """

    middle_index: int
    piece_count: int
    # read off the two fields once: the middle piece's chart constant
    # 2*middle_index + 1, and per side the chart constant 2*end + 1 of its
    # end piece, or None where that side has none
    _middle: int = field(init=False, repr=False, compare=False)
    _negative_end: Optional[int] = field(init=False, repr=False, compare=False)
    _positive_end: Optional[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_middle", 2 * self.middle_index + 1)
        for name, end in (("_negative_end", self.middle_index - 1), ("_positive_end", self.middle_index + 1)):
            object.__setattr__(self, name, 2 * end + 1 if 0 <= end < self.piece_count else None)

    def eval(self, q) -> Fraction:
        return Fraction(*self._eval_pair(*_unit_pair(q)))

    def _eval_pair(self, a: int, d: int) -> Tuple[int, int]:
        side, end = (-1, self._negative_end) if a < 0 else (1, self._positive_end)
        m = self._middle
        if a == 0 or end is None:
            return m * d + a, 2 * d
        n = d // (side * a)
        if n == 1:
            # the chart of tile 1 onto [-1, 1], y = 4x - 3*side, then onto the end piece
            return end * d + 4 * a - 3 * side * d, 2 * d
        # tile n onto tile n - 1 is x -> (n(n + 1)x - side)/(n(n - 1)), then
        # the middle piece's chart y -> (m + y)/2; over 2n(n - 1)d that is
        p = n * (n - 1)
        return m * p * d + n * (n + 1) * a - side * d, 2 * p * d


# The six cases and the concatenation each makes t conjugate to;
# `solve_conjugacy` reads the whole construction off these letters.
EXPRESSIONS = {
    "a": "u t^-1 v",
    "b": "u t v",
    "c": "u t",
    "d": "t v",
    "e": "u t^-1",
    "f": "t^-1 v",
}


@dataclass(frozen=True)
class SampleCheck:
    point: Fraction
    passed: bool


@dataclass(frozen=True)
class ConjugacyWitness:
    """Exact verification data for h(t(x)) = expr(h(x)) at sampled rationals:
    the reduced sample points as two integer columns, in `_sample_layout`
    order, and the verdict at each point."""

    case: str
    numerators: Tuple[int, ...]
    denominators: Tuple[int, ...]
    verdicts: Tuple[bool, ...]
    tiles_per_side: int

    @property
    def expression(self) -> str:
        return EXPRESSIONS[self.case]

    @property
    def checks(self) -> Tuple[SampleCheck, ...]:
        """The samples as `SampleCheck`s, built on each call."""
        return tuple(map(SampleCheck, map(Fraction, self.numerators, self.denominators), self.verdicts))

    @property
    def all_passed(self) -> bool:
        return all(self.verdicts)


def _sample_layout(tiles_per_side: int, per_tile: int) -> Tuple[List[int], List[int]]:
    """The sample points as reduced (numerators, denominators) columns: the
    endpoints and the center, then per_tile points in each tile, negative
    side first, from tile 1 inward."""
    nums, dens = [-1, 0, 1], [1, 1, 1]
    step = per_tile + 1
    for n in range(1, tiles_per_side + 1):
        # tile n is [lo, lo + 1/(n(n + 1))] with lo = 1/(n + 1) or -1/n; over
        # the denominator n(n + 1)(per_tile + 1), lo is `base` and the j-th
        # of per_tile evenly spaced interior points is base + j
        for base in (-(n + 1) * step, n * step):
            nums += range(base + 1, base + step)
        dens += repeat(n * (n + 1) * step, 2 * per_tile)
    common = list(map(gcd, nums, dens))
    return list(map(floordiv, nums, common)), list(map(floordiv, dens, common))


# A report lists every sample point, so the layout is capped; the largest
# allowed one has under MAX_SAMPLES + 2 * MAX_TILES + 3 points.
MAX_TILES = 4096
MAX_SAMPLES = 16384
# the layout of `holonomy tau` without --tiles and --samples
DEFAULT_TILES = 8
DEFAULT_SAMPLES = 64


def solve_conjugacy(
    u: PLHomeo,
    v: PLHomeo,
    case: str,
    tiles_per_side: int = DEFAULT_TILES,
    samples: int = DEFAULT_SAMPLES,
) -> Tuple[TiledHomeo, ConjugacyWitness]:
    """Build the tiled homeomorphism for the selected case (a key of
    `EXPRESSIONS`) and certify the conjugacy at `samples` or more rational
    points, as many in each of the tiles_per_side outermost tiles per side."""
    if case not in EXPRESSIONS:
        raise ValueError(f"case must be one of {', '.join(EXPRESSIONS)}")
    if not (is_int(tiles_per_side) and is_int(samples)):
        raise ValueError("tiles and samples must be integers")
    if tiles_per_side < 1 or samples < 1:
        raise ValueError("need at least one tile and one point per tile")
    if tiles_per_side > MAX_TILES:
        raise ValueError(f"tiles must be at most {MAX_TILES}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_SAMPLES}")
    per_tile = -(-samples // (2 * tiles_per_side))

    letters = EXPRESSIONS[case].split()
    inverse_middle = "t^-1" in letters
    ident = PLHomeo.identity()

    def tile_maps(m: PLHomeo, letter: str) -> Tuple[PLHomeo, ...]:
        if letter not in letters:
            return (ident,)
        return (m, m.inverse()) if inverse_middle else (m,)

    tiled = TiledHomeo(tile_maps(u, "u"), tile_maps(v, "v"))
    # each side is (m, m^-1) or (identity,), so t^-1 holds the same maps in turn
    middle = TiledHomeo(tiled.negative[::-1], tiled.positive[::-1]) if inverse_middle else tiled
    pieces = tuple({"u": u, "v": v}.get(letter, middle) for letter in letters)
    expr = Concatenation(pieces)
    h = TileShiftMap(letters.index("t^-1" if inverse_middle else "t"), len(pieces))

    nums, dens = _sample_layout(tiles_per_side, per_tile)
    t_at, h_at, expr_at = tiled._eval_pair, h._eval_pair, expr._eval_pair
    # the tile maps' values at the chart points seen so far in this call
    memo = {}
    verdicts = []
    passed = verdicts.append
    for a, d in zip(nums, dens):
        la, ld = h_at(*t_at(a, d, memo))
        ra, rd = expr_at(*h_at(a, d), memo)
        # both denominators are positive, so this is lhs == rhs
        passed(la * rd == ra * ld)
    witness = ConjugacyWitness(case, tuple(nums), tuple(dens), tuple(verdicts), tiles_per_side)
    return tiled, witness


def bundled_shifts() -> Tuple[PLHomeo, PLHomeo]:
    """Two one-breakpoint upward shifts of [-1, 1] used as stock examples."""
    u = PLHomeo([-1, 0, 1], [-1, Fraction(1, 2), 1])
    v = PLHomeo([-1, Fraction(-1, 3), 1], [-1, Fraction(1, 4), 1])
    return u, v
