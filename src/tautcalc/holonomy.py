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

Each map evaluates through one kernel, a closure that `_kernel(kernels)`
builds and that takes an unreduced integer pair a/d with d > 0 in the
map's domain to a pair for its value there.  No kernel checks the point:
the public `eval` refuses a point outside the domain, and
`solve_conjugacy` lays its samples out in [-1, 1], where each chart and map
sends its domain into the next by construction.  The builder binds the
map's constants once: a `PLHomeo`'s cuts and segments, `TileShiftMap`'s
chart constants (read off its two fields on each build), and the
kernels of the maps and pieces that `TiledHomeo` and `Concatenation` hold.
The chart in is (k*a - m*d, d), the chart out (m*d' + a', k*d'), and the
tile and piece indices d // |a| and a // d do not change when a and d are
scaled, so no chart reduces its pair.  A `PLHomeo` segment is
y = (A*x + C)/D with integers A, C, D of its own, computed from the cross
products of its ends and reduced by gcd(A, C, D); the segment search
compares a/d with each breakpoint by cross-multiplying, and the inverse
segment is x = (D*y - C)/A.  A `PLHomeo` with no interior cut, such as
the identity, has one segment to apply, and its kernel does only that.
Any other `PLHomeo` kernel owns a memo: a dict keyed on the point in lowest
terms, (numerator, denominator), with the map's value there as a pair.  It
divides the point by gcd(a, d) and looks it up, and only on a miss does it
search the segments and store the result.

`kernels` maps the id of each `PLHomeo` whose kernel a call has built to
that kernel, and the caller owns it: each public `eval` passes a new one
and reduces the kernel's pair to one Fraction, and `solve_conjugacy` makes
one per call, builds the kernels of t, h and the concatenation once, drops
them on return, and compares both sides of the identity as pairs.  So a map
that is both one of t's tile maps and a piece of the concatenation has one
kernel and one memo in a solve, and no memo outlives its call.  The chart
of tile n sends the j-th sample point of that tile to
-1 + 2j/(per_tile + 1), for every n and on both sides, and h sends it to
the same chart point of tile n - 1 in the middle piece.  So in one solve
each tile map is searched at about per_tile + 2 points, however many tiles
there are, and its memo holds one entry per distinct point.  A layout that
repeats no chart point (one tile per side) pays for the lookups and gains
nothing.

The sample layout is integer columns: tile n holds per_tile numerators
over the one denominator n(n + 1)(per_tile + 1), reduced by gcd in one
pass over the columns.  `solve_conjugacy` feeds each reduced pair to the
per-point kernels and keeps the pairs and the verdicts as columns in
`ConjugacyWitness`, so no Fraction, `SampleCheck` or other per-sample
object is built between a sample point and its verdict;
`ConjugacyWitness.checks` builds its `SampleCheck`s on demand; its `check`
is the report's check.  A map has at most MAX_BREAKPOINTS breakpoints, and
the parts of its breakpoints and values have at most MAX_ENTRY_BITS bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat, starmap
from math import gcd
from operator import floordiv
from typing import Callable, Iterable, List, Sequence, Tuple

from .exact import Check, frac_pair, is_int


# A map is read and inverted in time and memory that grow with its
# breakpoints, so their number is capped.  A solve's arithmetic grows with
# the length of their parts, so that is capped too: a report at the largest
# layout (4095 tiles, 16384 samples) over two 4096-breakpoint maps took 0.3
# to 0.6 s in process with 256-bit parts, and 1.4 to 2.2 s with 1024-bit
# parts, on a shared 2-core host.
MAX_BREAKPOINTS = 4096
MAX_ENTRY_BITS = 256

# a map's kernel: an integer pair a/d with d > 0 in the map's domain to a
# pair for its value there, with a positive denominator
Kernel = Callable[[int, int], Tuple[int, int]]


def check_breakpoint_count(count: int) -> None:
    """Refuse a map with more than MAX_BREAKPOINTS breakpoints or values."""
    if count > MAX_BREAKPOINTS:
        raise ValueError(f"a map has at most {MAX_BREAKPOINTS} breakpoints, got {count}")


def check_entry_bits(parts: Iterable[int]) -> None:
    """Refuse a numerator or denominator of a breakpoint or value that is
    over MAX_ENTRY_BITS bits long."""
    if max(map(int.bit_length, parts)) > MAX_ENTRY_BITS:
        raise ValueError(f"breakpoint and value parts must be at most {MAX_ENTRY_BITS} bits long")


def _unit_pair(q) -> Tuple[int, int]:
    """q as a lowest-terms pair (`exact.frac_pair`), refused outside [-1, 1]."""
    a, d = frac_pair(q)
    if abs(a) > d:
        raise ValueError(f"{Fraction(a, d)} outside [-1, 1]")
    return a, d


@dataclass(frozen=True, init=False, repr=False)
class PLHomeo:
    """Increasing piecewise-linear homeomorphism of [-1, 1].

    Stored as the lowest-terms integer pairs (numerator, denominator) of its
    interior breakpoints and their values, the ends being -1 and 1; collinear
    interior breakpoints are dropped, so equal maps have equal data.
    `breakpoints` and `values` are Fraction views of the pairs, ends
    included.  Each segment is derived once, for the kernels:
    y = (A*x + C)/D as integers (A, C, D) with D > 0 and gcd(A, C, D) = 1,
    the one such triple of its line.

    Set-up is one pass over the input segments, on the pairs of their ends
    (`exact.frac_pair`): the order checks cross-multiply each segment's
    ends, and while they hold, its triple comes from the four cross
    products of its ends.  The endpoint checks follow, and a breakpoint is
    collinear with its neighbours exactly when the segments on either side
    have equal triples.  `inverse` reads its data off the stored segments.
    """

    _cuts: Tuple[Tuple[int, int], ...]
    _cut_values: Tuple[Tuple[int, int], ...]
    _segments: Tuple[Tuple[int, int, int], ...]

    def __init__(self, breakpoints: Sequence, values: Sequence):
        check_breakpoint_count(max(len(breakpoints), len(values)))
        _setup(self, list(map(frac_pair, breakpoints)), list(map(frac_pair, values)))

    @classmethod
    def _from_pairs(cls, breakpoints: List[Tuple[int, int]], values: List[Tuple[int, int]]) -> "PLHomeo":
        """The map through breakpoints and values given as lowest-terms
        (numerator, denominator) pairs with positive denominators, as
        `exact.frac_pair` returns them.  Nothing checks that they are: the
        caller passes `frac_pair` output."""
        check_breakpoint_count(max(len(breakpoints), len(values)))
        f = object.__new__(cls)
        _setup(f, breakpoints, values)
        return f

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
        return Fraction(*self._kernel({})(*_unit_pair(q)))

    def _kernel(self, kernels: dict) -> Kernel:
        """This map's kernel: the value at a/d in [-1, 1], d > 0, as a pair.
        kernels maps the id of each map whose kernel this call has built to
        that kernel; the caller owns it and keeps the maps alive while it
        does, so a map reached twice gets one kernel and one memo."""
        at = kernels.get(id(self))
        if at is not None:
            return at
        cuts, segments = self._cuts, self._segments
        if not cuts:
            # one segment: nothing to search, so nothing to reduce or store
            [(A, C, D)] = segments

            def at(a, d):
                return A * a + C * d, D * d
        else:
            # the values found so far, keyed on the point in lowest terms;
            # each has a denominator D times that of the point
            memo = {}
            lookup = memo.get
            count = len(cuts)

            def at(a, d):
                g = gcd(a, d)
                a, d = a // g, d // g
                y = lookup((a, d))
                if y is not None:
                    return y
                # the last segment whose left breakpoint is <= a/d; the
                # right endpoint 1 takes the last segment
                lo, hi = 0, count
                while lo < hi:
                    mid = (lo + hi) // 2
                    bn, bd = cuts[mid]
                    if a * bd < bn * d:
                        hi = mid
                    else:
                        lo = mid + 1
                A, C, D = segments[lo]
                y = memo[a, d] = A * a + C * d, D * d
                return y

        kernels[id(self)] = at
        return at

    def inverse(self) -> "PLHomeo":
        """The inverse map, from the stored data: y = (A*x + C)/D inverts to
        x = (D*y - C)/A, and A > 0 since the map increases."""
        inv = object.__new__(PLHomeo)
        _fill(inv, self._cut_values, self._cuts, tuple((D, -C, A) for A, C, D in self._segments))
        return inv


def _setup(f: PLHomeo, bps: List[Tuple[int, int]], vals: List[Tuple[int, int]]) -> None:
    if len(bps) != len(vals) or len(bps) < 2:
        raise ValueError("need matching breakpoint/value sequences of length >= 2")
    check_entry_bits(chain(*bps, *vals))
    # a segment runs from x0 = a0/b0 to x1 = a1/b1, and from y0 = c0/e0 to
    # y1 = c1/e1; over the denominators b0*b1*e0*e1 its line is
    # y = (A*x + C)/D with D = dx*e0*e1, A = dy*b0*b1 and
    # C = c0*e1*a1*b0 - c1*e0*a0*b1.  It is reduced only while both order
    # rules hold, so that A and D are positive and gcd(A, C, D) is not 0
    bps_rise = vals_rise = True
    lines = []
    for (a0, b0), (a1, b1), (c0, e0), (c1, e1) in zip(bps, bps[1:], vals, vals[1:]):
        ab, ba, ce, ec = a1 * b0, a0 * b1, c1 * e0, c0 * e1
        dx, dy = ab - ba, ce - ec
        bps_rise = bps_rise and dx > 0
        vals_rise = vals_rise and dy > 0
        if bps_rise and vals_rise:
            A, C, D = dy * b0 * b1, ec * ab - ce * ba, dx * e0 * e1
            g = gcd(A, C, D)
            lines.append((A // g, C // g, D // g))
    if not bps_rise:
        raise ValueError("breakpoints must be strictly increasing")
    if not vals_rise:
        raise ValueError("values must be strictly increasing")
    ends = (*bps[0], *bps[-1])
    if (*vals[0], *vals[-1]) != ends:
        raise ValueError("endpoints must be fixed")
    if ends != (-1, 1, 1, 1):
        raise ValueError("must be a homeomorphism of [-1, 1]")
    # interior breakpoint i is kept when segments i - 1 and i differ
    kept = [i for i in range(1, len(lines)) if lines[i] != lines[i - 1]]
    _fill(f, tuple(bps[i] for i in kept), tuple(vals[i] for i in kept), (lines[0], *(lines[i] for i in kept)))


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
        return Fraction(*self._kernel({})(*_unit_pair(q)))

    def _kernel(self, kernels: dict) -> Kernel:
        negative = tuple(f._kernel(kernels) for f in self.negative)
        positive = tuple(f._kernel(kernels) for f in self.positive)
        neg_count, pos_count = len(negative), len(positive)

        def at(a, d):
            if a < 0:
                n = d // -a
                f, m = negative[(n - 1) % neg_count], -(2 * n + 1)
            elif a:
                n = d // a
                f, m = positive[(n - 1) % pos_count], 2 * n + 1
            else:
                return a, d
            k = 2 * n * (n + 1)
            ya, yd = f(k * a - m * d, d)
            return m * yd + ya, k * yd

        return at


# -- concatenations and the conjugacy witness -------------------------------------


@dataclass(frozen=True)
class Concatenation:
    """Maps placed side by side: piece i acts on [i, i+1], rescaled from its
    own domain [-1, 1]."""

    pieces: tuple

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("a concatenation needs one or more pieces")

    def eval(self, q) -> Fraction:
        a, d = frac_pair(q)
        if not 0 <= a <= len(self.pieces) * d:
            raise ValueError(f"{Fraction(a, d)} outside [0, {len(self.pieces)}]")
        return Fraction(*self._kernel({})(a, d))

    def _kernel(self, kernels: dict) -> Kernel:
        pieces = tuple(f._kernel(kernels) for f in self.pieces)
        last = len(pieces) - 1

        def at(a, d):
            i = a // d
            if i > last:
                i = last
            m = 2 * i + 1
            ya, yd = pieces[i](2 * a - m * d, d)
            return m * yd + ya, 2 * yd

        return at


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

    def eval(self, q) -> Fraction:
        return Fraction(*self._kernel({})(*_unit_pair(q)))

    def _kernel(self, kernels: dict) -> Kernel:
        # read off the two fields per build: the middle piece's chart constant
        # 2*middle_index + 1, and per side the chart constant 2*end + 1 of its
        # end piece, or None where that side has none
        middle, count = self.middle_index, self.piece_count
        m = 2 * middle + 1
        negative_end, positive_end = (2 * end + 1 if 0 <= end < count else None for end in (middle - 1, middle + 1))

        def at(a, d):
            if a < 0:
                side, end = -1, negative_end
            else:
                side, end = 1, positive_end
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

        return at


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
    def check(self) -> Check:
        return Check("conjugacy identity exact at all samples", all(self.verdicts))


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
    # one kernel per map for this call, so each tile map has one memo
    kernels = {}
    t_at, h_at, expr_at = tiled._kernel(kernels), h._kernel(kernels), expr._kernel(kernels)
    verdicts = []
    passed = verdicts.append
    for a, d in zip(nums, dens):
        ta, td = t_at(a, d)
        la, ld = h_at(ta, td)
        ha, hd = h_at(a, d)
        ra, rd = expr_at(ha, hd)
        # both denominators are positive, so this is lhs == rhs
        passed(la * rd == ra * ld)
    witness = ConjugacyWitness(case, tuple(nums), tuple(dens), tuple(verdicts), tiles_per_side)
    return tiled, witness


def bundled_shifts() -> Tuple[PLHomeo, PLHomeo]:
    """Two one-breakpoint upward shifts of [-1, 1] used as stock examples."""
    u = PLHomeo([-1, 0, 1], [-1, Fraction(1, 2), 1])
    v = PLHomeo([-1, Fraction(-1, 3), 1], [-1, Fraction(1, 4), 1])
    return u, v
