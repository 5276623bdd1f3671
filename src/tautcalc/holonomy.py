"""Exact piecewise-linear interval homeomorphisms and conjugacy constructions.

`PLHomeo` is an increasing PL self-map of [-1, 1]; its breakpoints and
values go through `exact.frac`, and inversion and evaluation are exact.

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
absent from the expression holds the identity.  The conjugating map h
carries each tile onto the next one outward, into the prepended/appended
pieces of the concatenation; everything is affine on tiles, so the
conjugacy identity h(t(x)) = expr(h(x)) can be checked exactly at
rational points.  The tiling is stored as a rule, never materialized, so
evaluation is exact at every rational.

Every chart is in closed form, an affine map y = k*q - m of an interval
onto [-1, 1] with integers k and m, and its inverse q = (m + y)/k.  Tile n
on side s (s = +-1) is [1/(n + 1), 1/n], mirrored for s = -1, with
k = 2n(n + 1) and m = s(2n + 1); the tile of a nonzero q is
n = q.denominator // |q.numerator|.  Piece i of a concatenation is
[i, i + 1], with k = 2 and m = 2i + 1.  Each chart builds one Fraction
from the numerator and denominator of its argument, and `PLHomeo.eval`
is one slope-intercept step per call.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .exact import frac


class PLHomeo:
    """Increasing piecewise-linear homeomorphism of [-1, 1].

    Stored as matching breakpoint/value sequences; collinear interior
    breakpoints are dropped, so equal maps have equal data.  Each segment's
    (slope, intercept) pair is derived from them once, for `eval`.
    """

    __slots__ = ("breakpoints", "values", "_pieces")

    def __init__(self, breakpoints: Sequence, values: Sequence):
        bps = [frac(b) for b in breakpoints]
        vals = [frac(v) for v in values]
        if len(bps) != len(vals) or len(bps) < 2:
            raise ValueError("need matching breakpoint/value sequences of length >= 2")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(a >= b for a, b in zip(vals, vals[1:])):
            raise ValueError("values must be strictly increasing")
        if vals[0] != bps[0] or vals[-1] != bps[-1]:
            raise ValueError("endpoints must be fixed")
        if bps[0] != -1 or bps[-1] != 1:
            raise ValueError("must be a homeomorphism of [-1, 1]")
        bps, vals = self._normalized(bps, vals)
        object.__setattr__(self, "breakpoints", tuple(bps))
        object.__setattr__(self, "values", tuple(vals))
        pieces = []
        for x0, x1, y0, y1 in zip(bps, bps[1:], vals, vals[1:]):
            slope = (y1 - y0) / (x1 - x0)
            pieces.append((slope, y0 - slope * x0))
        object.__setattr__(self, "_pieces", tuple(pieces))

    @staticmethod
    def _normalized(bps, vals):
        out_b, out_v = [bps[0]], [vals[0]]
        for i in range(1, len(bps) - 1):
            x0, x1, x2 = out_b[-1], bps[i], bps[i + 1]
            y0, y1, y2 = out_v[-1], vals[i], vals[i + 1]
            if (y1 - y0) * (x2 - x1) == (y2 - y1) * (x1 - x0):
                continue  # collinear, skip
            out_b.append(x1)
            out_v.append(y1)
        out_b.append(bps[-1])
        out_v.append(vals[-1])
        return out_b, out_v

    def __setattr__(self, name, value):
        raise AttributeError("PLHomeo is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, PLHomeo)
            and self.breakpoints == other.breakpoints
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.breakpoints, self.values))

    def __repr__(self):
        pairs = ", ".join(f"{b}->{v}" for b, v in zip(self.breakpoints, self.values))
        return f"PLHomeo({pairs})"

    @classmethod
    def identity(cls) -> "PLHomeo":
        """The identity of [-1, 1]."""
        return cls([-1, 1], [-1, 1])

    def eval(self, q) -> Fraction:
        q = frac(q)
        _check_unit(q)
        bps = self.breakpoints
        # segment i spans bps[i]..bps[i + 1]; the right endpoint takes the last
        slope, intercept = self._pieces[bisect_right(bps, q, 1, len(bps) - 1) - 1]
        return slope * q + intercept

    def inverse(self) -> "PLHomeo":
        return PLHomeo(self.values, self.breakpoints)


# -- lazy tiled homeomorphisms ----------------------------------------------------


def _chart_in(q: Fraction, k: int, m: int) -> Fraction:
    """k*q - m: the chart of the interval at q, onto [-1, 1]."""
    return Fraction(k * q.numerator - m * q.denominator, q.denominator)


def _chart_out(y: Fraction, k: int, m: int) -> Fraction:
    """(m + y)/k: the chart back from [-1, 1] at y."""
    return Fraction(m * y.denominator + y.numerator, k * y.denominator)


def _tile_chart(side: int, n: int) -> Tuple[int, int]:
    """(k, m) of tile n (1-based, outermost first) on the given side."""
    return 2 * n * (n + 1), side * (2 * n + 1)


def _tile_index(q: Fraction) -> Tuple[int, int]:
    """(side, n) for a nonzero q in [-1, 1]; boundary points may go to either
    neighbouring tile, which agree there."""
    side = -1 if q.numerator < 0 else 1
    return side, q.denominator // abs(q.numerator)


def _check_unit(q: Fraction) -> None:
    if abs(q.numerator) > q.denominator:
        raise ValueError(f"{q} outside [-1, 1]")


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
        q = frac(q)
        _check_unit(q)
        if q == 0:
            return q
        side, n = _tile_index(q)
        k, m = _tile_chart(side, n)
        maps = self.negative if side < 0 else self.positive
        w = maps[(n - 1) % len(maps)]
        return _chart_out(w.eval(_chart_in(q, k, m)), k, m)

    def inverse(self) -> "TiledHomeo":
        return TiledHomeo(
            tuple(m.inverse() for m in self.negative),
            tuple(m.inverse() for m in self.positive),
        )


# -- concatenations and the conjugacy witness -------------------------------------


@dataclass(frozen=True)
class Concatenation:
    """Maps placed side by side: piece i acts on [i, i+1], rescaled from its
    own domain [-1, 1]."""

    pieces: tuple

    def eval(self, q) -> Fraction:
        q = frac(q)
        k = len(self.pieces)
        if not 0 <= q.numerator <= k * q.denominator:
            raise ValueError(f"{q} outside [0, {k}]")
        i = min(q.numerator // q.denominator, k - 1)
        return _chart_out(self.pieces[i].eval(_chart_in(q, 2, 2 * i + 1)), 2, 2 * i + 1)


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
        q = frac(q)
        _check_unit(q)
        m = self.middle_index
        side = -1 if q.numerator < 0 else 1
        end = m + side
        if q == 0 or not 0 <= end < self.piece_count:
            return _chart_out(q, 2, 2 * m + 1)
        _, n = _tile_index(q)
        c = _chart_in(q, *_tile_chart(side, n))
        if n == 1:
            return _chart_out(c, 2, 2 * end + 1)
        return _chart_out(_chart_out(c, *_tile_chart(side, n - 1)), 2, 2 * m + 1)


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
    """Exact verification data for h(t(x)) = expr(h(x)) at sampled rationals."""

    case: str
    expression: str
    checks: Tuple[SampleCheck, ...]
    tiles_per_side: int

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def witness_samples(tiles_per_side: int = 8, per_tile: int = 4) -> List[Fraction]:
    """Rational sample points spread over the outermost tiles of both sides,
    plus the endpoints and the center."""
    pts = [Fraction(-1), Fraction(0), Fraction(1)]
    for n in range(1, tiles_per_side + 1):
        # tile n is [lo, lo + 1/(n(n + 1))] with lo = 1/(n + 1) or -1/n; over
        # the denominator n(n + 1)(per_tile + 1), lo is `base` and the j-th
        # of per_tile evenly spaced interior points is base + j
        den = n * (n + 1) * (per_tile + 1)
        for base in (-(n + 1) * (per_tile + 1), n * (per_tile + 1)):
            pts.extend(Fraction(base + j, den) for j in range(1, per_tile + 1))
    return pts


# A report lists every sample point, so the layout is capped; the largest
# allowed one has under MAX_SAMPLES + 2 * MAX_TILES + 3 points.
MAX_TILES = 4096
MAX_SAMPLES = 16384


def solve_conjugacy(
    u: PLHomeo,
    v: PLHomeo,
    case: str,
    tiles_per_side: int = 8,
    samples: int = 64,
) -> Tuple[TiledHomeo, ConjugacyWitness]:
    """Build the tiled homeomorphism for the selected case (a key of
    `EXPRESSIONS`) and certify the conjugacy at `samples` or more rational
    points, as many in each of the tiles_per_side outermost tiles per side."""
    if case not in EXPRESSIONS:
        raise ValueError(f"case must be one of {', '.join(EXPRESSIONS)}")
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
    middle = tiled.inverse() if inverse_middle else tiled
    pieces = tuple({"u": u, "v": v}.get(letter, middle) for letter in letters)
    expr = Concatenation(pieces)
    h = TileShiftMap(letters.index("t^-1" if inverse_middle else "t"), len(pieces))

    checks = []
    for q in witness_samples(tiles_per_side, per_tile):
        lhs = h.eval(tiled.eval(q))
        rhs = expr.eval(h.eval(q))
        checks.append(SampleCheck(q, lhs == rhs))
    witness = ConjugacyWitness(case, EXPRESSIONS[case], tuple(checks), tiles_per_side)
    return tiled, witness


def bundled_shifts() -> Tuple[PLHomeo, PLHomeo]:
    """Two one-breakpoint upward shifts of [-1, 1] used as stock examples."""
    u = PLHomeo([-1, 0, 1], [-1, Fraction(1, 2), 1])
    v = PLHomeo([-1, Fraction(-1, 3), 1], [-1, Fraction(1, 4), 1])
    return u, v
