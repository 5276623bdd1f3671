"""Exact piecewise-linear interval homeomorphisms and conjugacy constructions.

`PLHomeo` is an increasing PL self-map of a rational interval fixing both
endpoints; inversion and evaluation are exact.

`solve_conjugacy` builds, for endpoint-fixing homeomorphisms u and v of
[-1, 1], a homeomorphism t of [-1, 1] conjugate to a chosen concatenation
expression in u, v and t itself:

    (a) u t^-1 v   (b) u t v   (c) u t   (d) t v   (e) u t^-1   (f) t^-1 v

where concatenation places the maps side by side on consecutive
subintervals.  The solution tiles [-1, 1] by the intervals

    [-1, -1/2], [-1/2, -1/3], ... -> 0 <- ..., [1/3, 1/2], [1/2, 1]

and puts an affinely rescaled copy of u (or u^-1, alternating, depending
on the case) on each negative tile and of v likewise on each positive
tile, with t(0) = 0.  The conjugating map h carries each tile onto the
next one outward, into the prepended/appended pieces of the concatenation;
everything is affine on tiles, so the conjugacy identity
h(t(x)) = expr(h(x)) can be checked exactly at rational points.  The
tiling is stored as a rule, never materialized, so evaluation is exact at
every rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import List, Sequence, Tuple


def _frac(x) -> Fraction:
    if isinstance(x, float):
        raise ValueError("floats are not allowed; use Fraction, int, or 'p/q' strings")
    return Fraction(x)


class PLHomeo:
    """Increasing piecewise-linear homeomorphism fixing the endpoints.

    Stored as matching breakpoint/value sequences; collinear interior
    breakpoints are dropped, so equal maps have equal data.
    """

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints: Sequence, values: Sequence):
        bps = [_frac(b) for b in breakpoints]
        vals = [_frac(v) for v in values]
        if len(bps) != len(vals) or len(bps) < 2:
            raise ValueError("need matching breakpoint/value sequences of length >= 2")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(a >= b for a, b in zip(vals, vals[1:])):
            raise ValueError("values must be strictly increasing")
        if vals[0] != bps[0] or vals[-1] != bps[-1]:
            raise ValueError("endpoints must be fixed")
        bps, vals = self._normalized(bps, vals)
        object.__setattr__(self, "breakpoints", tuple(bps))
        object.__setattr__(self, "values", tuple(vals))

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

    @property
    def domain(self) -> Tuple[Fraction, Fraction]:
        return (self.breakpoints[0], self.breakpoints[-1])

    @classmethod
    def identity(cls, lo=-1, hi=1) -> "PLHomeo":
        return cls([lo, hi], [lo, hi])

    def eval(self, q) -> Fraction:
        q = _frac(q)
        bps = self.breakpoints
        if not bps[0] <= q <= bps[-1]:
            raise ValueError(f"{q} outside domain [{bps[0]}, {bps[-1]}]")
        lo, hi = 0, len(bps) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if bps[mid] <= q:
                lo = mid
            else:
                hi = mid
        x0, x1 = bps[lo], bps[lo + 1]
        y0, y1 = self.values[lo], self.values[lo + 1]
        return y0 + (q - x0) * (y1 - y0) / (x1 - x0)

    def inverse(self) -> "PLHomeo":
        return PLHomeo(self.values, self.breakpoints)

    def rescaled(self, lo, hi) -> "PLHomeo":
        """Affine conjugate onto the interval [lo, hi]."""
        lo, hi = _frac(lo), _frac(hi)
        if lo >= hi:
            raise ValueError("need lo < hi")
        a, b = self.domain
        scale = (hi - lo) / (b - a)
        return PLHomeo(
            [lo + (x - a) * scale for x in self.breakpoints],
            [lo + (y - a) * scale for y in self.values],
        )


# -- lazy tiled homeomorphisms ----------------------------------------------------

_ONE = Fraction(1)


def _tile(side: int, n: int) -> Tuple[Fraction, Fraction]:
    """Tile n (1-based, outermost first) on the given side of [-1, 1]."""
    if side < 0:
        return (-Fraction(1, n), -Fraction(1, n + 1))
    return (Fraction(1, n + 1), Fraction(1, n))


def _tile_index(q: Fraction) -> Tuple[int, int]:
    """(side, n) for a nonzero q in [-1, 1]; boundary points may go to either
    neighbouring tile, which agree there."""
    side = -1 if q < 0 else 1
    n = int(_ONE / abs(q))  # floor, since the argument is positive
    return side, n


@dataclass(frozen=True)
class TilePattern:
    """Assignment of a map to every tile on one side: `base` on odd tiles
    and, when alternating, base^-1 on even tiles.  The inverse is built
    once per pattern, not once per evaluation."""

    base: PLHomeo
    alternating: bool

    @cached_property
    def _inverse(self) -> PLHomeo:
        return self.base.inverse()

    def tile_map(self, n: int) -> PLHomeo:
        if self.alternating and n % 2 == 0:
            return self._inverse
        return self.base

    def inverted(self) -> "TilePattern":
        return TilePattern(self._inverse, self.alternating)


@dataclass(frozen=True)
class TiledHomeo:
    """Homeomorphism of [-1, 1] assembled from rescaled copies of the
    pattern maps on the standard tiles, fixing 0."""

    negative: TilePattern
    positive: TilePattern

    def __post_init__(self):
        for pattern in (self.negative, self.positive):
            if pattern.base.domain != (Fraction(-1), Fraction(1)):
                raise ValueError("pattern maps must live on [-1, 1]")

    @property
    def domain(self) -> Tuple[Fraction, Fraction]:
        return (Fraction(-1), Fraction(1))

    def eval(self, q) -> Fraction:
        q = _frac(q)
        if not -1 <= q <= 1:
            raise ValueError(f"{q} outside [-1, 1]")
        if q == 0:
            return Fraction(0)
        side, n = _tile_index(q)
        lo, hi = _tile(side, n)
        pattern = self.negative if side < 0 else self.positive
        w = pattern.tile_map(n)
        t = -1 + 2 * (q - lo) / (hi - lo)
        return lo + (w.eval(t) + 1) * (hi - lo) / 2

    def inverse(self) -> "TiledHomeo":
        return TiledHomeo(self.negative.inverted(), self.positive.inverted())


# -- concatenations and the conjugacy witness -------------------------------------


@dataclass(frozen=True)
class Concatenation:
    """Maps placed side by side: piece i acts on [i, i+1], rescaled from its
    own domain [-1, 1]."""

    pieces: tuple

    @property
    def domain(self) -> Tuple[Fraction, Fraction]:
        return (Fraction(0), Fraction(len(self.pieces)))

    def eval(self, q) -> Fraction:
        q = _frac(q)
        k = len(self.pieces)
        if not 0 <= q <= k:
            raise ValueError(f"{q} outside [0, {k}]")
        i = min(int(q), k - 1)
        t = -1 + 2 * (q - i)
        return i + (self.pieces[i].eval(t) + 1) / 2


@dataclass(frozen=True)
class TileShiftMap:
    """The conjugator h: [-1, 1] -> concatenation domain.

    On a side with a prepended (appended) piece, tile 1 is carried onto
    that piece and tile n onto the image of tile n-1 inside the middle
    piece; on a side without one, h is just the affine chart onto the
    middle piece.  Affine on every tile, with h(0) at the chart image of 0.
    """

    middle_index: int
    piece_count: int

    def _chart(self, x: Fraction) -> Fraction:
        return self.middle_index + (x + 1) / 2

    @property
    def has_prepend(self) -> bool:
        return self.middle_index == 1

    @property
    def has_append(self) -> bool:
        return self.piece_count > self.middle_index + 1

    def eval(self, q) -> Fraction:
        q = _frac(q)
        if not -1 <= q <= 1:
            raise ValueError(f"{q} outside [-1, 1]")
        if q == 0:
            return self._chart(Fraction(0))
        side, n = _tile_index(q)
        lo, hi = _tile(side, n)
        if side < 0:
            if self.has_prepend:
                if n == 1:
                    tlo, thi = Fraction(0), Fraction(1)
                else:
                    prev_lo, prev_hi = _tile(side, n - 1)
                    tlo, thi = self._chart(prev_lo), self._chart(prev_hi)
            else:
                tlo, thi = self._chart(lo), self._chart(hi)
        else:
            if self.has_append:
                if n == 1:
                    tlo = Fraction(self.middle_index + 1)
                    thi = Fraction(self.middle_index + 2)
                else:
                    prev_lo, prev_hi = _tile(side, n - 1)
                    tlo, thi = self._chart(prev_lo), self._chart(prev_hi)
            else:
                tlo, thi = self._chart(lo), self._chart(hi)
        return tlo + (q - lo) * (thi - tlo) / (hi - lo)


_CASES = "abcdef"

_EXPRESSIONS = {
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
    if tiles_per_side < 1 or per_tile < 1:
        raise ValueError("need at least one tile and one point per tile")
    offsets = [Fraction(i + 1, per_tile + 1) for i in range(per_tile)]
    pts = [Fraction(-1), Fraction(0), Fraction(1)]
    for n in range(1, tiles_per_side + 1):
        for side in (-1, 1):
            lo, hi = _tile(side, n)
            for t in offsets:
                pts.append(lo + t * (hi - lo))
    return pts


def solve_conjugacy(
    u: PLHomeo,
    v: PLHomeo,
    case: str,
    tiles_per_side: int = 8,
    per_tile: int = 4,
) -> Tuple[TiledHomeo, ConjugacyWitness]:
    """Build the tiled homeomorphism for the selected case and certify the
    conjugacy at rational sample points.

    Cases with the inverse in the expression (a, e, f) alternate the tile
    maps with their inverses; cases missing u (d, f) or v (c, e) put the
    identity on the corresponding side.
    """
    if case not in _CASES:
        raise ValueError(f"case must be one of {', '.join(_CASES)}")
    for name, m in (("u", u), ("v", v)):
        if m.domain != (Fraction(-1), Fraction(1)):
            raise ValueError(f"{name}: must be a homeomorphism of [-1, 1]")

    ident = PLHomeo.identity()
    uses_u = case in "abce"
    uses_v = case in "abdf"
    inverse_middle = case in "aef"
    neg = TilePattern(u if uses_u else ident, inverse_middle and uses_u)
    pos = TilePattern(v if uses_v else ident, inverse_middle and uses_v)
    tiled = TiledHomeo(neg, pos)

    middle = tiled.inverse() if inverse_middle else tiled
    pieces: List = []
    if uses_u:
        pieces.append(u)
    middle_index = len(pieces)
    pieces.append(middle)
    if uses_v:
        pieces.append(v)
    expr = Concatenation(tuple(pieces))
    h = TileShiftMap(middle_index, len(pieces))

    checks = []
    for q in witness_samples(tiles_per_side, per_tile):
        lhs = h.eval(tiled.eval(q))
        rhs = expr.eval(h.eval(q))
        checks.append(SampleCheck(q, lhs == rhs))
    witness = ConjugacyWitness(case, _EXPRESSIONS[case], tuple(checks), tiles_per_side)
    return tiled, witness


def bundled_shifts() -> Tuple[PLHomeo, PLHomeo]:
    """Two one-breakpoint upward shifts of [-1, 1] used as stock examples."""
    u = PLHomeo([-1, 0, 1], [-1, Fraction(1, 2), 1])
    v = PLHomeo([-1, Fraction(-1, 3), 1], [-1, Fraction(1, 4), 1])
    return u, v
