"""Exact rational convex polygons, norm balls, and polar duality.

The homology rank in play is two, so all polytopes here are convex polygons
over the rationals.  A polygon carries both representations: the canonical
vertex list (counter-clockwise, starting at the lexicographically smallest
vertex) and the facet halfspaces as primitive integer triples, one per
edge of the hull.  The hull turns strictly at every vertex, so each vertex
is tight on exactly its two edges and strictly inside the others.

A polygon is built on one integer scale: its input points are multiplied
once by their common denominator d, the hull and the halfspaces run on
plain ints (a scaled vertex (X, Y) is on the facet a*x + b*y <= c when
a*X + b*Y == c*d), and only the final vertices become Fractions.  Any
positive d gives the same primitive halfspaces.

Coordinates throughout are (F, S): the first axis is the class F, the
second the class S.  Norm balls are built from the four norm values
x(F), x(S), x(S+F), x(S-F) (Thurston, "A norm for the homology of
3-manifolds", 1986); their polar duals are the dual-norm balls.  A
`NormSpec` decides in closed form whether a norm takes its four values,
and the ball is built from them only where it is used.  It caps each
value at MAX_NORM_VALUE, and each value's numerator and denominator at
MAX_NORM_BITS bits, since a report writes the balls' vertices in decimal.
Values and coordinates go through `exact.frac`, so a library call rejects
a bool, float or exponent string just as an input file does.  Whether
points have dual norm one is read off the ball's vertices, one column of
integer pairings per vertex.  The points of dual norm one on a lattice
spacing*Z^2 are found by walking the dual ball's edges, on each of which
they form an arithmetic progression, and each is one `CandidatePoint`, a
named tuple.  The Euler characteristics are even, so the candidates, the
points matching them mod 2, are the boundary points of 2Z^2, and one walk
at spacing 2 lists them directly.  Each carries one flag: vertices are
realizable as Euler classes, other points are candidates, and for the
genus-g surgery family the edge points (0, +-(2g-2)) are flagged as the
known non-realizable ones.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import repeat
from math import ceil, floor, gcd, lcm
from typing import Iterable, List, NamedTuple, Sequence, Tuple

from .exact import Check, frac, is_int

Vec2 = Tuple[Fraction, Fraction]
IntPair = Tuple[int, int]
Halfspace = Tuple[Tuple[int, int], int]  # ((a, b), c) meaning a*x + b*y <= c


def _point(p) -> Vec2:
    x, y = p
    return (frac(x), frac(y))


def _scale(points: Sequence[Vec2]) -> Tuple[List[IntPair], int]:
    """The points times their common denominator d, as int pairs, and d."""
    d = lcm(*(c.denominator for p in points for c in p))
    return [(x.numerator * (d // x.denominator), y.numerator * (d // y.denominator)) for x, y in points], d


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _convex_hull(points: Sequence[IntPair]) -> List[IntPair]:
    """Andrew monotone chain; strict turns only, so collinear points drop out.
    Counter-clockwise, starting at the lexicographically smallest point."""
    pts = sorted(set(points))
    if len(pts) < 3:
        raise ValueError("polygon needs at least three distinct points")
    lower: List[IntPair] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: List[IntPair] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise ValueError("points are collinear; polygon is degenerate")
    return hull


def _edge_halfspace(p: IntPair, q: IntPair, d: int) -> Halfspace:
    """Outward halfspace of the edge p/d -> q/d of a counter-clockwise
    polygon, as the primitive integer triple.  With (a, b) primitive the
    edge line is a*x + b*y = n/d, so (a, b, n/d) cleared of the reduced
    denominator of n/d is primitive."""
    a, b = q[1] - p[1], p[0] - q[0]
    g = gcd(a, b)
    a, b = a // g, b // g
    n = a * p[0] + b * p[1]
    k = gcd(n, d)
    return ((a * (d // k), b * (d // k)), n // k)


@dataclass(frozen=True, init=False, repr=False)
class RatPolytope:
    """Convex polygon with exact rational vertices and integer facet data."""

    vertices: Tuple[Tuple[Fraction, Fraction], ...]
    halfspaces: Tuple[Halfspace, ...]

    def __init__(self, points: Sequence):
        scaled, d = _scale([_point(p) for p in points])
        hull = _convex_hull(scaled)
        halfspaces = tuple(_edge_halfspace(p, q, d) for p, q in zip(hull, hull[1:] + hull[:1]))
        object.__setattr__(self, "vertices", tuple((Fraction(x, d), Fraction(y, d)) for x, y in hull))
        object.__setattr__(self, "halfspaces", halfspaces)

    def __repr__(self):
        return f"RatPolytope({[tuple(map(str, v)) for v in self.vertices]})"

    @property
    def origin_interior(self) -> bool:
        return all(c > 0 for _, c in self.halfspaces)

    def bounding_box(self) -> Tuple[int, int, int, int]:
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return (floor(min(xs)), ceil(max(xs)), floor(min(ys)), ceil(max(ys)))


def polar_dual(p: RatPolytope) -> RatPolytope:
    """Polar polygon {u : <u, v> <= 1 for all v in p}.

    Facets of p become vertices of the dual and vice versa; applying it
    twice returns the original polygon.  Requires the origin strictly
    inside p.
    """
    if not p.origin_interior:
        raise ValueError("polar dual requires the origin in the interior")
    return RatPolytope([(Fraction(a, c), Fraction(b, c)) for (a, b), c in p.halfspaces])


# -- norm balls ---------------------------------------------------------------

# The dual ball lies in the box |x| <= x(F), |y| <= x(S), and a report lists
# every point of 2Z^2 on its boundary, so the values are capped.  A report
# writes the balls' vertices in decimal, and their parts are products of the
# values' parts, so each value's numerator and denominator is capped too:
# with 4096-bit parts the longest integer a report prints has about 2500
# digits, within int()'s default limit of 4300 on string conversion.
MAX_NORM_VALUE = 4096
MAX_NORM_BITS = 4096


@dataclass(frozen=True)
class NormSpec:
    """Norm data on the rank-two lattice spanned by F and S.

    Values are the norms of F, S, S+F and S-F, each at most MAX_NORM_VALUE
    with numerator and denominator of at most MAX_NORM_BITS bits;
    chi records the Euler characteristics (chi(F), chi(S)) that candidate
    points must match mod 2.  The spec owns the rule that a norm takes the
    four values: the eight points +-(1,0)/x(F), +-(1,1)/x(S+F),
    +-(0,1)/x(S), +-(-1,1)/x(S-F), in angular order, all lie on the
    boundary of their hull exactly when each lies on or outside the chord
    of its two neighbours, which by central symmetry is
        x(S+-F) <= x(S) + x(F)  and  x(S+F) + x(S-F) >= 2 max(x(F), x(S)).
    Values that break it and odd chi entries (closed orientable surfaces
    have even Euler characteristic) are rejected on construction.
    """

    x_f: Fraction
    x_s: Fraction
    x_sum: Fraction
    x_diff: Fraction
    chi: Tuple[int, int]

    def __post_init__(self):
        for name in ("x_f", "x_s", "x_sum", "x_diff"):
            v = frac(getattr(self, name))
            object.__setattr__(self, name, v)
            if v <= 0:
                raise ValueError(f"{name} must be positive")
            if v > MAX_NORM_VALUE:
                raise ValueError(f"{name} must be at most {MAX_NORM_VALUE}")
            if max(v.numerator.bit_length(), v.denominator.bit_length()) > MAX_NORM_BITS:
                raise ValueError(f"{name} parts must be at most {MAX_NORM_BITS} bits long")
        if type(self.chi) is not tuple or len(self.chi) != 2:
            raise ValueError("chi must be a tuple of two entries")
        cf, cs = self.chi
        if not (is_int(cf) and is_int(cs)):
            raise ValueError("chi entries must be integers")
        f, s = self.x_f, self.x_s
        if max(self.x_sum, self.x_diff) > f + s or self.x_sum + self.x_diff < 2 * max(f, s):
            raise ValueError("norm values are inconsistent (some value is too large)")
        if cf % 2 or cs % 2:
            raise ValueError("chi entries must be even")

    @classmethod
    def surgery_family(cls, genus: int) -> "NormSpec":
        """Norm values (2, 2g-2, 2g, 2g) of the genus-g surgered fibrations,
        with chi = (-2, 2-2g).  The cap on 2g bounds the genus."""
        x_f, x_s, x_sum, x_diff, chi = _family_values(genus)
        if x_sum > MAX_NORM_VALUE:
            raise ValueError(f"genus must be at most {MAX_NORM_VALUE // 2}")
        return cls(x_f=x_f, x_s=x_s, x_sum=x_sum, x_diff=x_diff, chi=chi)

    def is_surgery_family(self, genus: int) -> bool:
        """True when these are the genus-g family values, the only spec
        whose points (0, +-(2g-2)) are flagged as non-realizable."""
        return (self.x_f, self.x_s, self.x_sum, self.x_diff, self.chi) == _family_values(genus)


def _family_values(genus: int):
    if not is_int(genus) or genus < 2:
        raise ValueError("genus must be an integer >= 2")
    return Fraction(2), Fraction(2 * genus - 2), Fraction(2 * genus), Fraction(2 * genus), (-2, 2 - 2 * genus)


def norm_ball_from_values(spec: NormSpec) -> RatPolytope:
    """Unit ball of the norm matching the four values of the spec.

    The ball is the convex hull of the scaled directions
    +-(1,0)/x(F), +-(0,1)/x(S), +-(1,1)/x(S+F), +-(-1,1)/x(S-F); the spec
    has checked that all eight points lie on its boundary.
    When x(S+F) and x(S-F) are exactly x(S) + x(F) the diagonal points are
    edge midpoints and the ball is the diamond with vertices
    (+-1/x(F), 0), (0, +-1/x(S)).
    """
    directions = [((1, 0), spec.x_f), ((0, 1), spec.x_s), ((1, 1), spec.x_sum), ((-1, 1), spec.x_diff)]
    pts = []
    for (dx, dy), value in directions:
        r = 1 / value
        pts += [(dx * r, dy * r), (-dx * r, -dy * r)]
    return RatPolytope(pts)


def dual_norm_is_one(ball: RatPolytope, points: Iterable) -> bool:
    """True when every point u has dual norm x*(u) = max over vertices v of
    the ball of <u, v> exactly one.  The vertices are scaled once by their
    common denominator d and paired one vertex (one column) at a time, so
    an integral point costs only ints, and each maximum is compared with d."""
    scaled, d = _scale(ball.vertices)
    pts = [p if type(p[0]) is int and type(p[1]) is int else _point(p) for p in points]
    columns = [[x * a + y * b for x, y in pts] for a, b in scaled]
    return set(map(max, *columns)) <= {d}


# -- integral points and realizability ----------------------------------------


class CandidatePoint(NamedTuple):
    """An integral point on the boundary of the dual ball, with whether it
    is a vertex; `candidate_points` adds the counterexample flag."""

    coords: Tuple[int, int]
    vertex: bool
    counterexample: bool = False


# builds a point from its (coords, vertex, counterexample) tuple, with no
# Python-level call per point
_new_point = partial(tuple.__new__, CandidatePoint)


def integral_boundary_points(dual_ball: RatPolytope, spacing: int = 1) -> List[CandidatePoint]:
    """The points of the lattice spacing*Z^2 of dual norm exactly one,
    sorted by (x, y); spacing 1 lists every integral boundary point.

    The points of spacing*Z^2 on an edge a*x + b*y = c are spacing times
    the integer points on a*X + b*Y = c/spacing, so the walk runs on that
    scaled edge.  A vertex is listed once, when both its coordinates are
    multiples of spacing.  Inside each edge the points form an
    arithmetic progression: none when gcd(a, b) * spacing does not divide
    c, otherwise X steps by |b| / gcd(a, b) from the least solution of
    a*X = c/spacing mod |b| past the edge's left end; a vertical edge
    (b == 0) steps over Y instead.  Each edge is one ascending run, so the
    final sort only merges runs.
    """
    if not is_int(spacing) or spacing < 1:
        raise ValueError("spacing must be a positive integer")
    s = spacing
    vertices = dual_ball.vertices
    corners = {
        (int(x), int(y)) for x, y in vertices
        if x.denominator == y.denominator == 1 and x.numerator % s == y.numerator % s == 0
    }
    found = list(corners)
    for p, q, ((a, b), c) in zip(vertices, vertices[1:] + vertices[:1], dual_ball.halfspaces):
        # X (Y on a vertical edge) strictly between the ends, divided by s;
        # floor(t / s) == floor(t) // s for every rational t
        lo, hi = sorted((p[0], q[0]) if b else (p[1], q[1]))
        inside = range(floor(lo) // s + 1, -(-ceil(hi) // s))
        if b == 0:
            x, r = divmod(c, a * s)
            if r == 0:
                found += zip(repeat(s * x), range(s * inside.start, s * inside.stop, s))
            continue
        g = gcd(a, b)
        if c % (g * s):
            continue
        a, b, c = a // g, b // g, c // (g * s)
        step = abs(b)
        first = inside.start + (c * pow(a, -1, step) - inside.start) % step
        xs = range(s * first, s * inside.stop, s * step)
        y = s * ((c - a * first) // b)
        dy = s * (-a if b > 0 else a)
        found += zip(xs, range(y, y + dy * len(xs), dy) if dy else repeat(y))
    found.sort()
    return list(map(_new_point, zip(found, map(corners.__contains__, found), repeat(False))))


def candidate_points(spec: NormSpec, genus: int) -> Tuple[RatPolytope, RatPolytope, List[CandidatePoint]]:
    """Ball, dual ball, and the points of 2Z^2 on the boundary of the dual
    ball: chi is even, so these are the points whose coordinates match
    (chi(F), chi(S)) mod 2, and the walk lists them directly.

    Vertices are realizable as Euler classes of taut foliations; every
    other point is a candidate.  Only when the spec is the genus-g surgery
    family are its points (0, +-(2g-2)) flagged, being the points that no
    taut foliation realizes on the surgered manifolds; each is found by
    bisecting the sorted list.
    """
    family = spec.is_surgery_family(genus)
    ball = norm_ball_from_values(spec)
    dual = polar_dual(ball)
    points = integral_boundary_points(dual, 2)
    if family:
        for tip in _family_tips(genus):
            i = bisect_left(points, (tip,))
            if i < len(points) and points[i].coords == tip:
                points[i] = points[i]._replace(counterexample=True)
    return ball, dual, points


def _family_tips(genus: int) -> Tuple[IntPair, IntPair]:
    return (0, 2 - 2 * genus), (0, 2 * genus - 2)  # (0, -(2g-2)) and (0, 2g-2)


def candidate_checks(spec: NormSpec, genus: int, ball: RatPolytope, points: Sequence[CandidatePoint]) -> List[Check]:
    """`candidate_points`' checks: the genus-g family's point (0, -(2g-2)) is flagged, and
    every point has dual norm one by the ball's vertices, which the edge walk never reads."""
    norm_one = Check("every listed point has dual norm one", dual_norm_is_one(ball, [p.coords for p in points]))
    if not spec.is_surgery_family(genus):
        return [norm_one]
    tip = _family_tips(genus)[0]
    flagged = any(p.counterexample and p.coords == tip for p in points)
    return [Check(f"point (0, {tip[1]}) flagged as the non-realizable candidate", flagged), norm_one]
