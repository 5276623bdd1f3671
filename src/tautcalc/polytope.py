"""Exact rational convex polygons, norm balls, and polar duality.

The homology rank in play is two, so all polytopes here are convex polygons
over the rationals.  A polygon carries both representations: the canonical
vertex list (counter-clockwise, starting at the lexicographically smallest
vertex) and the facet halfspaces with integer-normalized data; the two are
cross-validated at construction.

Coordinates throughout are (F, S): the first axis is the class F, the
second the class S.  Norm balls are built from the four norm values
x(F), x(S), x(S+F), x(S-F) (Thurston, "A norm for the homology of
3-manifolds", 1986); their polar duals are the dual-norm balls.  Values
and coordinates go through `exact.frac`, so a library call rejects a
bool, float or exponent string just as an input file does.  The dual
norm of a batch of points is read off the ball's vertices.  The integral
points of dual norm one are found by walking the dual ball's edges, and
each point whose coordinates match the Euler characteristics mod 2 is
kept with one flag: vertices are realizable as Euler classes, other
points are candidates, and for the genus-g surgery family the edge
points (0, +-(2g-2)) are flagged as the known non-realizable ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from typing import Iterable, List, Sequence, Tuple

from .exact import frac

Vec2 = Tuple[Fraction, Fraction]
Halfspace = Tuple[Tuple[int, int], int]  # ((a, b), c) meaning a*x + b*y <= c


def _point(p) -> Vec2:
    x, y = p
    return (frac(x), frac(y))


def _cross(o: Vec2, a: Vec2, b: Vec2) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _convex_hull(points: Sequence[Vec2]) -> List[Vec2]:
    """Andrew monotone chain; strict turns only, so collinear points drop out."""
    pts = sorted(set(points))
    if len(pts) < 3:
        raise ValueError("polygon needs at least three distinct points")
    lower: List[Vec2] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: List[Vec2] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise ValueError("points are collinear; polygon is degenerate")
    return hull


def _edge_halfspace(p: Vec2, q: Vec2) -> Halfspace:
    """Outward halfspace of the edge p -> q of a counter-clockwise polygon."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    a, b = dy, -dx
    c = a * p[0] + b * p[1]
    denom = a.denominator * b.denominator * c.denominator
    ai = int(a * denom)
    bi = int(b * denom)
    ci = int(c * denom)
    g = gcd(gcd(abs(ai), abs(bi)), abs(ci))
    if g:
        ai, bi, ci = ai // g, bi // g, ci // g
    return ((ai, bi), ci)


class RatPolytope:
    """Convex polygon with exact rational vertices and integer facet data."""

    __slots__ = ("vertices", "halfspaces")

    def __init__(self, points: Sequence):
        hull = _convex_hull([_point(p) for p in points])
        start = min(range(len(hull)), key=lambda i: hull[i])
        vertices = tuple(hull[start:] + hull[:start])
        halfspaces = tuple(
            _edge_halfspace(vertices[i], vertices[(i + 1) % len(vertices)])
            for i in range(len(vertices))
        )
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "halfspaces", halfspaces)
        self._check_representations()

    def __setattr__(self, name, value):
        raise AttributeError("RatPolytope is immutable")

    def _check_representations(self):
        # every vertex satisfies every halfspace, with equality on exactly two
        for v in self.vertices:
            tight = 0
            for (a, b), c in self.halfspaces:
                val = a * v[0] + b * v[1]
                if val > c:
                    raise AssertionError("vertex violates a facet halfspace")
                if val == c:
                    tight += 1
            if tight != 2:
                raise AssertionError("vertex/halfspace representations disagree")

    def __eq__(self, other):
        return isinstance(other, RatPolytope) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"RatPolytope({[tuple(map(str, v)) for v in self.vertices]})"

    @property
    def origin_interior(self) -> bool:
        return all(c > 0 for _, c in self.halfspaces)

    def gauge(self, p) -> Fraction:
        """Minkowski gauge: least t >= 0 with p in t * polytope (origin interior)."""
        if not self.origin_interior:
            raise ValueError("gauge requires the origin in the interior")
        x, y = _point(p)
        return max(Fraction(a * x + b * y, c) for (a, b), c in self.halfspaces)

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
# every integral point on its boundary, so the values are capped.
MAX_NORM_VALUE = 4096


@dataclass(frozen=True)
class NormSpec:
    """Norm data on the rank-two lattice spanned by F and S.

    Values are the norms of F, S, S+F and S-F, each at most MAX_NORM_VALUE;
    chi records the Euler characteristics (chi(F), chi(S)) that candidate
    points must match mod 2.  Values that no norm takes and odd chi entries
    (closed orientable surfaces have even Euler characteristic) are
    rejected on construction; `ball` is the unit ball built to check them.
    """

    x_f: Fraction
    x_s: Fraction
    x_sum: Fraction
    x_diff: Fraction
    chi: Tuple[int, int]
    ball: RatPolytope = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("x_f", "x_s", "x_sum", "x_diff"):
            v = frac(getattr(self, name))
            object.__setattr__(self, name, v)
            if v <= 0:
                raise ValueError(f"{name} must be positive")
            if v > MAX_NORM_VALUE:
                raise ValueError(f"{name} must be at most {MAX_NORM_VALUE}")
        if self.x_sum > self.x_s + self.x_f or self.x_diff > self.x_s + self.x_f:
            raise ValueError("triangle inequality violated: x(S±F) <= x(S) + x(F)")
        cf, cs = self.chi
        if isinstance(cf, bool) or isinstance(cs, bool) or not isinstance(cf, int) or not isinstance(cs, int):
            raise ValueError("chi entries must be integers")
        # the ball owns the rule that a norm takes these values
        object.__setattr__(self, "ball", norm_ball_from_values(self))
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
    if not isinstance(genus, int) or genus < 2:
        raise ValueError("genus must be an integer >= 2")
    return Fraction(2), Fraction(2 * genus - 2), Fraction(2 * genus), Fraction(2 * genus), (-2, 2 - 2 * genus)


def norm_ball_from_values(spec: NormSpec) -> RatPolytope:
    """Unit ball of the norm matching the four values of the spec.

    The ball is the convex hull of the scaled directions
    +-(1,0)/x(F), +-(0,1)/x(S), +-(1,1)/x(S+F), +-(-1,1)/x(S-F).  Each of
    the eight points must land on the boundary of that hull, otherwise the
    values are not the values of any norm and a ValueError is raised.
    When x(S+F) and x(S-F) are exactly x(S) + x(F) the diagonal points are
    edge midpoints and the ball is the diamond with vertices
    (+-1/x(F), 0), (0, +-1/x(S)).
    """
    directions = [
        ((Fraction(1), Fraction(0)), spec.x_f),
        ((Fraction(0), Fraction(1)), spec.x_s),
        ((Fraction(1), Fraction(1)), spec.x_sum),
        ((Fraction(-1), Fraction(1)), spec.x_diff),
    ]
    pts = []
    for (dx, dy), value in directions:
        pts.append((dx / value, dy / value))
        pts.append((-dx / value, -dy / value))
    ball = RatPolytope(pts)
    for pt in pts:
        if ball.gauge(pt) != 1:
            raise ValueError("norm values are inconsistent (some value is too large)")
    return ball


def dual_norm_value(ball: RatPolytope, points: Iterable) -> List[Fraction]:
    """Dual norm x*(u) = max over vertices v of the ball of <u, v>, for each
    point u.  The vertices are scaled to their common denominator once per
    call, so an integral point costs only integer arithmetic, and each
    distinct value becomes a Fraction once."""
    d = lcm(*(c.denominator for v in ball.vertices for c in v))
    scaled = [(int(vx * d), int(vy * d)) for vx, vy in ball.vertices]
    seen = {}
    values = []
    for p in points:
        x, y = p
        if type(x) is not int or type(y) is not int:
            x, y = _point(p)
        n = max(x * a + y * b for a, b in scaled)
        if n not in seen:
            seen[n] = Fraction(n, d)
        values.append(seen[n])
    return values


# -- integral points and realizability ----------------------------------------


@dataclass(frozen=True)
class CandidatePoint:
    """An integral point on the boundary of the dual ball, with whether it
    is a vertex; `candidate_points` adds the counterexample flag."""

    coords: Tuple[int, int]
    vertex: bool
    counterexample: bool = False


def integral_boundary_points(dual_ball: RatPolytope) -> List[CandidatePoint]:
    """All integer points of dual norm exactly one, sorted by (x, y).

    Walks each edge a*x + b*y = c between consecutive vertices, one integer
    x per step, keeping the x where b divides c - a*x; a vertical edge
    (b == 0) steps over integer y instead.
    """
    vertices = dual_ball.vertices
    found = set()
    for i, ((a, b), c) in enumerate(dual_ball.halfspaces):
        p, q = vertices[i], vertices[(i + 1) % len(vertices)]
        if b == 0:
            x, r = divmod(c, a)
            if r == 0:
                lo, hi = sorted((p[1], q[1]))
                found.update((x, y) for y in range(ceil(lo), floor(hi) + 1))
            continue
        lo, hi = sorted((p[0], q[0]))
        for x in range(ceil(lo), floor(hi) + 1):
            y, r = divmod(c - a * x, b)
            if r == 0:
                found.add((x, y))
    corners = set(vertices)
    return [CandidatePoint(pt, pt in corners) for pt in sorted(found)]


def candidate_points(spec: NormSpec, genus: int) -> Tuple[RatPolytope, RatPolytope, List[CandidatePoint]]:
    """Ball, dual ball, and the integral boundary points of the dual ball
    whose coordinates match (chi(F), chi(S)) mod 2.

    Vertices are realizable as Euler classes of taut foliations; every
    other point is a candidate.  Only when the spec is the genus-g surgery
    family are its points (0, +-(2g-2)) flagged, being the points that no
    taut foliation realizes on the surgered manifolds.
    """
    family = spec.is_surgery_family(genus)
    tips = ((0, 2 * genus - 2), (0, 2 - 2 * genus))
    ball = spec.ball
    dual = polar_dual(ball)
    cf, cs = spec.chi
    classified = [
        CandidatePoint(p.coords, p.vertex, family and p.coords in tips)
        for p in integral_boundary_points(dual)
        if (p.coords[0] - cf) % 2 == 0 and (p.coords[1] - cs) % 2 == 0
    ]
    return ball, dual, classified
