import random
from fractions import Fraction as Fr
from itertools import product
from math import floor

import pytest

from tautcalc import polytope
from tautcalc.polytope import (
    MAX_NORM_VALUE,
    NormSpec,
    RatPolytope,
    candidate_points,
    dual_norm_is_one,
    dual_norm_value,
    integral_boundary_points,
    norm_ball_from_values,
    polar_dual,
)
from oracles import fraction_polygon, gauge


def pl_norm_oracle(spec, p, q):
    """Sector-interpolated norm value, independent of any polytope code.

    On each quadrant the unit sphere is the segment path through the scaled
    axis and diagonal directions, so the norm is linear on the two sectors
    split by the diagonal.
    """
    p, q = Fr(p), Fr(q)
    if (p, q) == (0, 0):
        return Fr(0)
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    if p >= 0:
        if p >= q:
            return (p - q) * spec.x_f + q * spec.x_sum
        return (q - p) * spec.x_s + p * spec.x_sum
    if -p >= q:
        return (-p - q) * spec.x_f + q * spec.x_diff
    return (q + p) * spec.x_s + (-p) * spec.x_diff


def boundary_points_by_scan(polygon):
    """(coords, is_vertex) of every integer point on the polygon's boundary,
    by an exact scan of the integer bounding box in (x, y) order."""
    x0, x1, y0, y1 = polygon.bounding_box()
    out = []
    for x in range(x0, x1 + 1):
        for y in range(y0, y1 + 1):
            values = [a * x + b * y - c for (a, b), c in polygon.halfspaces]
            if max(values) == 0:
                out.append(((x, y), (x, y) in polygon.vertices))
    return out


def walked(polygon):
    return [(p.coords, p.vertex) for p in integral_boundary_points(polygon)]


def random_points(rng):
    """Rational points around a random centre, so the origin may lie outside
    their hull; about a third of the samples get a vertical edge."""
    cx, cy = Fr(rng.randint(-9, 9), rng.randint(1, 3)), Fr(rng.randint(-9, 9), rng.randint(1, 3))
    pts = [
        (cx + Fr(rng.randint(-10, 10), rng.randint(1, 4)), cy + Fr(rng.randint(-10, 10), rng.randint(1, 4)))
        for _ in range(rng.randint(3, 7))
    ]
    if rng.random() < 0.35:
        x = min(p[0] for p in pts) - rng.randint(0, 2)
        if rng.random() < 0.5:
            x = Fr(floor(x))
        pts += [(x, cy - rng.randint(1, 6)), (x, cy + rng.randint(1, 6))]
    return pts


def random_polygon(rng):
    while True:
        try:
            return RatPolytope(random_points(rng))
        except ValueError:
            continue  # degenerate sample, try again


def random_symmetric_polygon(rng):
    while True:
        pts = []
        for _ in range(rng.randint(2, 6)):
            x = Fr(rng.randint(-12, 12), rng.randint(1, 6))
            y = Fr(rng.randint(-12, 12), rng.randint(1, 6))
            pts.append((x, y))
            pts.append((-x, -y))
        try:
            return RatPolytope(pts)
        except ValueError:
            continue  # degenerate sample, try again


# -- polygon basics ---------------------------------------------------------------


def test_hull_drops_interior_and_collinear_points():
    p = RatPolytope([(1, 1), (-1, 1), (-1, -1), (1, -1), (0, 0), (1, 0), (0, 1)])
    assert set(p.vertices) == {(1, 1), (-1, 1), (-1, -1), (1, -1)}


def test_value_semantics():
    # the same hull from other points, in another order, is an equal polygon
    # with an equal hash; no field or other name can be set
    p = RatPolytope([(1, 0), (0, 1), (-1, 0), (0, -1)])
    q = RatPolytope([(0, -1), (Fr(1, 2), Fr(1, 2)), (0, 0), (-1, 0), (0, 1), (1, 0)])
    assert p == q and hash(p) == hash(q)
    assert p != RatPolytope([(2, 0), (0, 2), (-2, 0), (0, -2)])
    assert (p == object()) is False
    for name in ("vertices", "halfspaces", "origin_interior", "extra"):
        with pytest.raises(AttributeError):
            setattr(p, name, ())
    assert repr(p) == "RatPolytope([('-1', '0'), ('0', '-1'), ('1', '0'), ('0', '1')])"


def test_degenerate_polygon_rejected():
    with pytest.raises(ValueError):
        RatPolytope([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(ValueError):
        RatPolytope([(0, 0), (1, 1)])


def test_floats_rejected():
    with pytest.raises(ValueError):
        RatPolytope([(0.5, 0), (0, 1), (-1, -1)])


def test_membership_and_boundary():
    square = RatPolytope([(1, 1), (-1, 1), (-1, -1), (1, -1)])
    located = {p.coords: p.vertex for p in integral_boundary_points(square)}
    assert located[(1, 0)] is False
    assert located[(1, 1)] is True
    assert (0, 0) not in located and (2, 0) not in located
    assert len(located) == 8


def test_gauge_on_square():
    square = RatPolytope([(1, 1), (-1, 1), (-1, -1), (1, -1)])
    assert gauge(square, (1, 1)) == 1
    assert gauge(square, (Fr(1, 2), 0)) == Fr(1, 2)
    assert gauge(square, (0, 0)) == 0
    assert gauge(square, (3, 0)) == 3


def test_square_diamond_polarity():
    square = RatPolytope([(1, 1), (-1, 1), (-1, -1), (1, -1)])
    diamond = polar_dual(square)
    assert set(diamond.vertices) == {(1, 0), (0, 1), (-1, 0), (0, -1)}
    assert polar_dual(diamond) == square


def test_polar_requires_interior_origin():
    shifted = RatPolytope([(1, 1), (3, 1), (3, 3), (1, 3)])
    with pytest.raises(ValueError):
        polar_dual(shifted)


def test_polar_involution_random():
    rng = random.Random(101)
    for _ in range(40):
        p = random_symmetric_polygon(rng)
        assert set(p.vertices) == {(-x, -y) for x, y in p.vertices}
        assert polar_dual(polar_dual(p)) == p


def test_dual_vertices_match_facet_count():
    rng = random.Random(103)
    for _ in range(20):
        p = random_symmetric_polygon(rng)
        d = polar_dual(p)
        assert len(d.vertices) == len(p.halfspaces)
        assert len(d.halfspaces) == len(p.vertices)


def representations_agree(p):
    """Every vertex of p satisfies every halfspace, with equality on exactly
    two, read on Fractions."""
    for x, y in p.vertices:
        values = [a * x + b * y - c for (a, b), c in p.halfspaces]
        if max(values) > 0 or values.count(0) != 2:
            return False
    return True


def test_integer_scale_matches_fraction_construction():
    # RatPolytope builds the hull and the halfspaces on the points scaled to
    # one common denominator; they must equal the Fraction construction
    rng = random.Random(139)
    vertical = outside = duals = 0
    for i in range(2400):
        pts = random_points(rng) if i % 3 else random_symmetric_polygon(rng).vertices
        try:
            expected = fraction_polygon(pts)
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                RatPolytope(pts)
            assert str(caught.value) == str(exc)
            continue
        p = RatPolytope(pts)
        assert representations_agree(p), pts
        assert (p.vertices, p.halfspaces) == expected, pts
        vertical += any(b == 0 for (_, b), _ in p.halfspaces)
        if p.origin_interior:
            facets = [(Fr(a, c), Fr(b, c)) for (a, b), c in p.halfspaces]
            d = polar_dual(p)
            assert representations_agree(d), pts
            assert (d.vertices, d.halfspaces) == fraction_polygon(facets)
            duals += 1
        else:
            outside += 1
    assert vertical >= 400 and outside >= 400 and duals >= 800


@pytest.mark.parametrize(
    "pts",
    [
        [],
        [(0, 0)],
        [(Fr(1, 3), 2), (Fr(1, 3), 2), (Fr(2, 3), 1)],
        [(0, 0), (Fr(1, 2), Fr(1, 3)), (Fr(3, 2), 1), (-3, -2)],
        [(Fr(5, 7), -1), (Fr(5, 7), Fr(1, 2)), (Fr(5, 7), 9)],
        [(1, Fr(-1, 4)), (-2, Fr(-1, 4)), (1, Fr(-1, 4))],
        [(Fr(1, 2), 0), (0, 1), (-1, 0.5)],
        [(Fr(1, 2), 0), (0, 1), (-1, "1e3")],
    ],
)
def test_rejected_inputs_fail_as_the_fraction_construction(pts):
    with pytest.raises(ValueError) as expected:
        fraction_polygon(pts)
    with pytest.raises(ValueError) as caught:
        RatPolytope(pts)
    assert str(caught.value) == str(expected.value)


# -- norm balls ---------------------------------------------------------------------


def test_surgery_family_ball_is_diamond():
    spec = NormSpec.surgery_family(3)
    ball = norm_ball_from_values(spec)
    assert set(ball.vertices) == {
        (Fr(1, 2), Fr(0)),
        (Fr(-1, 2), Fr(0)),
        (Fr(0), Fr(1, 4)),
        (Fr(0), Fr(-1, 4)),
    }


def test_unit_values_give_square_ball():
    spec = NormSpec(1, 1, 1, 1, chi=(-2, -2))
    ball = norm_ball_from_values(spec)
    assert set(ball.vertices) == {(1, 1), (-1, 1), (1, -1), (-1, -1)}


def test_symmetric_diamond_ball():
    spec = NormSpec(1, 1, 2, 2, chi=(-2, -2))
    ball = norm_ball_from_values(spec)
    assert set(ball.vertices) == {(1, 0), (0, 1), (-1, 0), (0, -1)}


@pytest.mark.parametrize(
    "values",
    [
        (1, 1, 1, 1),
        (2, 4, 6, 6),
        (2, 3, 4, 5),
        (3, 4, 5, 6),
        (Fr(3, 2), Fr(5, 2), 3, Fr(7, 2)),
    ],
)
def test_ball_gauge_matches_pl_norm_oracle(values):
    spec = NormSpec(*values, chi=(-2, -2))
    ball = norm_ball_from_values(spec)
    for i in range(-8, 9):
        for j in range(-8, 9):
            p, q = Fr(i, 2), Fr(j, 2)
            assert gauge(ball, (p, q)) == pl_norm_oracle(spec, p, q)


def facet_tight_ball(x_f, x_s, x_sum, x_diff):
    """The hull of the eight scaled directions when some facet of it is
    tight on each of them, else None: a reference for NormSpec's rule."""
    pts = []
    for (dx, dy), value in (((1, 0), x_f), ((0, 1), x_s), ((1, 1), x_sum), ((-1, 1), x_diff)):
        pts += [(dx / value, dy / value), (-dx / value, -dy / value)]
    ball = RatPolytope(pts)
    scaled, d = polytope._scale(pts)
    facets = [(a, b, c * d) for (a, b), c in ball.halfspaces]
    if all(any(a * x + b * y == cd for a, b, cd in facets) for x, y in scaled):
        return ball
    return None


def test_inconsistent_values_rejected():
    with pytest.raises(ValueError):
        NormSpec(1, 1, 3, 1, chi=(-2, -2))  # triangle inequality fails
    with pytest.raises(ValueError):
        NormSpec(1, 10, 2, 2, chi=(-2, -2))  # axis point swallowed
    # NormSpec refuses exactly the specs whose hull swallows one of the eight
    # points, and norm_ball_from_values builds the reference's ball for the others
    grid = sorted({Fr(n, d) for n in range(1, 7) for d in range(1, 4)})
    above, swallowed = 0, 0
    for values in product(grid, repeat=4):
        ball = facet_tight_ball(*values)
        if ball is None:
            with pytest.raises(ValueError, match=r"^norm values are inconsistent \(some value is too large\)$"):
                NormSpec(*values, chi=(0, 0))
            x_f, x_s, x_sum, x_diff = values
            if max(x_sum, x_diff) > x_s + x_f:
                above += 1
            else:
                swallowed += 1
        else:
            assert norm_ball_from_values(NormSpec(*values, chi=(0, 0))).vertices == ball.vertices, values
    assert len(grid) ** 4 == 28561 and (above, swallowed) == (9247, 17412)


def test_norm_spec_validation():
    with pytest.raises(ValueError):
        NormSpec(0, 1, 1, 1, chi=(-2, -2))
    with pytest.raises(ValueError):
        NormSpec(1, 1, 1, 1, chi=(-2, 0.5))
    # chi is read before the ball that decides whether a norm takes the values
    with pytest.raises(ValueError, match="^chi entries must be integers$"):
        NormSpec(1, 1, 3, 1, chi=(-2, 0.5))
    with pytest.raises(ValueError, match="even"):
        NormSpec(1, 1, 1, 1, chi=(-2, -3))


def test_norm_spec_chi_is_a_pair():
    # a list would never equal the family's tuple, and would make the spec unhashable
    for chi in ([-2, -4], None, (0,), (0, 0, 0), "ab"):
        with pytest.raises(ValueError, match="^chi must be a tuple of two entries$"):
            NormSpec(2, 4, 6, 6, chi)
    spec = NormSpec(2, 4, 6, 6, (-2, -4))
    assert spec.is_surgery_family(3) and hash(spec) == hash(NormSpec.surgery_family(3))


def test_norm_values_capped():
    cap = MAX_NORM_VALUE
    NormSpec(cap, cap, cap, cap, chi=(-2, -2))
    for i in range(4):
        values = [cap, cap, cap, cap]
        values[i] = cap + 1
        with pytest.raises(ValueError, match=f"at most {cap}"):
            NormSpec(*values, chi=(-2, -2))
    with pytest.raises(ValueError, match=f"at most {cap}"):
        NormSpec(1, Fr(2 * cap + 1, 2), Fr(2 * cap + 1, 2), Fr(2 * cap + 1, 2), chi=(-2, -2))


def test_surgery_family_genus_capped():
    top = MAX_NORM_VALUE // 2
    assert NormSpec.surgery_family(top).x_sum == MAX_NORM_VALUE
    with pytest.raises(ValueError, match=f"genus must be at most {top}"):
        NormSpec.surgery_family(top + 1)
    # a spec below the cap is compared with a large genus, not rejected by it
    spec = NormSpec.surgery_family(3)
    assert not spec.is_surgery_family(3 * top)
    _, _, classified = candidate_points(spec, 3 * top)
    assert classified and not any(p.counterexample for p in classified)


# -- dual norm ------------------------------------------------------------------------


def test_dual_norm_examples():
    ball = norm_ball_from_values(NormSpec.surgery_family(3))
    assert dual_norm_value(ball, [(0, 0), (0, -4), (2, 4), (Fr(1, 3), 2)]) == [0, 1, 1, Fr(1, 2)]
    assert dual_norm_value(ball, []) == []
    with pytest.raises(ValueError):
        dual_norm_value(ball, [(0.5, 0)])


def test_dual_norm_batch_matches_pointwise():
    # the batch scales the vertices to a common denominator; each value must
    # equal the max of <u, v> taken over the Fraction vertices
    rng = random.Random(131)
    for spec in (NormSpec.surgery_family(7), NormSpec(Fr(3, 2), Fr(5, 2), 3, Fr(7, 2), chi=(-2, -2))):
        ball = norm_ball_from_values(spec)
        pts = [(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(100)]
        pts += [(Fr(rng.randint(-30, 30), rng.randint(1, 7)), rng.randint(-5, 5)) for _ in range(100)]
        expected = [max(x * vx + y * vy for vx, vy in ball.vertices) for x, y in pts]
        assert dual_norm_value(ball, pts) == expected


def test_dual_norm_homogeneous():
    ball = norm_ball_from_values(NormSpec.surgery_family(4))
    rng = random.Random(107)
    for _ in range(50):
        u = (Fr(rng.randint(-9, 9), rng.randint(1, 4)), Fr(rng.randint(-9, 9), rng.randint(1, 4)))
        lam = Fr(rng.randint(-6, 6), rng.randint(1, 3))
        scaled, value = dual_norm_value(ball, [(lam * u[0], lam * u[1]), u])
        assert scaled == abs(lam) * value


def test_dual_norm_agrees_with_polar_gauge():
    rng = random.Random(109)
    ball = norm_ball_from_values(NormSpec.surgery_family(5))
    dual = polar_dual(ball)
    pts = [(Fr(rng.randint(-20, 20), rng.randint(1, 5)), Fr(rng.randint(-20, 20), rng.randint(1, 5))) for _ in range(200)]
    assert dual_norm_value(ball, pts) == [gauge(dual, u) for u in pts]


def test_boundary_iff_dual_norm_one():
    for spec in (NormSpec.surgery_family(3), NormSpec(2, 3, 4, 5, chi=(-2, -2)), NormSpec(3, 4, 5, 6, chi=(0, 0))):
        ball = norm_ball_from_values(spec)
        dual = polar_dual(ball)
        x0, x1, y0, y1 = dual.bounding_box()
        grid = [(x, y) for x in range(x0 - 1, x1 + 2) for y in range(y0 - 1, y1 + 2)]
        norm_one = [p for p, value in zip(grid, dual_norm_value(ball, grid)) if value == 1]
        assert [p.coords for p in integral_boundary_points(dual)] == norm_one


def test_dual_norm_is_one_reads_the_values():
    # the integer test agrees with the Fraction values, point by point and in a batch
    rng = random.Random(113)
    for spec in (NormSpec.surgery_family(3), NormSpec(Fr(3, 2), Fr(5, 2), 3, Fr(7, 2), chi=(-2, -2))):
        ball = norm_ball_from_values(spec)
        pts = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(100)]
        pts += [(Fr(rng.randint(-6, 6), rng.randint(1, 3)), Fr(rng.randint(-6, 6), rng.randint(1, 3))) for _ in range(100)]
        values = dual_norm_value(ball, pts)
        assert [dual_norm_is_one(ball, [p]) for p in pts] == [value == 1 for value in values]
        norm_one = [p for p, value in zip(pts, values) if value == 1]
        assert norm_one and dual_norm_is_one(ball, norm_one)
        assert not dual_norm_is_one(ball, norm_one + [(0, 0)])
        assert dual_norm_is_one(ball, [])


# -- integral points and classification --------------------------------------------------


def test_dual_ball_has_integral_vertices():
    for genus in range(3, 9):
        dual = polar_dual(norm_ball_from_values(NormSpec.surgery_family(genus)))
        for x, y in dual.vertices:
            assert x.denominator == 1 and y.denominator == 1


def test_integral_boundary_points_genus3():
    dual = polar_dual(norm_ball_from_values(NormSpec.surgery_family(3)))
    pts = integral_boundary_points(dual)
    assert len(pts) == 24
    by_coords = {p.coords: p for p in pts}
    assert by_coords[(2, 4)].vertex
    assert not by_coords[(0, -4)].vertex


def test_integral_boundary_points_diamond():
    diamond = RatPolytope([(1, 0), (0, 1), (-1, 0), (0, -1)])
    pts = integral_boundary_points(diamond)
    assert len(pts) == 4
    assert all(p.vertex for p in pts)


def test_walk_matches_box_scan_on_random_polygons():
    rng = random.Random(127)
    vertical = outside = 0
    for _ in range(150):
        for p in (random_polygon(rng), random_symmetric_polygon(rng)):
            assert walked(p) == boundary_points_by_scan(p), p
            vertical += any(b == 0 for (_, b), _ in p.halfspaces)
            if p.origin_interior:
                d = polar_dual(p)
                assert walked(d) == boundary_points_by_scan(d), d
            else:
                outside += 1
    assert vertical >= 30 and outside >= 30


def test_walk_matches_box_scan_on_surgery_families():
    for genus in range(2, 41):
        dual = polar_dual(norm_ball_from_values(NormSpec.surgery_family(genus)))
        assert walked(dual) == boundary_points_by_scan(dual)


@pytest.mark.parametrize(
    "pts, facet",
    [
        # 2x + 4y = 3: gcd(2, 4) does not divide 3, so the edge has no lattice point
        ([(Fr(3, 2), 0), (Fr(-5, 2), 2), (-3, -3)], ((2, 4), 3)),
        # x + 3y = 1 between rational ends, with b = 3 and with b = -3
        ([(Fr(-7, 2), Fr(3, 2)), (Fr(11, 2), Fr(-3, 2)), (-4, -4)], ((1, 3), 1)),
        ([(Fr(-7, 2), Fr(3, 2)), (Fr(11, 2), Fr(-3, 2)), (5, 5)], ((-1, -3), -1)),
        # 2x - 5y = 1 from (-7/3, -17/15) to (33/4, 31/10)
        ([(Fr(-7, 3), Fr(-17, 15)), (Fr(33, 4), Fr(31, 10)), (-1, 5)], ((2, -5), 1)),
        # vertical edges at x = 3/2 and at x = 2 with rational ends
        ([(Fr(3, 2), -2), (Fr(3, 2), Fr(5, 2)), (-1, 0)], ((2, 0), 3)),
        ([(2, Fr(-5, 2)), (2, Fr(7, 3)), (-1, 0)], ((1, 0), 2)),
    ],
)
def test_walk_edge_cases(pts, facet):
    polygon = RatPolytope(pts)
    assert facet in polygon.halfspaces
    assert walked(polygon) == boundary_points_by_scan(polygon)


# a dual ball with rational vertices near the unit square, and one of width 2*10^-1000
EXTREME_SPECS = (
    NormSpec(Fr(4095, 4096), Fr(4094, 4095), Fr(4093, 2047), Fr(4093, 2047), chi=(0, 0)),
    NormSpec(Fr(1, 10**1000), 1, 1, 1, chi=(0, 0)),
)


def test_walk_on_extreme_specs():
    for spec in EXTREME_SPECS:
        dual = polar_dual(norm_ball_from_values(spec))
        assert walked(dual) == boundary_points_by_scan(dual)
    thin = EXTREME_SPECS[1]
    assert [p.coords for p in integral_boundary_points(polar_dual(norm_ball_from_values(thin)))] == [(0, -1), (0, 1)]


def random_norm_spec(rng, tight):
    """Valid integer or rational norm values with even chi.  With
    lo = max(x(F), x(S)) and hi = x(F) + x(S) one diagonal value is lo - t
    and the other at least lo + t, for some 0 <= t < hi - lo; a tight spec
    meets the rule x(S+F) + x(S-F) >= 2 lo with equality."""
    den = rng.choice((1, 1, 2, 3, 7))
    x_f, x_s = Fr(rng.randint(1, 80), den), Fr(rng.randint(1, 80), den)
    lo, hi = max(x_f, x_s), x_f + x_s
    t = (hi - lo) * Fr(rng.randint(0, 9), 10)
    far = lo + t if tight else lo + t + (hi - lo - t) * Fr(rng.randint(1, 10), 10)
    diagonals = [lo - t, far]
    rng.shuffle(diagonals)
    return NormSpec(x_f, x_s, *diagonals, chi=(-2 * rng.randint(0, 9), -2 * rng.randint(0, 9)))


def test_even_walk_matches_parity_rule():
    # the reference rule: scan every boundary point, keep those matching chi
    # mod 2, and flag the family tips
    rng = random.Random(149)
    specs = [random_norm_spec(rng, tight) for tight in (True, False) for _ in range(60)]
    cases = [(spec, 2) for spec in (*specs, *EXTREME_SPECS)]
    cases += [(NormSpec.surgery_family(genus), genus) for genus in (3, 8)]
    for spec, genus in cases:
        tips = {(0, 2 * genus - 2), (0, 2 - 2 * genus)} if spec.is_surgery_family(genus) else set()
        _, dual, classified = candidate_points(spec, genus)
        cf, cs = spec.chi
        scanned = boundary_points_by_scan(dual)
        kept = [(pt, v, pt in tips) for pt, v in scanned if (pt[0] - cf) % 2 == 0 and (pt[1] - cs) % 2 == 0]
        assert classified == kept, spec
        even = [(pt, v) for pt, v in scanned if pt[0] % 2 == 0 and pt[1] % 2 == 0]
        assert [(p.coords, p.vertex) for p in integral_boundary_points(dual, 2)] == even, spec
    assert sum(1 for spec in specs if any(Fr(v).denominator > 1 for v in (spec.x_f, spec.x_s))) >= 30


def test_walk_spacing_must_be_positive_int():
    dual = polar_dual(norm_ball_from_values(NormSpec.surgery_family(3)))
    for spacing in (0, -2, True, 2.0, Fr(2)):
        with pytest.raises(ValueError, match="spacing must be a positive integer"):
            integral_boundary_points(dual, spacing)


@pytest.mark.parametrize("genera", [range(2, 301), [MAX_NORM_VALUE // 2]])
def test_surgery_family_lists_4g_points(genera):
    # the dual ball is the box with vertices (+-2, +-(2g-2)): its even
    # boundary points are (+-2, y) for the 2g - 1 even y from 2-2g to 2g-2,
    # and (0, +-(2g-2))
    for genus in genera:
        _, _, classified = candidate_points(NormSpec.surgery_family(genus), genus)
        assert len(classified) == 4 * genus
        assert sum(p.vertex for p in classified) == 4
        assert [p.coords for p in classified if p.counterexample] == [(0, 2 - 2 * genus), (0, 2 * genus - 2)]


def test_genus4_tip_is_nonvertex():
    _, _, classified = candidate_points(NormSpec.surgery_family(4), 4)
    tip = {p.coords: p for p in classified}[(0, -6)]
    assert not tip.vertex


def test_interior_and_exterior_points_not_listed():
    _, dual, classified = candidate_points(NormSpec.surgery_family(3), 3)
    listed = {p.coords for p in integral_boundary_points(dual)} | {p.coords for p in classified}
    assert (0, 0) not in listed and (5, 5) not in listed


def test_parity_filter():
    # (1, 4) lies on the boundary but its x does not match chi(F) = -2 mod 2
    _, dual, classified = candidate_points(NormSpec.surgery_family(3), 3)
    assert (1, 4) in {p.coords for p in integral_boundary_points(dual)}
    table = {p.coords: p for p in classified}
    assert (1, 4) not in table
    assert (0, -4) in table


def test_parity_filter_requires_even_chi():
    with pytest.raises(ValueError, match="even"):
        NormSpec(2, 4, 6, 6, chi=(-2, -3))


def test_parity_filter_keeps_even_points():
    _, _, classified = candidate_points(NormSpec.surgery_family(3), 3)
    assert all(x % 2 == 0 and y % 2 == 0 for x, y in (p.coords for p in classified))
    assert len(classified) == 12


def test_classification_examples():
    genus = 3
    _, _, classified = candidate_points(NormSpec.surgery_family(genus), genus)
    table = {p.coords: p for p in classified}
    assert table[(2, 4)].vertex
    assert not table[(2, 4)].counterexample
    tip = table[(0, -4)]
    assert not tip.vertex
    assert tip.counterexample
    assert not table[(2, 0)].vertex
    assert not table[(2, 0)].counterexample


def test_classification_symmetric_under_negation():
    genus = 3
    _, _, classified = candidate_points(NormSpec.surgery_family(genus), genus)
    table = {p.coords: p for p in classified}
    for coords, p in table.items():
        mirrored = table[(-coords[0], -coords[1])]
        assert mirrored.vertex == p.vertex
        assert mirrored.counterexample == p.counterexample


def test_classify_requires_parity_on_boundary():
    for genus in (3, 6):
        spec = NormSpec.surgery_family(genus)
        ball, dual, classified = candidate_points(spec, genus)
        cf, cs = spec.chi
        assert set(dual_norm_value(ball, [p.coords for p in classified])) == {1}
        for p in classified:
            assert (p.coords[0] - cf) % 2 == 0 and (p.coords[1] - cs) % 2 == 0
            assert p.vertex == (p.coords in dual.vertices)


def test_candidate_points_checks_genus():
    spec = NormSpec(x_f=2, x_s=4, x_sum=4, x_diff=4, chi=(-2, -4))
    for genus in (1, 0, "3"):
        with pytest.raises(ValueError, match="genus must be an integer >= 2"):
            candidate_points(spec, genus)


def test_candidate_pipeline_flags_tip():
    for genus in (3, 5):
        _, _, classified = candidate_points(NormSpec.surgery_family(genus), genus)
        flagged = sorted(p.coords for p in classified if p.counterexample)
        tip = 2 * genus - 2
        assert flagged == [(0, -tip), (0, tip)]
        assert not any(p.vertex and p.counterexample for p in classified)


def test_candidate_pipeline_flags_only_the_family():
    # same ball as the genus-3 family, but chi(F) = 0: not the surgered manifold
    spec = NormSpec(x_f=2, x_s=4, x_sum=6, x_diff=6, chi=(0, -4))
    assert not spec.is_surgery_family(3)
    _, _, classified = candidate_points(spec, 3)
    assert (0, -4) in {p.coords for p in classified}
    assert not any(p.counterexample for p in classified)


# -- covering pullback ---------------------------------------------------------------


def test_covering_rescale_property():
    # a degree-d cover multiplies every norm value by d, which shrinks the
    # ball and scales the dual norm by 1/d
    genus = 3
    spec = NormSpec.surgery_family(genus)
    degree = 3
    scaled = NormSpec(
        degree * spec.x_f, degree * spec.x_s, degree * spec.x_sum, degree * spec.x_diff, chi=spec.chi
    )
    ball = norm_ball_from_values(spec)
    scaled_ball = norm_ball_from_values(scaled)
    rng = random.Random(113)
    pts = [(Fr(rng.randint(-9, 9), rng.randint(1, 3)), Fr(rng.randint(-9, 9), rng.randint(1, 3))) for _ in range(50)]
    assert dual_norm_value(scaled_ball, [(degree * x, degree * y) for x, y in pts]) == dual_norm_value(ball, pts)


def test_norm_spec_keeps_its_validated_ball(monkeypatch):
    made = []

    class Counted(RatPolytope):
        def __init__(self, points):
            made.append(points)
            super().__init__(points)

    monkeypatch.setattr(polytope, "RatPolytope", Counted)
    spec = NormSpec(2, 4, 6, 6, chi=(-2, -4))
    assert made == []  # the spec checks its values in closed form
    ball, dual, _ = candidate_points(spec, 3)
    assert len(made) == 2  # the spec's ball and its dual
    assert ball == norm_ball_from_values(spec)
    twin = NormSpec(2, 4, 6, 6, chi=(-2, -4))
    assert twin == spec and hash(twin) == hash(spec)
    assert "ball" not in repr(spec)
