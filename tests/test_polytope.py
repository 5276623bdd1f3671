import random
from fractions import Fraction as Fr

import pytest

from tautcalc.polytope import (
    CandidatePoint,
    Location,
    NormSpec,
    RatPolytope,
    Realizability,
    candidate_points,
    classify_realizability,
    covering_pullback,
    dual_norm_value,
    integral_boundary_points,
    locate,
    norm_ball_from_values,
    parity_filter,
    polar_dual,
)


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
    assert square.contains((0, 0))
    assert square.contains((1, 0))
    assert square.on_boundary((1, 0))
    assert not square.on_boundary((0, 0))
    assert not square.contains((2, 0))
    assert square.is_vertex((1, 1))
    assert not square.is_vertex((1, 0))


def test_gauge_on_square():
    square = RatPolytope([(1, 1), (-1, 1), (-1, -1), (1, -1)])
    assert square.gauge((1, 1)) == 1
    assert square.gauge((Fr(1, 2), 0)) == Fr(1, 2)
    assert square.gauge((0, 0)) == 0
    assert square.gauge((3, 0)) == 3


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
        assert p.centrally_symmetric
        assert polar_dual(polar_dual(p)) == p


def test_dual_vertices_match_facet_count():
    rng = random.Random(103)
    for _ in range(20):
        p = random_symmetric_polygon(rng)
        d = polar_dual(p)
        assert len(d.vertices) == len(p.halfspaces)
        assert len(d.halfspaces) == len(p.vertices)


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
            assert ball.gauge((p, q)) == pl_norm_oracle(spec, p, q)


def test_inconsistent_values_rejected():
    with pytest.raises(ValueError):
        NormSpec(1, 1, 3, 1, chi=(-2, -2))  # triangle inequality fails
    with pytest.raises(ValueError):
        norm_ball_from_values(NormSpec(1, 10, 2, 2, chi=(-2, -2)))  # axis point swallowed


def test_norm_spec_validation():
    with pytest.raises(ValueError):
        NormSpec(0, 1, 1, 1, chi=(-2, -2))
    with pytest.raises(ValueError):
        NormSpec(1, 1, 1, 1, chi=(-2, 0.5))
    with pytest.raises(ValueError, match="even"):
        NormSpec(1, 1, 1, 1, chi=(-2, -3))


# -- dual norm ------------------------------------------------------------------------


def test_dual_norm_examples():
    ball = norm_ball_from_values(NormSpec.surgery_family(3))
    assert dual_norm_value(ball, (0, 0)) == 0
    assert dual_norm_value(ball, (0, -4)) == 1
    assert dual_norm_value(ball, (2, 4)) == 1


def test_dual_norm_homogeneous():
    ball = norm_ball_from_values(NormSpec.surgery_family(4))
    rng = random.Random(107)
    for _ in range(50):
        u = (Fr(rng.randint(-9, 9), rng.randint(1, 4)), Fr(rng.randint(-9, 9), rng.randint(1, 4)))
        lam = Fr(rng.randint(-6, 6), rng.randint(1, 3))
        assert dual_norm_value(ball, (lam * u[0], lam * u[1])) == abs(lam) * dual_norm_value(ball, u)


def test_dual_norm_agrees_with_polar_gauge():
    rng = random.Random(109)
    ball = norm_ball_from_values(NormSpec.surgery_family(5))
    dual = polar_dual(ball)
    for _ in range(200):
        u = (Fr(rng.randint(-20, 20), rng.randint(1, 5)), Fr(rng.randint(-20, 20), rng.randint(1, 5)))
        assert dual_norm_value(ball, u) == dual.gauge(u)


def test_boundary_iff_dual_norm_one():
    ball = norm_ball_from_values(NormSpec.surgery_family(3))
    dual = polar_dual(ball)
    x0, x1, y0, y1 = dual.bounding_box()
    for x in range(x0 - 1, x1 + 2):
        for y in range(y0 - 1, y1 + 2):
            assert (dual_norm_value(ball, (x, y)) == 1) == dual.on_boundary((x, y))


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
    assert by_coords[(2, 4)].location is Location.BOUNDARY_VERTEX
    assert by_coords[(0, -4)].location is Location.BOUNDARY_NONVERTEX


def test_integral_boundary_points_diamond():
    diamond = RatPolytope([(1, 0), (0, 1), (-1, 0), (0, -1)])
    pts = integral_boundary_points(diamond)
    assert len(pts) == 4
    assert all(p.location is Location.BOUNDARY_VERTEX for p in pts)


def test_genus4_tip_is_nonvertex():
    dual = polar_dual(norm_ball_from_values(NormSpec.surgery_family(4)))
    assert locate(dual, (0, -6)).location is Location.BOUNDARY_NONVERTEX


def test_locate_interior_and_exterior():
    dual = polar_dual(norm_ball_from_values(NormSpec.surgery_family(3)))
    assert locate(dual, (0, 0)).location is Location.INTERIOR
    assert locate(dual, (5, 5)).location is Location.EXTERIOR


def test_parity_filter():
    chi = (-2, -4)
    keep = CandidatePoint((0, -4), Location.BOUNDARY_NONVERTEX)
    drop = CandidatePoint((1, 4), Location.BOUNDARY_NONVERTEX)
    kept = parity_filter([keep, drop], chi)
    assert [p.coords for p in kept] == [(0, -4)]
    assert kept[0].parity_ok is True


def test_parity_filter_requires_even_chi():
    with pytest.raises(ValueError):
        parity_filter([], (-2, -3))


def test_parity_filter_keeps_even_points():
    dual = polar_dual(norm_ball_from_values(NormSpec.surgery_family(3)))
    kept = parity_filter(integral_boundary_points(dual), (-2, -4))
    assert all(x % 2 == 0 and y % 2 == 0 for x, y in (p.coords for p in kept))
    assert len(kept) == 12


def test_classification_examples():
    genus = 3
    dual = polar_dual(norm_ball_from_values(NormSpec.surgery_family(genus)))
    vertex = classify_realizability(
        parity_filter([locate(dual, (2, 4))], (-2, -4))[0], genus
    )
    assert vertex.realizability is Realizability.REALIZABLE_VERTEX
    tip = classify_realizability(parity_filter([locate(dual, (0, -4))], (-2, -4))[0], genus)
    assert tip.realizability is Realizability.CANDIDATE
    assert tip.counterexample
    interior = classify_realizability(locate(dual, (0, 0)), genus)
    assert interior.realizability is Realizability.INTERIOR_UNKNOWN
    excluded = classify_realizability(
        CandidatePoint((1, 4), Location.BOUNDARY_NONVERTEX, parity_ok=False), genus
    )
    assert excluded.realizability is Realizability.EXCLUDED


def test_classification_symmetric_under_negation():
    genus = 3
    _, _, classified = candidate_points(NormSpec.surgery_family(genus), genus)
    table = {p.coords: p for p in classified}
    for coords, p in table.items():
        mirrored = table[(-coords[0], -coords[1])]
        assert mirrored.realizability == p.realizability
        assert mirrored.counterexample == p.counterexample


def test_classify_requires_parity_on_boundary():
    dual = polar_dual(norm_ball_from_values(NormSpec.surgery_family(3)))
    with pytest.raises(ValueError):
        classify_realizability(locate(dual, (0, -4)), 3)


def test_candidate_pipeline_flags_tip():
    for genus in (3, 5):
        _, _, classified = candidate_points(NormSpec.surgery_family(genus), genus)
        flagged = sorted(p.coords for p in classified if p.counterexample)
        tip = 2 * genus - 2
        assert flagged == [(0, -tip), (0, tip)]
        for p in classified:
            if p.location is Location.BOUNDARY_VERTEX:
                assert p.realizability is Realizability.REALIZABLE_VERTEX


def test_candidate_pipeline_flags_only_the_family():
    # same ball as the genus-3 family, but chi(F) = 0: not the surgered manifold
    spec = NormSpec(x_f=2, x_s=4, x_sum=6, x_diff=6, chi=(0, -4))
    assert not spec.is_surgery_family(3)
    _, _, classified = candidate_points(spec, 3)
    assert (0, -4) in {p.coords for p in classified}
    assert not any(p.counterexample for p in classified)


# -- covering pullback ---------------------------------------------------------------


def test_covering_pullback_values():
    assert covering_pullback(4, 3) == 12
    assert covering_pullback(Fr(5, 2), 1) == Fr(5, 2)
    with pytest.raises(ValueError):
        covering_pullback(4, 0)


def test_covering_rescale_property():
    genus = 3
    spec = NormSpec.surgery_family(genus)
    degree = 3
    scaled = NormSpec(
        covering_pullback(spec.x_f, degree),
        covering_pullback(spec.x_s, degree),
        covering_pullback(spec.x_sum, degree),
        covering_pullback(spec.x_diff, degree),
        chi=spec.chi,
    )
    ball = norm_ball_from_values(spec)
    scaled_ball = norm_ball_from_values(scaled)
    rng = random.Random(113)
    for _ in range(50):
        u = (Fr(rng.randint(-9, 9), rng.randint(1, 3)), Fr(rng.randint(-9, 9), rng.randint(1, 3)))
        assert dual_norm_value(scaled_ball, (degree * u[0], degree * u[1])) == dual_norm_value(
            ball, u
        )
