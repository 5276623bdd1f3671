import random
from fractions import Fraction as Fr

import pytest

from tautcalc.holonomy import (
    PLHomeo,
    TiledHomeo,
    TileShiftMap,
    bundled_shifts,
    solve_conjugacy,
    witness_samples,
)


def random_plhomeo(rng, max_breaks=3):
    """Random increasing endpoint-fixing PL map of [-1, 1]."""
    k = rng.randint(0, max_breaks)
    xs = sorted(rng.sample([Fr(n, 12) for n in range(-11, 12)], k))
    ys = sorted(rng.sample([Fr(n, 12) for n in range(-11, 12)], k))
    return PLHomeo([Fr(-1)] + xs + [Fr(1)], [Fr(-1)] + ys + [Fr(1)])


def rationals_in_domain(n=50):
    return [Fr(i, (n + 1) // 2) - 1 for i in range(n + 1)]


# -- PLHomeo basics ------------------------------------------------------------------


def test_validation():
    with pytest.raises(ValueError):
        PLHomeo([0, 1], [0, 2])  # endpoint moves
    with pytest.raises(ValueError):
        PLHomeo([0, 1, 1], [0, Fr(1, 2), 1])  # not strictly increasing
    with pytest.raises(ValueError):
        PLHomeo([0, 1], [1, 0])
    with pytest.raises(ValueError):
        PLHomeo([0.0, 1.0], [0.0, 1.0])  # floats banned


def test_eval_interpolates():
    f = PLHomeo([-1, 0, 1], [-1, Fr(1, 2), 1])
    assert f.eval(-1) == -1
    assert f.eval(0) == Fr(1, 2)
    assert f.eval(Fr(-1, 2)) == Fr(-1, 4)
    assert f.eval(Fr(1, 2)) == Fr(3, 4)
    with pytest.raises(ValueError):
        f.eval(2)


def test_collinear_breakpoints_normalized():
    f = PLHomeo([-1, 0, 1], [-1, 0, 1])
    assert f == PLHomeo.identity()
    assert f.breakpoints == (Fr(-1), Fr(1))


def test_inverse_roundtrip():
    rng = random.Random(61)
    for _ in range(30):
        f = random_plhomeo(rng)
        assert f.inverse().inverse() == f
        for q in rationals_in_domain(20):
            assert f.inverse().eval(f.eval(q)) == q


def test_compose_with_identity_and_inverse():
    rng = random.Random(67)
    ident = PLHomeo.identity()
    for _ in range(20):
        f = random_plhomeo(rng)
        inv = f.inverse()
        for q in set(f.breakpoints) | set(f.values) | set(rationals_in_domain(20)):
            assert ident.eval(q) == q
            assert f.eval(inv.eval(q)) == q
            assert inv.eval(f.eval(q)) == q


def test_rescaled():
    u, _ = bundled_shifts()
    f = u.rescaled(0, 1)
    assert f.domain == (Fr(0), Fr(1))
    assert f.eval(Fr(1, 2)) == Fr(3, 4)  # chart image of u(0) = 1/2


def displacements(f):
    """f(b) - b at the interior breakpoints of f.  Between breakpoints the
    displacement is affine and it vanishes at the endpoints, so f has no
    interior fixed point exactly when these are nonzero and of one sign."""
    return [v - b for b, v in zip(f.breakpoints[1:-1], f.values[1:-1])]


def test_is_shift():
    u, v = bundled_shifts()
    for f in (u, v):
        assert displacements(f) and all(d > 0 for d in displacements(f))
        assert all(f.eval(q) > q for q in rationals_in_domain(50)[1:-1])
    assert displacements(PLHomeo.identity()) == []
    crossing = PLHomeo([-1, Fr(-1, 2), Fr(1, 2), 1], [-1, Fr(-1, 4), Fr(1, 4), 1])
    # fixed point at 0 in the middle segment, where the displacement changes sign
    assert crossing.eval(0) == 0
    assert displacements(crossing) == [Fr(1, 4), Fr(-1, 4)]


def test_shift_composition_same_direction():
    rng = random.Random(73)
    count = 0
    while count < 20:
        f = random_plhomeo(rng)
        g = random_plhomeo(rng)
        ds = displacements(f), displacements(g)
        if not all(d and min(d) > 0 for d in ds):
            continue  # not two upward shifts
        count += 1
        for q in rationals_in_domain(24)[1:-1]:
            assert f.eval(g.eval(q)) > g.eval(q) > q


# -- tiled homeomorphisms ---------------------------------------------------------------


def test_tiled_eval_fixes_center_and_endpoints():
    u, v = bundled_shifts()
    t = TiledHomeo((u, u.inverse()), (v, v.inverse()))
    assert t.eval(0) == 0
    assert t.eval(-1) == -1
    assert t.eval(1) == 1
    with pytest.raises(ValueError):
        t.eval(2)


def test_tiled_eval_matches_manual_chart():
    u, v = bundled_shifts()
    t = TiledHomeo((u,), (v,))
    # q = -3/4 lies in the first negative tile [-1, -1/2]; the chart sends it
    # to 0, u(0) = 1/2, and back: -1 + (1/2 + 1) * (1/2) / 2 = -5/8
    assert t.eval(Fr(-3, 4)) == Fr(-5, 8)
    # second negative tile [-1/2, -1/3] with the same map
    q = Fr(-5, 12)  # midpoint of the tile, chart image 0
    lo, hi = Fr(-1, 2), Fr(-1, 3)
    expected = lo + (u.eval(0) + 1) * (hi - lo) / 2
    assert t.eval(q) == expected


def test_tiled_tile_boundaries_fixed():
    u, v = bundled_shifts()
    t = TiledHomeo((u, u.inverse()), (v,))
    for n in range(1, 12):
        assert t.eval(Fr(-1, n)) == Fr(-1, n)
        assert t.eval(Fr(1, n)) == Fr(1, n)


def test_tiled_strictly_increasing_on_batch():
    u, v = bundled_shifts()
    t = TiledHomeo((u, u.inverse()), (v, v.inverse()))
    xs = sorted(witness_samples(10, 5))
    ys = [t.eval(x) for x in xs]
    assert all(a < b for a, b in zip(ys, ys[1:]))


def test_tile_maps_alternate_by_parity():
    u, v = bundled_shifts()
    t = TiledHomeo((u, u.inverse()), (v,))
    for n in range(1, 7):
        neg = u if n % 2 else u.inverse()
        for (lo, hi), w in (((-Fr(1, n), -Fr(1, n + 1)), neg), ((Fr(1, n + 1), Fr(1, n)), v)):
            # the tile midpoint is the chart image of 0
            assert t.eval((lo + hi) / 2) == lo + (w.eval(0) + 1) * (hi - lo) / 2
    assert t.inverse().negative == (u.inverse(), u)
    assert t.inverse().positive == (v.inverse(),)


def test_tiled_inverse():
    u, v = bundled_shifts()
    t = TiledHomeo((u, u.inverse()), (v,))
    ti = t.inverse()
    for q in witness_samples(6, 3):
        assert ti.eval(t.eval(q)) == q


# h at tile boundaries and tile midpoints.  Case a has end pieces on both
# sides (u t^-1 v: middle 1 of 3), case c only on the negative side (u t),
# case d only on the positive side (t v).  With an end piece, tile 1 goes
# onto it and tile n onto the chart image m + (x + 1)/2 of tile n-1; without
# one, h is that chart.
TILE_SHIFT_VALUES = {
    (1, 3): {
        Fr(-1): 0, Fr(-3, 4): Fr(1, 2), Fr(-1, 2): 1, Fr(-5, 12): Fr(9, 8), Fr(-1, 3): Fr(5, 4),
        Fr(-1, 4): Fr(4, 3), 0: Fr(3, 2), Fr(1, 4): Fr(5, 3), Fr(1, 3): Fr(7, 4),
        Fr(5, 12): Fr(15, 8), Fr(1, 2): 2, Fr(3, 4): Fr(5, 2), Fr(1): 3,
    },
    (1, 2): {
        Fr(-1): 0, Fr(-3, 4): Fr(1, 2), Fr(-1, 2): 1, Fr(-5, 12): Fr(9, 8), Fr(-1, 3): Fr(5, 4),
        0: Fr(3, 2), Fr(1, 3): Fr(5, 3), Fr(1, 2): Fr(7, 4), Fr(3, 4): Fr(15, 8), Fr(1): 2,
    },
    (0, 2): {
        Fr(-1): 0, Fr(-3, 4): Fr(1, 8), Fr(-1, 2): Fr(1, 4), Fr(-1, 3): Fr(1, 3), 0: Fr(1, 2),
        Fr(1, 3): Fr(3, 4), Fr(5, 12): Fr(7, 8), Fr(1, 2): 1, Fr(3, 4): Fr(3, 2), Fr(1): 2,
    },
}


@pytest.mark.parametrize("shape", list(TILE_SHIFT_VALUES), ids=["a", "c", "d"])
def test_tile_shift_map_values(shape):
    h = TileShiftMap(*shape)
    for q, expected in TILE_SHIFT_VALUES[shape].items():
        assert h.eval(q) == expected, q


# -- conjugacy construction ----------------------------------------------------------------


def test_all_cases_verify_exactly():
    u, v = bundled_shifts()
    for case in "abcdef":
        tiled, witness = solve_conjugacy(u, v, case)
        assert witness.all_passed, case
        assert len(witness.checks) >= 64
        assert witness.tiles_per_side >= 8
        assert witness.case == case


def test_witness_checks_both_sides_of_many_tiles():
    u, v = bundled_shifts()
    _, witness = solve_conjugacy(u, v, "a")
    neg_tiles = set()
    pos_tiles = set()
    for c in witness.checks:
        if c.point < 0:
            neg_tiles.add(int(Fr(-1) / c.point))
        elif c.point > 0:
            pos_tiles.add(int(Fr(1) / c.point))
    assert len(neg_tiles) >= 8 and len(pos_tiles) >= 8


def test_identity_degenerate_case():
    ident = PLHomeo.identity()
    tiled, witness = solve_conjugacy(ident, ident, "a")
    assert witness.all_passed
    for q in witness_samples(9, 4):
        assert tiled.eval(q) == q


def test_case_c_with_identity_u():
    _, v = bundled_shifts()
    tiled, witness = solve_conjugacy(PLHomeo.identity(), v, "c")
    assert witness.all_passed
    for q in witness_samples(6, 3):
        assert tiled.eval(q) == q


def test_random_maps_verify():
    rng = random.Random(79)
    for case in "abcdef":
        u = random_plhomeo(rng)
        v = random_plhomeo(rng)
        _, witness = solve_conjugacy(u, v, case, tiles_per_side=5, per_tile=2)
        assert witness.all_passed, case


def test_invalid_case_rejected():
    u, v = bundled_shifts()
    for case in ("g", "ab", "", "cde"):
        with pytest.raises(ValueError):
            solve_conjugacy(u, v, case)


def test_domain_must_be_standard():
    u, _ = bundled_shifts()
    with pytest.raises(ValueError):
        solve_conjugacy(u.rescaled(0, 1), u, "a")


def test_witness_samples_spread():
    pts = witness_samples(8, 4)
    assert len(pts) == 8 * 4 * 2 + 3
    assert len(set(pts)) == len(pts)
    assert all(-1 <= p <= 1 for p in pts)
