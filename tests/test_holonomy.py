import dataclasses
import functools
import inspect
import random
import time
import tracemalloc
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st
from oracles import fraction_plhomeo

from tautcalc import holonomy
from tautcalc.exact import frac, frac_pair
from tautcalc.holonomy import (
    EXPRESSIONS,
    MAX_BREAKPOINTS,
    MAX_ENTRY_BITS,
    MAX_SAMPLES,
    MAX_TILES,
    Concatenation,
    PLHomeo,
    TiledHomeo,
    TileShiftMap,
    bundled_shifts,
    solve_conjugacy,
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


LENGTHS = "need matching breakpoint/value sequences of length >= 2"
BREAKPOINTS = "breakpoints must be strictly increasing"
VALUES = "values must be strictly increasing"
ENDPOINTS = "endpoints must be fixed"
DOMAIN = "must be a homeomorphism of [-1, 1]"
BITS = f"breakpoint and value parts must be at most {MAX_ENTRY_BITS} bits long"
# the first integer one bit longer than the entry cap
LONG = 2 ** MAX_ENTRY_BITS


VALIDATION_CASES = [
    # one rule broken
    ([-1, 1], [-1, 0, 1], LENGTHS),
    ([-1], [-1], LENGTHS),
    ([], [], LENGTHS),
    ([-1, 0, 0, 1], [-1, 0, Fr(1, 2), 1], BREAKPOINTS),
    ([-1, Fr(1, 2), Fr(1, 3), 1], [-1, 0, Fr(1, 2), 1], BREAKPOINTS),
    # a repeated point with a repeated value: its segment's line would be
    # reduced by gcd(0, 0, 0) = 0 were it reduced before the order rules
    ([-1, 0, 0, 1], [-1, 0, 0, 1], BREAKPOINTS),
    ([-1, 0, 1], [-1, Fr(1, 2), Fr(1, 2)], VALUES),
    ([-1, 0, 1], [-1, 0, Fr(1, 2)], ENDPOINTS),
    ([-1, 0, 1], [Fr(-1, 2), 0, 1], ENDPOINTS),
    ([0, 1], [0, 1], DOMAIN),
    ([-1, 2], [-1, 2], DOMAIN),
    ([-1, Fr(1, 10**9 + 7)], [-1, Fr(1, 10**9 + 7)], DOMAIN),
    ([-1, "x", 1], [-1, 0, 1], "not a rational 'p/q' string: 'x'"),
    ([-1, "1/0", 1], [-1, 0, 1], "not a rational 'p/q' string: '1/0'"),
    ([-1, 0, 1], [-1, "1e3", 1], "not a rational 'p/q' string: '1e3'"),
    ([-1, 0.5, 1], [-1, 0, 1], "expected an exact rational, got 0.5"),
    ([-1, True, 1], [-1, 0, 1], "expected an exact rational, got True"),
    ([-1, [0], 1], [-1, 0, 1], "expected an exact rational, got list"),
    ([-1, Fr(1, LONG), 1], [-1, 0, 1], BITS),
    ([-1, 0, 1], [-1, Fr(-1, LONG), 1], BITS),
    # two rules broken: the one listed first in the constructor wins
    ([0.0, 1.0], [0.0, 1.0], "expected an exact rational, got 0.0"),
    ([-1, "x", 1], [-1, "y", 1], "not a rational 'p/q' string: 'x'"),
    ([-1, 1], [-1, "y", 0, 1], "not a rational 'p/q' string: 'y'"),
    ([-1, "x"] + [1] * MAX_BREAKPOINTS, [-1, 1], f"a map has at most {MAX_BREAKPOINTS} breakpoints, "
                                                 f"got {MAX_BREAKPOINTS + 2}"),
    ([1, -1], [0, 1, 2], LENGTHS),
    ([1, -1], [1, 0], BREAKPOINTS),
    # values fail on an earlier segment than breakpoints, and breakpoints win
    ([-1, 0, 0, 1], [-1, -1, Fr(1, 2), 1], BREAKPOINTS),
    ([0, 1, 1], [0, Fr(1, 2), 1], BREAKPOINTS),
    ([-1, 0, 1], [-1, 1, 0], VALUES),
    ([0, 1], [1, 0], VALUES),
    ([0, 1], [0, 2], ENDPOINTS),
    ([-2, 2], [-1, 2], ENDPOINTS),
    ([-1, 1], [-1, Fr(1, LONG), 0, 1], LENGTHS),
    ([-1, 0, 0, 1], [-1, 0, Fr(1, LONG), 1], BITS),
    ([-1, LONG, 1], [-1, 0, 1], BITS),
]


def test_validation():
    for bps, vals, message in VALIDATION_CASES:
        with pytest.raises(ValueError) as exc:
            PLHomeo(bps, vals)
        assert str(exc.value) == message, (bps, vals)


def test_entry_parts_at_the_cap_are_accepted():
    # LONG - 1 has MAX_ENTRY_BITS bits, one fewer than LONG
    for make in (PLHomeo, lambda bps, vals: PLHomeo._from_pairs(list(map(frac_pair, bps)), list(map(frac_pair, vals)))):
        f = make([-1, Fr(1, LONG - 1), 1], [-1, Fr(2 - LONG, LONG - 1), 1])
        assert f.breakpoints[1] == Fr(1, LONG - 1) and f.values[1] == Fr(2 - LONG, LONG - 1)
        with pytest.raises(ValueError, match=f"^{BITS}$"):
            make([-1, Fr(1, LONG), 1], [-1, 0, 1])


def test_eval_interpolates():
    f = PLHomeo([-1, 0, 1], [-1, Fr(1, 2), 1])
    assert f.eval(-1) == -1
    assert f.eval(0) == Fr(1, 2)
    assert f.eval(Fr(-1, 2)) == Fr(-1, 4)
    assert f.eval(Fr(1, 2)) == Fr(3, 4)
    with pytest.raises(ValueError):
        f.eval(2)


def test_frac_passes_fractions_through():
    q = Fr(-3, 7)
    assert frac(q) is q
    assert frac(2) == Fr(2) and frac("1/3") == Fr(1, 3)
    with pytest.raises(ValueError):
        frac(0.5)


def test_collinear_breakpoints_normalized():
    f = PLHomeo([-1, 0, 1], [-1, 0, 1])
    assert f == PLHomeo.identity()
    assert f.breakpoints == (Fr(-1), Fr(1))


def test_value_semantics():
    # equal maps from any constructor are equal with equal hashes, a
    # collinear breakpoint included; no field or other name can be set
    f = PLHomeo([-1, 0, 1], [-1, Fr(1, 2), 1])
    for g in (PLHomeo._from_pairs([(-1, 1), (0, 1), (1, 1)], [(-1, 1), (1, 2), (1, 1)]),
              PLHomeo([-1, Fr(-1, 2), 0, 1], [-1, Fr(-1, 4), Fr(1, 2), 1]),
              f.inverse().inverse()):
        assert g == f and hash(g) == hash(f)
    assert PLHomeo.identity() == PLHomeo([-1, 1], [-1, 1])
    assert hash(PLHomeo.identity()) == hash(PLHomeo([-1, 1], [-1, 1]))
    assert f != PLHomeo.identity() and f != f.inverse()
    assert (f == object()) is False
    for name in ("_cuts", "_cut_values", "_segments", "breakpoints", "values", "extra"):
        with pytest.raises(AttributeError):
            setattr(f, name, ())
    assert repr(f) == "PLHomeo(-1->-1, 0->1/2, 1->1)"


def test_composite_maps_hold_only_their_defining_fields():
    # the chart constants and the piece count are derived where each kernel
    # is built, so neither type stores a second copy of its fields
    assert [f.name for f in dataclasses.fields(TileShiftMap)] == ["middle_index", "piece_count"]
    assert [f.name for f in dataclasses.fields(Concatenation)] == ["pieces"]
    assert repr(TileShiftMap(1, 3)) == "TileShiftMap(middle_index=1, piece_count=3)"
    u, v = bundled_shifts()
    for make in (lambda: TileShiftMap(1, 3), lambda: Concatenation((u, v.inverse()))):
        first, second = make(), make()
        assert first is not second and first == second and hash(first) == hash(second)


PRIMES = (2, 3, 7, 97, 10_007, 65_537, 998_244_353, 999_999_937, 1_000_000_007)


def corners(rng, count):
    """`count` distinct sorted rationals in (-1, 1) over denominators drawn
    from PRIMES, 12 and 10**9."""
    out = set()
    while len(out) < count:
        p = rng.choice(PRIMES + (12, 10**9))
        out.add(Fr(rng.randrange(1 - p, p), p))
    return sorted(out)


def with_collinear_points(xs, ys, rng, share):
    """The breakpoints and values of the PL map through the corners (xs, ys),
    with one to four collinear points inserted in about `share` of its
    segments."""
    bps, vals = xs[:1], ys[:1]
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        if rng.random() < share:
            m = rng.choice((2, 3, 5, 101, 10**9 + 7))
            for j in sorted(rng.sample(range(1, m), min(m - 1, rng.randint(1, 4)))):
                bps.append(x0 + (x1 - x0) * j / m)
                vals.append(y0 + (y1 - y0) * j / m)
        bps.append(x1)
        vals.append(y1)
    return bps, vals


def seeded_map_data(rng):
    """Breakpoints and values of a random PL map of [-1, 1], given as
    Fractions, ints or 'p/q' strings."""
    k = rng.randint(0, 12)
    xs, ys = [Fr(-1), *corners(rng, k), Fr(1)], [Fr(-1), *corners(rng, k), Fr(1)]
    bps, vals = with_collinear_points(xs, ys, rng, rng.choice((0, 0.3, 1)))
    form = rng.choice((lambda q: q, str, lambda q: int(q) if q.denominator == 1 else q))
    return list(map(form, bps)), list(map(form, vals))


def largest_map_data(rng):
    """Two maps of MAX_BREAKPOINTS breakpoints: coprime corners, and 2047
    corners with a collinear point in all segments but one."""
    full = [Fr(-1), *corners(rng, MAX_BREAKPOINTS - 2), Fr(1)]
    yield full, [Fr(-1), *corners(rng, MAX_BREAKPOINTS - 2), Fr(1)]
    half = MAX_BREAKPOINTS // 2
    xs, ys = [Fr(-1), *corners(rng, half - 1), Fr(1)], [Fr(-1), *corners(rng, half - 1), Fr(1)]
    bps, vals = xs[:1], ys[:1]
    for i, (x0, x1, y0, y1) in enumerate(zip(xs, xs[1:], ys, ys[1:])):
        if i:
            bps.append((x0 + x1) / 2)
            vals.append((y0 + y1) / 2)
        bps.append(x1)
        vals.append(y1)
    assert len(bps) == MAX_BREAKPOINTS
    yield bps, vals


def fields(f):
    return f.breakpoints, f.values, f._cuts, f._segments


def test_integer_setup_matches_fraction_construction():
    rng = random.Random(2201)
    maps = [seeded_map_data(rng) for _ in range(1500)]
    maps += largest_map_data(rng)
    maps.append(([-1, Fr(-1, 2), 0, 1], [-1, Fr(-1, 2), 0, 1]))  # the identity
    dropped = 0
    for bps, vals in maps:
        f = PLHomeo(bps, vals)
        assert fields(f) == fraction_plhomeo(bps, vals), (bps, vals)
        assert all(type(q) is Fr for q in f.breakpoints + f.values)
        dropped += len(bps) - len(f.breakpoints)
    assert dropped > 1000


def test_pairs_setup_matches_constructor():
    # _from_pairs takes the pairs exact.frac_pair returns and builds the map
    # the constructor builds; identity() is built directly, with the same data
    rng = random.Random(2205)
    for bps, vals in [seeded_map_data(rng) for _ in range(200)]:
        f = PLHomeo(bps, vals)
        g = PLHomeo._from_pairs(list(map(frac_pair, bps)), list(map(frac_pair, vals)))
        assert fields(g) == fields(f) and g == f and hash(g) == hash(f)
        assert f.breakpoint_pairs == tuple((q.numerator, q.denominator) for q in f.breakpoints)
        assert f.value_pairs == tuple((q.numerator, q.denominator) for q in f.values)
    assert fields(PLHomeo.identity()) == fields(PLHomeo([-1, 1], [-1, 1]))
    longer = [(-1, 1)] * (MAX_BREAKPOINTS + 1)
    with pytest.raises(ValueError) as exc:
        PLHomeo._from_pairs(longer, longer)
    assert str(exc.value) == f"a map has at most {MAX_BREAKPOINTS} breakpoints, got {MAX_BREAKPOINTS + 1}"


def test_inverse_matches_constructor():
    rng = random.Random(2202)
    maps = [seeded_map_data(rng) for _ in range(300)] + list(largest_map_data(rng))
    for bps, vals in maps:
        f = PLHomeo(bps, vals)
        inv = f.inverse()
        assert fields(inv) == fields(PLHomeo(f.values, f.breakpoints))
        assert fields(inv.inverse()) == fields(f)
        assert inv.inverse() == f and hash(inv.inverse()) == hash(f)


def test_inverse_reuses_stored_data(monkeypatch):
    rng = random.Random(2203)
    maps = [PLHomeo(*seeded_map_data(rng)) for _ in range(50)]
    expected = [fields(PLHomeo(f.values, f.breakpoints)) for f in maps]

    def refuse(*args):
        raise AssertionError("inverse parsed or validated again")

    monkeypatch.setattr(holonomy, "frac_pair", refuse)
    monkeypatch.setattr(PLHomeo, "__init__", refuse)
    for f, want in zip(maps, expected):
        assert fields(f.inverse()) == want
        assert type(f.inverse()) is PLHomeo


def test_setup_does_no_fraction_arithmetic(monkeypatch):
    rng = random.Random(2204)
    maps = [seeded_map_data(rng) for _ in range(50)]
    inputs = [([Fr(q) for q in bps], [Fr(q) for q in vals]) for bps, vals in maps]
    expected = [fraction_plhomeo(bps, vals) for bps, vals in inputs]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in PLHomeo set-up")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
                 "__rtruediv__", "__floordiv__", "__mod__", "__neg__", "__abs__", "__lt__", "__le__",
                 "__gt__", "__ge__"):
        monkeypatch.setattr(Fr, name, refuse)
    for (bps, vals), want in zip(inputs, expected):
        f = PLHomeo(bps, vals)
        assert fields(f) == want
        assert fields(f.inverse().inverse()) == want


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
    xs = sorted(ref_samples(10, 5))
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
    # reversing the side (u, u^-1) inverts the map on every tile
    assert t.negative[::-1] == tuple(m.inverse() for m in t.negative) == (u.inverse(), u)


def test_tiled_inverse():
    # with each side (m, m^-1) or (identity,), reversing the sides inverts t
    u, v = bundled_shifts()
    ident = PLHomeo.identity()
    for neg, pos in (((u, u.inverse()), (v, v.inverse())), ((u, u.inverse()), (ident,)),
                     ((ident,), (v, v.inverse()))):
        t = TiledHomeo(neg, pos)
        ti = TiledHomeo(neg[::-1], pos[::-1])
        for q in ref_samples(6, 3) + [Fr(-1, n) for n in range(1, 9)] + [Fr(1, n) for n in range(1, 9)]:
            assert ti.eval(t.eval(q)) == q
            assert t.eval(ti.eval(q)) == q


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
        assert witness.check.passed, case
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


def test_each_map_inverted_once(monkeypatch):
    # t^-1 reuses the maps t holds, so only the maps that t enters inverted
    # with are inverted, once each
    calls = []
    invert = PLHomeo.inverse
    monkeypatch.setattr(PLHomeo, "inverse", lambda self: calls.append(self) or invert(self))
    u, v = bundled_shifts()
    expected = {"a": [u, v], "b": [], "c": [], "d": [], "e": [u], "f": [v]}
    for case in EXPRESSIONS:
        calls.clear()
        _, witness = solve_conjugacy(u, v, case, 8, 64)
        assert witness.check.passed, case
        assert calls == expected[case], (case, len(calls))


def test_identity_degenerate_case():
    ident = PLHomeo.identity()
    tiled, witness = solve_conjugacy(ident, ident, "a")
    assert witness.check.passed
    for q in ref_samples(9, 4):
        assert tiled.eval(q) == q


def test_case_c_with_identity_u():
    _, v = bundled_shifts()
    tiled, witness = solve_conjugacy(PLHomeo.identity(), v, "c")
    assert witness.check.passed
    for q in ref_samples(6, 3):
        assert tiled.eval(q) == q


def test_random_maps_verify():
    rng = random.Random(79)
    for case in "abcdef":
        u = random_plhomeo(rng)
        v = random_plhomeo(rng)
        _, witness = solve_conjugacy(u, v, case, tiles_per_side=5, samples=20)
        assert witness.check.passed, case


def test_invalid_case_rejected():
    u, v = bundled_shifts()
    for case in ("g", "ab", "", "cde"):
        with pytest.raises(ValueError):
            solve_conjugacy(u, v, case)


def test_domain_must_be_standard():
    # the map itself is refused, before any conjugacy is set up
    with pytest.raises(ValueError) as exc:
        PLHomeo([0, Fr(1, 2), 1], [0, Fr(3, 4), 1])
    assert str(exc.value) == "must be a homeomorphism of [-1, 1]"
    with pytest.raises(ValueError, match=r"must be a homeomorphism of \[-1, 1\]"):
        PLHomeo([-2, 1], [-2, 1])


def test_sample_layout_owned_by_solve():
    u, v = bundled_shifts()
    for tiles, samples, count in ((8, 64, 67), (3, 4, 9), (5, 21, 33), (1, 1, 5)):
        _, witness = solve_conjugacy(u, v, "c", tiles, samples)
        per_tile = (count - 3) // (2 * tiles)
        points = ref_samples(tiles, per_tile)
        # the stored columns are the reduced points, and `checks` is their view
        assert list(zip(witness.numerators, witness.denominators)) == [(q.numerator, q.denominator) for q in points]
        assert [c.point for c in witness.checks] == points
        assert [c.passed for c in witness.checks] == list(witness.verdicts)
        assert len(witness.checks) == len(witness.verdicts) == count >= samples


# (tiles, samples) with 3, 4, 20 and 1 points per tile: each chart point
# comes back in every one of 5, 32 or 8 tiles per side, or in one tile only
LAYOUTS = ((5, 30), (32, 256), (1, 40), (8, 16))

# the chart points of those layouts, -1 + 2j/(per_tile + 1)
SAMPLE_GRID = sorted({Fr(2 * j, p + 1) - 1 for p in (3, 4, 20, 1) for j in range(1, p + 1)})


def grid_plhomeo(rng, breaks):
    """A PL map with `breaks` interior breakpoints, each breakpoint and each
    value on SAMPLE_GRID, so the segment search of the map and of its inverse
    meets chart points equal to a breakpoint."""
    xs, ys = sorted(rng.sample(SAMPLE_GRID, breaks)), sorted(rng.sample(SAMPLE_GRID, breaks))
    return PLHomeo([-1, *xs, 1], [-1, *ys, 1])


@pytest.mark.parametrize("case", list(EXPRESSIONS))
@pytest.mark.parametrize("shift", [0, 1])
def test_verdicts_match_reference(monkeypatch, case, shift):
    # with the conjugator's middle piece moved by one, most cases get False
    # verdicts; each must still be the reference's verdict at its point, for
    # seeded maps and for maps with breakpoints on the chart points
    rng = random.Random(1100 + list(EXPRESSIONS).index(case))
    for maps, tiled, h, expr in (construction(case), build(case, grid_plhomeo(rng, 6), grid_plhomeo(rng, 9))):
        h = TileShiftMap((h.middle_index + shift) % h.piece_count, h.piece_count)
        monkeypatch.setattr(holonomy, "TileShiftMap", lambda m, k, h=h: h)
        for tiles, samples in LAYOUTS:
            _, witness = solve_conjugacy(maps[0], maps[1], case, tiles, samples)
            expected = [
                ref_eval(h, ref_eval(tiled, q)) == ref_eval(expr, ref_eval(h, q))
                for q in ref_samples(tiles, -(-samples // (2 * tiles)))
            ]
            assert list(witness.verdicts) == expected, (tiles, samples)
            assert all(expected) or shift


# from one point per side to the largest layout; (8, 16) puts one point in
# each tile
SOLVE_LAYOUTS = ((1, 1), (3, 4), (8, 16), (8, 64), (256, 4096), (MAX_TILES - 1, MAX_SAMPLES))


def capture_solve_maps(monkeypatch, move=0):
    """A dict holding the h and the concatenation that the latest solve from
    now on built, with h's middle piece moved by `move`."""
    latest = {}
    shift, concatenation = TileShiftMap, Concatenation

    def tile_shift(m, k):
        latest["h"] = shift((m + move) % k, k)
        return latest["h"]

    def concatenate(pieces):
        latest["expr"] = concatenation(pieces)
        return latest["expr"]

    monkeypatch.setattr(holonomy, "TileShiftMap", tile_shift)
    monkeypatch.setattr(holonomy, "Concatenation", concatenate)
    return latest


def per_point_verdicts(tiled, h, expr, witness):
    """Each verdict of witness, decided by the per-point kernels of the maps
    the solve built: h(t(x)) against expr(h(x)), one kernel per map."""
    kernels = {}
    t_at, h_at, expr_at = tiled._kernel(kernels), h._kernel(kernels), expr._kernel(kernels)
    verdicts = []
    for a, d in zip(witness.numerators, witness.denominators):
        la, ld = h_at(*t_at(a, d))
        ra, rd = expr_at(*h_at(a, d))
        verdicts.append(la * rd == ra * ld)
    return verdicts


@pytest.mark.parametrize("variant, largest", [("kernels", "ab"), ("faulty kernel", "cd"), ("moved middle piece", "ef")])
def test_solve_verdicts_are_the_per_point_kernels(monkeypatch, variant, largest):
    # the tile walk binds each tile's steps once and falls back to the
    # per-point kernels wherever their own dispatch would go elsewhere, so
    # each verdict is theirs: for sound maps, under a `PLHomeo` kernel fault
    # that moves values out of their tiles, and with h's middle piece moved
    # onto an end piece.  The two largest layouts take one map pair per case,
    # and the largest only the cases `largest`, to bound the run time
    if variant == "faulty kernel":
        monkeypatch.setattr(PLHomeo, "_kernel", faulty_kernel)
    latest = capture_solve_maps(monkeypatch, move=int(variant == "moved middle piece"))
    rng = random.Random(5901)
    ident = PLHomeo.identity()
    falses = 0
    for case_index, case in enumerate(EXPRESSIONS):
        pairs = [construction(case)[0][:2], (grid_plhomeo(rng, 6), grid_plhomeo(rng, 9)), bundled_shifts(),
                 (ident, ident)]
        for tiles, samples in SOLVE_LAYOUTS:
            if tiles == MAX_TILES - 1 and case not in largest:
                continue
            for u, v in pairs if tiles < 256 else pairs[case_index % 4:][:1]:
                tiled, witness = solve_conjugacy(u, v, case, tiles, samples)
                expected = per_point_verdicts(tiled, latest["h"], latest["expr"], witness)
                assert list(witness.verdicts) == expected, (case, tiles)
                falses += witness.verdicts.count(False)
    # sound maps pass everywhere; the fault and the moved piece fail somewhere
    assert (falses == 0) == (variant == "kernels"), falses


def test_tile_walk_leaves_the_kernels_only_the_ends_and_end_pieces(monkeypatch):
    # for sound maps every guard of the tile walk holds, so h's kernel runs
    # only at the ends and the centre, and the concatenation's there and on
    # tile 1 of each side with an end piece, which h sends out of the middle
    calls = []

    def counting(kernel):
        def build(self, kernels):
            at = kernel(self, kernels)
            return lambda a, d: calls.append(type(self)) or at(a, d)
        return build

    for cls in (TileShiftMap, Concatenation):
        monkeypatch.setattr(cls, "_kernel", counting(cls._kernel))
    u, v = bundled_shifts()
    for case in EXPRESSIONS:
        end_pieces = len(EXPRESSIONS[case].split()) - 1
        for tiles, samples in ((1, 1), (3, 4), (8, 64)):
            calls.clear()
            _, witness = solve_conjugacy(u, v, case, tiles, samples)
            per_tile = -(-samples // (2 * tiles))
            assert witness.check.passed
            assert calls.count(TileShiftMap) == 6, (case, tiles)
            assert calls.count(Concatenation) == 3 + per_tile * end_pieces, (case, tiles)


@pytest.mark.parametrize("case", list(EXPRESSIONS))
def test_tile_rules_match_the_kernels(case):
    # the rules the tile walk binds per tile, and that each `_kernel` reads:
    # t's map and chart on tile n, and h's form there with the tile of the
    # middle piece it lands in, agree with each map's kernel and with the
    # Fraction reference at every chart point of tiles 1..8 on both sides,
    # at two scales of the point
    maps, tiled, h, expr = construction(case)
    middle = expr.pieces[h.middle_index]
    kernels = {}
    forms = h._forms()
    for f in {id(f): f for f in (tiled, middle)}.values():
        tile, at = f._tiles(kernels), f._kernel(kernels)
        for side in (-1, 1):
            for n in range(1, 9):
                g, k, m = tile(side, n)
                lo, hi = ref_tile(side, n)
                for q in (ref_chart_out(y, lo, hi) for y in SAMPLE_GRID):
                    for s in (1, 10**20 + 1):
                        a, d = q.numerator * s, q.denominator * s
                        ya, yd = g(k * a - m * d, d)
                        assert Fr(m * yd + ya, k * yd) == Fr(*at(a, d)) == ref_eval(f, q), (side, n, q)
    h_at = h._kernel(kernels)
    for side in (-1, 1):
        end = h.end_piece(side)
        for n in range(1, 9):
            alpha, beta, gamma, target = forms(side, n)
            lo, hi = ref_tile(side, n)
            for q in (ref_chart_out(y, lo, hi) for y in SAMPLE_GRID):
                for s in (1, 10**20 + 1):
                    a, d = q.numerator * s, q.denominator * s
                    y = Fr(alpha * d + beta * a, gamma * d)
                    assert y == Fr(*h_at(a, d)) == ref_eval(h, q), (side, n, q)
                    if target:
                        # in tile `target` of the middle piece's chart on this side
                        inner = 2 * y - (2 * h.middle_index + 1)
                        assert int(y) == h.middle_index and ref_tile_index(inner) == (side, target)
                    else:
                        assert end is not None and n == 1 and int(y) == end
            assert (target == 0) == (n == 1 and end is not None)
    # the point 0 goes to the chart image of 0 in the middle piece
    assert forms(-1, 0) == forms(1, 0) == (2 * h.middle_index + 1, 1, 2, 0)


def memo_of(kernel):
    """The memo a `PLHomeo` kernel owns, or None for one that holds none."""
    return inspect.getclosurevars(kernel).nonlocals.get("memo")


def spy_on_plhomeo_kernels(monkeypatch):
    """A list that each `PLHomeo` kernel built from now on joins, as (map,
    kernel, memo); holding each keeps its ids from being reused."""
    built = []
    kernel = PLHomeo._kernel

    def spy(self, kernels):
        new = id(self) not in kernels
        at = kernel(self, kernels)
        if new:
            memo = memo_of(at)
            assert not memo  # None, or a new empty dict
            built.append((self, at, memo))
        return at

    monkeypatch.setattr(PLHomeo, "_kernel", spy)
    return built


def test_memo_scoped_to_one_solve(monkeypatch):
    # a solve reuses only values it found itself: each of its memos is new
    # and empty, no other solve sees it, it holds exact integer pairs, one
    # per distinct chart point, and the identity's kernel holds none; the
    # tiled map it returns still evaluates as the reference does after the
    # solve
    built = spy_on_plhomeo_kernels(monkeypatch)
    rng = random.Random(2701)
    fresh = [Fr(j, 211) for j in range(-211, 212, 5)]
    for case in EXPRESSIONS:
        u, v = grid_plhomeo(rng, 6), grid_plhomeo(rng, 9)
        maps, ref_tiled, _, _ = build(case, u, v)
        for tiles, samples in LAYOUTS:
            count = len(built)
            tiled, witness = solve_conjugacy(u, v, case, tiles, samples)
            assert witness.check.passed, (case, tiles)
            mine = built[count:]
            # one kernel per map, each built in this solve
            assert mine and len({id(f) for f, _, _ in mine}) == len(mine)
            assert {id(at) for _, at, _ in mine}.isdisjoint(id(at) for _, at, _ in built[:count])
            per_tile = -(-samples // (2 * tiles))
            points = {(-1, 1), (1, 1)} | {(q.numerator, q.denominator) for q in SAMPLE_GRID
                                          if (q * (per_tile + 1)).denominator == 1}
            for f, at, memo in mine:
                if not f._cuts:
                    assert memo is None, f
                    continue
                assert not any(memo is other for _, _, other in built[:count])
                assert all(type(x) is int for key, y in memo.items() for x in key + y)
                assert set(memo) <= points
            assert tiled == ref_tiled
            assert [tiled.eval(q) for q in fresh] == [ref_eval(ref_tiled, q) for q in fresh]
        # each memo was empty when its kernel was built: a later eval of the
        # same map builds a new kernel whose memo starts empty
        count = len(built)
        u.eval(Fr(1, 3))
        assert len(built) == count + 1 and list(built[-1][2]) == [(1, 3)]


@pytest.mark.parametrize(
    "tiles, samples, message",
    [
        (0, 64, "need at least one tile and one point per tile"),
        (-1, 64, "need at least one tile and one point per tile"),
        (8, 0, "need at least one tile and one point per tile"),
        (MAX_TILES + 1, 64, f"tiles must be at most {MAX_TILES}"),
        (8, MAX_SAMPLES + 1, f"samples must be at most {MAX_SAMPLES}"),
    ],
)
def test_sample_layout_bounds(tiles, samples, message):
    u, v = bundled_shifts()
    with pytest.raises(ValueError) as exc:
        solve_conjugacy(u, v, "a", tiles, samples)
    assert str(exc.value) == message


def test_witness_samples_spread():
    # the default layout: 8 tiles per side, 4 points in each
    u, v = bundled_shifts()
    _, witness = solve_conjugacy(u, v, "a")
    pts = list(map(Fr, witness.numerators, witness.denominators))
    assert witness.tiles_per_side == 8 and len(pts) == 8 * 4 * 2 + 3
    assert len(set(pts)) == len(pts)
    assert all(-1 <= p <= 1 for p in pts)


# -- closed-form charts against the Fraction reference ----------------------------------
# The tile bounds, Fraction charts, two-point interpolation and lo + t(hi - lo)
# sample points that the closed forms replace, kept as their oracle.


def ref_tile(side, n):
    if side < 0:
        return (-Fr(1, n), -Fr(1, n + 1))
    return (Fr(1, n + 1), Fr(1, n))


def ref_tile_index(q):
    return (-1 if q < 0 else 1), int(1 / abs(Fr(q)))


def ref_chart_in(q, lo, hi):
    return (2 * q - (lo + hi)) / (hi - lo)


def ref_chart_out(y, lo, hi):
    return (lo + hi + y * (hi - lo)) / 2


def ref_eval(f, q):
    """f(q) by the reference formulas, recursively through every piece."""
    q = Fr(q)
    if isinstance(f, PLHomeo):
        bps, vals = f.breakpoints, f.values
        if not bps[0] <= q <= bps[-1]:
            raise ValueError(q)
        i = max(j for j in range(len(bps) - 1) if bps[j] <= q)
        x0, x1, y0, y1 = bps[i], bps[i + 1], vals[i], vals[i + 1]
        return y0 + (q - x0) * (y1 - y0) / (x1 - x0)
    if isinstance(f, Concatenation):
        k = len(f.pieces)
        if not 0 <= q <= k:
            raise ValueError(q)
        i = min(int(q), k - 1)
        return ref_chart_out(ref_eval(f.pieces[i], ref_chart_in(q, i, i + 1)), i, i + 1)
    if not -1 <= q <= 1:
        raise ValueError(q)
    if isinstance(f, TiledHomeo):
        if q == 0:
            return Fr(0)
        side, n = ref_tile_index(q)
        lo, hi = ref_tile(side, n)
        maps = f.negative if side < 0 else f.positive
        return ref_chart_out(ref_eval(maps[(n - 1) % len(maps)], ref_chart_in(q, lo, hi)), lo, hi)
    m = f.middle_index  # TileShiftMap
    side = -1 if q < 0 else 1
    end = m + side
    if q == 0 or not 0 <= end < f.piece_count:
        return ref_chart_out(q, m, m + 1)
    _, n = ref_tile_index(q)
    lo, hi = ref_tile(side, n)
    if n == 1:
        return end + (q - lo) / (hi - lo)
    plo, phi = ref_tile(side, n - 1)
    return ref_chart_out(plo + (q - lo) * (phi - plo) / (hi - lo), m, m + 1)


def ref_samples(tiles_per_side, per_tile):
    offsets = [Fr(i + 1, per_tile + 1) for i in range(per_tile)]
    pts = [Fr(-1), Fr(0), Fr(1)]
    for n in range(1, tiles_per_side + 1):
        for side in (-1, 1):
            lo, hi = ref_tile(side, n)
            pts.extend(lo + t * (hi - lo) for t in offsets)
    return pts


@functools.cache
def construction(case):
    """Seeded u and v with the case's t, h and concatenation."""
    rng = random.Random(1000 + list(EXPRESSIONS).index(case))
    return build(case, random_plhomeo(rng, 4), random_plhomeo(rng, 4))


def build(case, u, v):
    """u, v, their inverses, and the case's t, h and concatenation, built as
    `solve_conjugacy` builds them."""
    letters = EXPRESSIONS[case].split()
    middle = "t^-1" if "t^-1" in letters else "t"
    sides = [(f, f.inverse()) if middle == "t^-1" else (f,) for f in (u, v)]
    tiled = TiledHomeo(*(s if x in letters else (PLHomeo.identity(),) for s, x in zip(sides, "uv")))
    # t^-1 inverts each tile map on its own, not by reversing t's sides
    inverted = TiledHomeo(*(tuple(m.inverse() for m in side) for side in (tiled.negative, tiled.positive)))
    inner = inverted if middle == "t^-1" else tiled
    expr = Concatenation(tuple({"u": u, "v": v}.get(x, inner) for x in letters))
    return (u, v, u.inverse(), v.inverse()), tiled, TileShiftMap(letters.index(middle), len(letters)), expr


def unit_points(maps):
    """0, +-1/n for n <= 40 and, on both sides of each of those tiles, the
    chart images of every breakpoint and value of the tile maps."""
    marks = sorted({x for f in maps for x in f.breakpoints + f.values})
    pts = {Fr(0)}
    for n in range(1, 41):
        for side in (-1, 1):
            lo, hi = ref_tile(side, n)
            pts.update(ref_chart_out(x, lo, hi) for x in marks)
            pts.add(Fr(side, n))
    return sorted(pts)


@pytest.mark.parametrize("case", list(EXPRESSIONS))
def test_evaluation_matches_reference(case):
    maps, tiled, h, expr = construction(case)
    for f in maps:
        for q in unit_points([f])[::7] + sorted(set(f.breakpoints + f.values)):
            assert f.eval(q) == ref_eval(f, q), (f, q)
    for q in unit_points(maps):
        assert tiled.eval(q) == ref_eval(tiled, q), q
        assert h.eval(q) == ref_eval(h, q), q
        x = ref_eval(h, q)
        assert expr.eval(x) == ref_eval(expr, x), x
    k = len(expr.pieces)
    for q in [Fr(i, 4) for i in range(4 * k + 1)]:
        assert expr.eval(q) == ref_eval(expr, q), q


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    st.sampled_from(list(EXPRESSIONS)),
    st.fractions(min_value=-1, max_value=1, max_denominator=10**12),
)
def test_evaluation_matches_reference_at_rationals(case, q):
    maps, tiled, h, expr = construction(case)
    for f in maps:
        assert f.eval(q) == ref_eval(f, q)
    assert tiled.eval(q) == ref_eval(tiled, q)
    assert h.eval(q) == ref_eval(h, q)
    assert expr.eval(h.eval(q)) == ref_eval(expr, ref_eval(h, q))


def test_witness_samples_match_reference():
    u, v = bundled_shifts()
    for tiles in (1, 2, 7, 40):
        for per_tile in (1, 2, 5, 8):
            _, witness = solve_conjugacy(u, v, "a", tiles, 2 * tiles * per_tile)
            points = ref_samples(tiles, per_tile)
            assert list(zip(witness.numerators, witness.denominators)) == [(q.numerator, q.denominator) for q in points]


def test_empty_sides_and_concatenations_refused():
    # an empty tuple would end in an IndexError at the first eval
    u, v = bundled_shifts()
    with pytest.raises(ValueError, match=r"^each side needs one or more maps of \[-1, 1\]$"):
        TiledHomeo((), (v,))
    with pytest.raises(ValueError, match="^a concatenation needs one or more pieces$"):
        Concatenation(())
    one = Concatenation((u,))
    assert one.eval(Fr(1, 3)) == ref_eval(one, Fr(1, 3))


def test_unit_maps_take_endpoints_and_reject_beyond():
    u, v = bundled_shifts()
    past = Fr(10**30 + 1, 10**30)
    for f in (TiledHomeo((u, u.inverse()), (v,)), TileShiftMap(1, 3), TileShiftMap(0, 2)):
        assert f.eval(-1) == ref_eval(f, -1) and f.eval(1) == ref_eval(f, 1)
        for q in (past, -past):
            with pytest.raises(ValueError):
                f.eval(q)


@pytest.mark.parametrize(
    "f, q, message",
    [
        (PLHomeo.identity(), Fr(3, 2), "3/2 outside [-1, 1]"),
        (bundled_shifts()[0], "-6/4", "-3/2 outside [-1, 1]"),
        (bundled_shifts()[1].inverse(), 2, "2 outside [-1, 1]"),
        (TiledHomeo((PLHomeo.identity(),), (PLHomeo.identity(),)), "-1.25", "-5/4 outside [-1, 1]"),
        (TiledHomeo((PLHomeo.identity(),), (PLHomeo.identity(),)), Fr(10**30 + 1, 10**30), f"{10**30 + 1}/{10**30} outside [-1, 1]"),
        (TileShiftMap(1, 3), -2, "-2 outside [-1, 1]"),
        (TileShiftMap(0, 2), Fr(9, 8), "9/8 outside [-1, 1]"),
        (TileShiftMap(0, 1), Fr(-9, 8), "-9/8 outside [-1, 1]"),
        (Concatenation((PLHomeo.identity(),) * 2), Fr(-1, 7), "-1/7 outside [0, 2]"),
        (Concatenation((PLHomeo.identity(),) * 3), "10/3", "10/3 outside [0, 3]"),
    ],
)
def test_eval_refuses_points_past_domain(f, q, message):
    # each map's public eval names the point, in lowest terms, and the domain
    with pytest.raises(ValueError) as exc:
        f.eval(q)
    assert str(exc.value) == message


# -- the integer-pair kernels -------------------------------------------------------------


def test_verdicts_fail_with_a_wrong_conjugator(monkeypatch):
    # h with the middle index moved by one is not a conjugacy for the bundled
    # shifts, so some sample must come out False in every case; for identity
    # maps every h conjugates t = id to expr = id, so all samples still pass
    shift = TileShiftMap
    monkeypatch.setattr(holonomy, "TileShiftMap", lambda m, k: shift((m + 1) % k, k))
    u, v = bundled_shifts()
    ident = PLHomeo.identity()
    for case in EXPRESSIONS:
        _, witness = solve_conjugacy(u, v, case)
        assert not all(c.passed for c in witness.checks), case
        _, witness = solve_conjugacy(ident, ident, case)
        assert witness.check.passed, case


@pytest.mark.parametrize("case", list(EXPRESSIONS))
def test_eval_pair_is_scale_invariant(case):
    maps, tiled, h, expr = construction(case)
    unit = unit_points(maps) + [Fr(-1), Fr(1)]
    k = len(expr.pieces)
    domain = [Fr(i, 4) for i in range(4 * k + 1)] + [ref_eval(h, q) for q in unit]
    for f, points in [(f, unit) for f in maps + (tiled, h)] + [(expr, domain)]:
        # one kernel per map over all scales, so each scale after the first
        # may read a value its memo stored
        at = f._kernel({})
        for q in points:
            a, d = q.numerator, q.denominator
            y = f.eval(q)
            for s in (2, 3, 77, 10**20 + 1):
                ya, yd = at(a * s, d * s)
                assert yd > 0 and Fr(ya, yd) == y, (f, q, s)


def test_one_segment_kernel_is_exact():
    # a map with no interior breakpoint is the identity; its kernel applies
    # the one segment y = x to the pair as given, with no gcd and no memo
    maps = [PLHomeo.identity(), PLHomeo._from_pairs([(-1, 1), (1, 1)], [(-1, 1), (1, 1)]),
            PLHomeo([-1, 0, 1], [-1, 0, 1])]
    for f in maps:
        assert f == maps[0] and f._cuts == ()
        at = f._kernel({})
        assert memo_of(at) is None
        for q in (Fr(-1), Fr(0), Fr(1), Fr(-1, 3), Fr(5, 7)):
            assert f.eval(q) == q
            a, d = q.numerator, q.denominator
            for s in (1, 2, 3, 77, 10**20 + 1):
                assert at(a * s, d * s) == (a * s, d * s)


@pytest.mark.parametrize("case", "cdef")
def test_absent_side_leaves_no_memo_entry(monkeypatch, case):
    # cases c to f leave one side's map out of the expression, so t holds
    # the identity there; a solve evaluates it at every sample on that side
    # and stores nothing for it
    built = spy_on_plhomeo_kernels(monkeypatch)
    u, v = bundled_shifts()
    _, witness = solve_conjugacy(u, v, case, 8, 64)
    assert witness.check.passed
    identities = [(f, memo) for f, _, memo in built if not f._cuts]
    assert len(identities) == 1 and identities[0][1] is None
    # 8 tiles and 64 samples put 4 points in each tile: at most those 4
    # chart points and the ends +-1 per memo
    memos = [memo for f, _, memo in built if f._cuts]
    assert memos and all(0 < len(memo) <= 6 for memo in memos)


def faulty_kernel(self, kernels):
    """A `PLHomeo._kernel` with the last segment's C off by one, and no memo."""
    *rest, (A, C, D) = self._segments
    segments, cuts = [*rest, (A, C + 1, D)], self._cuts

    def at(a, d):
        A, C, D = segments[sum(a * bd >= bn * d for bn, bd in cuts)]
        return A * a + C * d, D * d

    return at


def test_eval_and_solve_run_one_kernel(monkeypatch):
    # a fault in the `PLHomeo` kernel shows both in `eval` and in a solve:
    # there is no second evaluation path for either to take.  The identity
    # h(t(x)) = expr(h(x)) holds at the samples for any tile maps that send
    # [-1, 1] into itself, so the fault moves the value at 1 past 1
    u, v = bundled_shifts()
    q = Fr(1, 2)
    assert u.eval(q) == ref_eval(u, q)
    assert all(all(solve_conjugacy(u, v, case)[1].verdicts) for case in EXPRESSIONS)

    monkeypatch.setattr(PLHomeo, "_kernel", faulty_kernel)
    assert u.eval(q) != ref_eval(u, q)
    for case in EXPRESSIONS:
        assert not all(solve_conjugacy(u, v, case)[1].verdicts), case


def primes_from(lo, count):
    sieve = bytearray([1]) * (lo + 20 * count)
    for p in range(2, int(len(sieve) ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [p for p in range(lo, len(sieve)) if sieve[p]][:count]


def test_many_coprime_breakpoints_stay_cheap():
    # breakpoints and values with 2 * 2000 distinct prime denominators: a
    # common denominator over the whole map would have about 4000 prime
    # factors, so the pieces are stored and evaluated one segment at a time
    count = 2000
    primes = primes_from(10_000, 2 * count)
    marks = [Fr(2 * (i + 1), count + 1) - 1 for i in range(count)]
    xs = [Fr(round(c * p), p) for c, p in zip(marks, primes[:count])]
    ys = [Fr(round(c * p), p) for c, p in zip(marks, primes[count:])]
    points = [Fr(j, 401) - Fr(j % 7, 4999) for j in range(-400, 401, 3)]
    tracemalloc.start()
    start = time.perf_counter()
    try:
        f = PLHomeo([-1] + xs + [1], [-1] + ys + [1])
        images = [f.eval(q) for q in points]
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(f.breakpoints) == count + 2
    assert {b.denominator for b in f.breakpoints[1:-1]} == set(primes[:count])
    assert peak < 4_000_000
    assert elapsed < 2.0
    for q, y in list(zip(points, images))[::20]:
        assert y == ref_eval(f, q)


def test_breakpoint_count_capped():
    grid = [Fr(2 * i, MAX_BREAKPOINTS - 1) - 1 for i in range(MAX_BREAKPOINTS)]
    f = PLHomeo(grid, grid[:1] + [(x + 1) / 2 for x in grid[1:-1]] + grid[-1:])
    assert len(f.breakpoints) == 3  # collinear runs collapse
    message = f"a map has at most {MAX_BREAKPOINTS} breakpoints, got {MAX_BREAKPOINTS + 1}"
    longer = grid + [Fr(2)]
    for bps, vals in ((longer, grid), (grid, longer)):
        with pytest.raises(ValueError) as exc:
            PLHomeo(bps, vals)
        assert str(exc.value) == message
