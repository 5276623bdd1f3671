import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from tautcalc.sutured import (
    MAX_SURFACE_COUNT,
    MAX_TORUS_COUNT,
    MAX_WITNESS_K,
    MAX_WITNESS_M,
    CorneredSurface,
    SuturedSolidTorus,
    Tangency,
    TangencyKind,
    core_disk,
    euler_pairing,
    is_fully_marked,
    novikov_witness,
    poincare_hopf_chi,
    sutured_chi,
)

SADDLE = TangencyKind.SADDLE
CENTER = TangencyKind.CENTER


def test_sutured_chi_examples():
    assert sutured_chi(CorneredSurface(1, 4, 0)) == -1
    assert sutured_chi(CorneredSurface(1, 6, 0)) == -2
    assert sutured_chi(CorneredSurface(-3, 0, 0)) == -3
    assert sutured_chi(CorneredSurface(0, 1, 0)) == Fraction(-1, 2)
    assert sutured_chi(CorneredSurface(0, 2, 4)) == 1


def test_sutured_chi_half_integrality():
    rng = random.Random(19)
    for _ in range(50):
        s = CorneredSurface(rng.randint(-4, 4), rng.randint(0, 9), rng.randint(0, 9))
        chi = sutured_chi(s)
        assert (2 * chi).denominator == 1
        assert (chi.denominator == 1) == ((s.convex - s.concave) % 2 == 0)


def test_sutured_chi_additive():
    rng = random.Random(43)
    for _ in range(30):
        a = CorneredSurface(rng.randint(-3, 3), rng.randint(0, 5), rng.randint(0, 5))
        b = CorneredSurface(rng.randint(-3, 3), rng.randint(0, 5), rng.randint(0, 5))
        union = CorneredSurface(a.base_chi + b.base_chi, a.convex + b.convex, a.concave + b.concave)
        assert sutured_chi(union) == sutured_chi(a) + sutured_chi(b)


def test_corner_counts_nonnegative():
    with pytest.raises(ValueError):
        CorneredSurface(1, -1, 0)


def test_core_disk_examples():
    assert sutured_chi(core_disk(SuturedSolidTorus(2))) == -1
    assert sutured_chi(core_disk(SuturedSolidTorus(3))) == -2
    assert sutured_chi(core_disk(SuturedSolidTorus(5))) == -4
    disk = core_disk(SuturedSolidTorus(3))
    assert (disk.base_chi, disk.convex, disk.concave) == (1, 6, 0)


def test_solid_torus_validation():
    with pytest.raises(ValueError):
        SuturedSolidTorus(0)
    with pytest.raises(ValueError):
        SuturedSolidTorus(3, suture_count=0)


def test_counts_capped():
    cap = MAX_SURFACE_COUNT
    assert sutured_chi(CorneredSurface(-cap, cap, cap)) == -cap
    disk = core_disk(SuturedSolidTorus(MAX_TORUS_COUNT, MAX_TORUS_COUNT))
    assert disk.convex == cap
    for args, name in (((cap + 1,), "base_chi"), ((-cap - 1,), "base_chi"), ((0, cap + 1), "convex"),
                       ((0, 0, cap + 1), "concave")):
        with pytest.raises(ValueError, match=f"{name} must be at most {cap}"):
            CorneredSurface(*args)
    for args, name in (((MAX_TORUS_COUNT + 1,), "longitude_wraps"), ((1, MAX_TORUS_COUNT + 1), "suture_count")):
        with pytest.raises(ValueError, match=f"{name} must be at most {MAX_TORUS_COUNT}"):
            SuturedSolidTorus(*args)


def test_witness_stores_one_exponent():
    w = novikov_witness(-3, 5)
    assert w.initial_exponent == w.m == 5
    assert "initial_exponent" not in {f.name for f in dataclasses.fields(w)}


def test_euler_pairing_examples():
    assert euler_pairing([]) == 0
    assert euler_pairing([Tangency(SADDLE, 1), Tangency(SADDLE, 1)]) == -2
    assert (
        euler_pairing([Tangency(SADDLE, 1), Tangency(SADDLE, -1), Tangency(CENTER, 1)]) == 1
    )


def test_poincare_hopf_examples():
    assert poincare_hopf_chi([Tangency(SADDLE, 1), Tangency(SADDLE, -1)]) == -2
    assert poincare_hopf_chi([Tangency(CENTER, 1), Tangency(SADDLE, -1)]) == 0


def test_pairing_order_invariant():
    rng = random.Random(47)
    ts = [
        Tangency(rng.choice((SADDLE, CENTER)), rng.choice((1, -1))) for _ in range(20)
    ]
    shuffled = ts[:]
    rng.shuffle(shuffled)
    assert euler_pairing(ts) == euler_pairing(shuffled)
    assert poincare_hopf_chi(ts) == poincare_hopf_chi(shuffled)


def test_parity_exhaustive_small():
    for n in range(0, 7):
        for saddles in range(n + 1):
            kinds = [SADDLE] * saddles + [CENTER] * (n - saddles)
            for signs in itertools.product((1, -1), repeat=n):
                ts = [Tangency(k, s) for k, s in zip(kinds, signs)]
                assert (euler_pairing(ts) - poincare_hopf_chi(ts)) % 2 == 0


def test_fully_marked():
    assert is_fully_marked([Tangency(SADDLE, 1)] * 3)
    assert is_fully_marked([Tangency(SADDLE, -1)] * 2)
    assert not is_fully_marked([Tangency(SADDLE, 1), Tangency(SADDLE, 1), Tangency(SADDLE, -1)])
    assert is_fully_marked([])


def test_fully_marked_iff_pairing_reaches_chi():
    rng = random.Random(53)
    for _ in range(100):
        ts = [Tangency(SADDLE, rng.choice((1, -1))) for _ in range(rng.randint(0, 8))]
        assert is_fully_marked(ts) == (abs(euler_pairing(ts)) == abs(poincare_hopf_chi(ts)))


def test_fully_marked_rejects_centers():
    with pytest.raises(ValueError):
        is_fully_marked([Tangency(CENTER, 1)])


def test_tangency_kind_validation():
    for kind in ("saddle", "center", -1, None):
        with pytest.raises(ValueError, match="^kind must be a TangencyKind$"):
            Tangency(kind, 1)


def test_tangency_sign_validation():
    for sign in (2, 0, 1.0, -1.0, True, Fraction(1), "1", None):
        with pytest.raises(ValueError, match="sign must be"):
            Tangency(SADDLE, sign)


# -- transversal witness -----------------------------------------------------------


def test_witness_k2_m3():
    w = novikov_witness(2, 3)
    assert w.initial_exponent == 3
    assert [(s.op, s.exponent_added, s.running_total) for s in w.steps] == [
        ("semigroup", 3, 6),
        ("pi1", -6, 0),
    ]
    assert w.final_exponent == 0


def test_witness_k1_m1():
    w = novikov_witness(1, 1)
    assert [(s.op, s.exponent_added, s.running_total) for s in w.steps] == [("pi1", -1, 0)]


def test_witness_negative_generator_exponent():
    w = novikov_witness(-3, 5)
    semigroup = [s for s in w.steps if s.op == "semigroup"]
    assert [s.exponent_added for s in semigroup] == [5, 5]
    assert semigroup[-1].running_total == 15
    pi1 = [s for s in w.steps if s.op == "pi1"]
    assert len(pi1) == 1 and pi1[0].exponent_added == -15
    assert pi1[0].exponent_added % w.k == 0
    assert w.final_exponent == 0


def test_witness_step_structure():
    for k in range(-6, 7):
        for m in range(-6, 7):
            if k == 0 or m == 0:
                continue
            w = novikov_witness(k, m)
            assert w.final_exponent == 0
            for s in w.steps:
                if s.op == "semigroup":
                    assert s.exponent_added == m
                else:
                    assert s.op == "pi1"
                    assert s.exponent_added % k == 0
            assert [s.op for s in w.steps].count("pi1") == 1
            assert w.steps[-1].op == "pi1"


def test_witness_rejects_zero():
    with pytest.raises(ValueError):
        novikov_witness(0, 3)
    with pytest.raises(ValueError):
        novikov_witness(2, 0)


def test_witness_k_capped():
    for k in (MAX_WITNESS_K, -MAX_WITNESS_K):
        assert len(novikov_witness(k, 1).steps) == MAX_WITNESS_K
    for k in (MAX_WITNESS_K + 1, -MAX_WITNESS_K - 1):
        with pytest.raises(ValueError, match=f"k must be at most {MAX_WITNESS_K}"):
            novikov_witness(k, 1)


def test_witness_m_capped():
    for m in (MAX_WITNESS_M, -MAX_WITNESS_M):
        w = novikov_witness(-MAX_WITNESS_K, m)
        assert w.steps[-2].running_total == MAX_WITNESS_K * m
        assert w.final_exponent == 0
    for m in (MAX_WITNESS_M + 1, -MAX_WITNESS_M - 1):
        with pytest.raises(ValueError, match=f"m must be at most {MAX_WITNESS_M}"):
            novikov_witness(1, m)
