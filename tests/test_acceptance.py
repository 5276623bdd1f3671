"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines; every check
is exact (integer or rational equality), and the stated time budgets are
asserted as well.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction as Fr

import pytest

from tautcalc import jsonio
from tautcalc.cli import main
from tautcalc.holonomy import PLHomeo, bundled_shifts, solve_conjugacy
from tautcalc.homology import (
    Family,
    TwistGenerator,
    TwistWord,
    mapping_torus,
    word_action,
)
from tautcalc.penner import chain_system
from tautcalc.polytope import (
    NormSpec,
    RatPolytope,
    candidate_points,
    dual_norm_is_one,
    norm_ball_from_values,
    polar_dual,
)
from tautcalc.sutured import (
    SuturedSolidTorus,
    Tangency,
    TangencyKind,
    core_disk,
    euler_pairing,
    novikov_witness,
    poincare_hopf_chi,
    sutured_chi,
)

from oracles import (
    apply,
    dense_class,
    gauge,
    identity,
    intersection_matrix,
    mapping_torus_dense,
    pairing_dense,
    transpose,
    transvection_matrix,
)


class Criterion:
    def __init__(self, name, budget_seconds=None):
        self.name = name
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        in_budget = self.budget is None or elapsed < self.budget
        status = "PASS" if exc_type is None and in_budget else "FAIL"
        print(f"ACCEPTANCE {status}: {self.name} ({elapsed:.3f}s)")
        if exc_type is None:
            assert in_budget, f"{self.name}: took {elapsed:.3f}s, budget {self.budget}s"
        return False


def test_extended_matrix_determinant_law():
    with Criterion("determinant of the chain-word action minus identity is genus+1, genus 2..16", 1.0):
        for genus in range(2, 17):
            system, word = chain_system(genus)
            m = word_action(word, system.generator_map())
            assert abs(m.minus_identity().det()) == genus + 1


def test_extended_mapping_torus_b2():
    tori = []
    with Criterion("mapping torus of the chain-word action has b2 = 1, genus 2..40", 1.0):
        for genus in range(2, 41):
            system, word = chain_system(genus)
            m = word_action(word, system.generator_map())
            torus = mapping_torus(m)
            assert torus[2] == 1
            tori.append((m, torus))
    # the dense oracle runs outside the budget
    for m, torus in tori:
        assert torus == mapping_torus_dense(m)


@pytest.mark.parametrize("genus", [120, 240])
def test_chain_word_determinant_time(genus):
    system, word = chain_system(genus)
    diff = word_action(word, system.generator_map()).minus_identity()
    with Criterion(f"det of the chain-word action minus identity is (-1)^g (g+1) at genus {genus}", 0.1):
        assert diff.det() == (-1) ** genus * (genus + 1)


def test_chain_pipeline_time_at_genus_240():
    with Criterion("chain system, word action, minus identity and det at genus 240", 0.1):
        system, word = chain_system(240)
        diff = word_action(word, system.generator_map()).minus_identity()
        assert diff.det() == 241


def _vmatrix_matrices_at_genus_240():
    """The two matrices of the genus-240 vmatrix report, and the same report
    with each matrix as its rows of decimal strings."""
    system, word = chain_system(240)
    m = word_action(word, system.generator_map())
    report = {"matrix": m, "matrix_minus_identity": m.minus_identity()}
    return report, {key: [list(map(str, row)) for row in x.rows] for key, x in report.items()}


def test_vmatrix_json_report_write_time_at_genus_240():
    report, dense = _vmatrix_matrices_at_genus_240()
    with Criterion("the two 480x480 matrices of the genus-240 vmatrix report written as JSON", 0.1):
        text = "".join(jsonio.json_pieces(report))
    assert text == json.dumps(dense, indent=2)


def test_vmatrix_text_report_render_time_at_genus_240():
    report, dense = _vmatrix_matrices_at_genus_240()
    with Criterion("the two 480x480 matrices of the genus-240 vmatrix report rendered as text", 0.05):
        text = "".join(jsonio.text_pieces(report))
    assert text == "".join(jsonio.text_pieces(dense))


def test_genus3_matrix_fixture():
    with Criterion("genus-3 word action sends alpha to beta, det(M - Id) = -4, no fixed class", 0.01):
        system, word = chain_system(3)
        m = word_action(word, system.generator_map())
        alpha, beta = (0, 0, 0, 1, 0, 0), (1, 0, 2, 3, 1, 0)
        assert apply(m, alpha) == beta
        assert mapping_torus(m)[1:] == (-4, 1)


def test_dual_ball_pipeline_genus3():
    with Criterion("genus-3 dual-ball pipeline: ball, dual, parity, classification", 0.1):
        spec = NormSpec.surgery_family(3)
        ball, dual, classified = candidate_points(spec, 3)
        assert set(ball.vertices) == {
            (Fr(1, 2), Fr(0)),
            (Fr(-1, 2), Fr(0)),
            (Fr(0), Fr(1, 4)),
            (Fr(0), Fr(-1, 4)),
        }
        for x, y in dual.vertices:
            assert x.denominator == 1 and y.denominator == 1
        assert gauge(dual, (0, -4)) == 1 and dual_norm_is_one(ball, [(0, -4)])
        table = {p.coords: p for p in classified}
        tip = table[(0, -4)]
        assert not tip.vertex
        assert tip.counterexample
        for x, y in dual.vertices:
            assert table[(int(x), int(y))].vertex


def test_sutured_chi_fixtures():
    with Criterion("core-disk sutured Euler characteristics for 2 and 3 wraps"):
        assert sutured_chi(core_disk(SuturedSolidTorus(2))) == -1
        assert sutured_chi(core_disk(SuturedSolidTorus(3))) == -2


def test_parity_property_exhaustive():
    with Criterion("index-sum parity matches Euler characteristic parity, exhaustive length <= 12", 5.0):
        # the two sums are order-independent, so enumerate saddle/center
        # counts with every sign pattern
        for n in range(13):
            for saddles in range(n + 1):
                kinds = [TangencyKind.SADDLE] * saddles + [TangencyKind.CENTER] * (n - saddles)
                for signs in itertools.product((1, -1), repeat=n):
                    ts = [Tangency(k, s) for k, s in zip(kinds, signs)]
                    assert (euler_pairing(ts) - poincare_hopf_chi(ts)) % 2 == 0


def _random_generator(genus, rng):
    while True:
        coords = [rng.randint(-4, 4) for _ in range(2 * genus)]
        g = 0
        for c in coords:
            g = math.gcd(g, c)
        if g == 0:
            continue
        return TwistGenerator("c", dense_class(genus, [c // g for c in coords]), Family.A)


def _letter(c, sign):
    """The library's action of the one-letter word c^sign."""
    return word_action(TwistWord(((c.label, sign),)), {c.label: c})


def test_symplectic_property_suite():
    with Criterion("1000 random transvections are symplectic and unimodular; commutation iff zero pairing", 5.0):
        rng = random.Random(2024)
        for _ in range(1000):
            genus = rng.randint(2, 8)
            c = _random_generator(genus, rng)
            sign = rng.choice((1, -1))
            t = _letter(c, sign)
            J = intersection_matrix(genus)
            assert t == transvection_matrix(c, sign)
            assert transpose(t) @ J @ t == J
            assert t.det() == 1
            assert t @ _letter(c, -sign) == identity(2 * genus)
        for _ in range(1000):
            genus = rng.randint(2, 5)
            c1 = _random_generator(genus, rng)
            c2 = _random_generator(genus, rng)
            t1 = _letter(c1, 1)
            t2 = _letter(c2, 1)
            assert (t1 @ t2 == t2 @ t1) == (pairing_dense(c1.cls, c2.cls) == 0)


def _random_symmetric_polygon(rng):
    while True:
        pts = []
        for _ in range(rng.randint(2, 6)):
            x = Fr(rng.randint(-15, 15), rng.randint(1, 7))
            y = Fr(rng.randint(-15, 15), rng.randint(1, 7))
            pts.append((x, y))
            pts.append((-x, -y))
        try:
            return RatPolytope(pts)
        except ValueError:
            continue


def test_polar_duality_involution_and_dual_norm():
    with Criterion("polar duality is an involution on 200 random symmetric polygons; dual norm one iff vertex maximum one at 1000 points and their rescalings"):
        rng = random.Random(4096)
        for _ in range(200):
            p = _random_symmetric_polygon(rng)
            assert polar_dual(polar_dual(p)) == p
        ball = norm_ball_from_values(NormSpec.surgery_family(4))
        dual = polar_dual(ball)
        for _ in range(1000):
            u = (
                Fr(rng.randint(-24, 24), rng.randint(1, 6)),
                Fr(rng.randint(-24, 24), rng.randint(1, 6)),
            )
            brute = max(u[0] * vx + u[1] * vy for vx, vy in ball.vertices)
            assert gauge(dual, u) == brute
            assert dual_norm_is_one(ball, [u]) == (brute == 1)
            if brute:  # u scaled onto the dual unit sphere
                assert dual_norm_is_one(ball, [(u[0] / brute, u[1] / brute)])


def test_holonomy_conjugacy_witnesses():
    with Criterion("conjugacy witnesses exact for all six cases at 64+ samples over 8 tiles per side", 1.0):
        u, v = bundled_shifts()
        assert len(u.breakpoints) == 3 and len(v.breakpoints) == 3  # one breakpoint each
        for case in "abcdef":
            _, witness = solve_conjugacy(u, v, case)
            assert len(witness.verdicts) >= 64
            assert witness.tiles_per_side >= 8
            assert witness.check.passed
        ident = PLHomeo.identity()
        # 10 tiles per side, 4 points in each
        tiled, witness = solve_conjugacy(ident, ident, "a", 10, 80)
        assert witness.check.passed
        assert all(tiled.eval(Fr(a, d)) == Fr(a, d) for a, d in zip(witness.numerators, witness.denominators))


def test_holonomy_witnesses_at_256_tiles():
    u, v = bundled_shifts()
    with Criterion("conjugacy witnesses exact for all six cases at 4096 samples over 256 tiles per side", 0.5):
        for case in "abcdef":
            _, witness = solve_conjugacy(u, v, case, 256, 4096)
            assert len(witness.verdicts) == 4096 + 3
            assert witness.check.passed, case


def _seeded_map_doc(rng, count=16):
    """A map file with `count` breakpoints in all; each interior breakpoint
    and value is p/q with q <= 16."""
    def marks():
        out = set()
        while len(out) < count - 2:
            q = rng.randint(2, 16)
            out.add(Fr(rng.randint(1 - q, q - 1), q))
        return ["-1", *map(jsonio.fmt_frac, sorted(out)), "1"]

    return {"breakpoints": marks(), "values": marks()}


def test_holonomy_report_time_at_256_tiles(tmp_path):
    rng = random.Random(2027)
    argvs = []
    for case in "abcdef":
        paths = {name: tmp_path / f"{case}-{name}.json" for name in ("u", "v", "report")}
        for name in "uv":
            paths[name].write_text(json.dumps(_seeded_map_doc(rng)))
        argvs.append(["holonomy", "tau", "--case", case, "--tiles", "256", "--samples", "4096",
                      "--u", str(paths["u"]), "--v", str(paths["v"]), "--format", "json",
                      "--output", str(paths["report"])])
    name = "holonomy tau JSON reports at 256 tiles and 4096 samples, six cases on seeded 16-breakpoint maps"
    with Criterion(name, 0.5):
        codes = [main(argv) for argv in argvs]
    assert codes == [0] * 6
    for case in "abcdef":
        doc = json.loads((tmp_path / f"{case}-report.json").read_text())
        assert len(doc["samples"]) == 4096 + 3 and all(s["pass"] for s in doc["samples"])
        assert [c["pass"] for c in doc["checks"]] == [True]


def test_novikov_witness_grid():
    with Criterion("transversal witnesses reach exponent zero for all |k|,|m| <= 20"):
        for k in range(-20, 21):
            for m in range(-20, 21):
                if k == 0 or m == 0:
                    continue
                w = novikov_witness(k, m)
                assert w.final_exponent == 0
                assert w.steps[-1].op == "pi1"
                for s in w.steps[:-1]:
                    assert s.op == "semigroup" and s.exponent_added == m
                assert w.steps[-1].exponent_added % k == 0
