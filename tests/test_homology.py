import random

import pytest

from tautcalc.homology import (
    MAX_TWIST_EXPONENT,
    Family,
    HomologyClass,
    SymplecticSpace,
    TwistGenerator,
    TwistWord,
    algebraic_intersection,
    mapping_torus,
    word_action,
)
from tautcalc.jsonio import curve_system_from_json, curve_system_to_json
from tautcalc.matrices import IntMatrix
from tautcalc.penner import chain_system

from oracles import (
    apply,
    basis_r,
    basis_s,
    class_difference,
    class_negation,
    class_sum,
    dense_class,
    dense_coords,
    identity,
    intersection_matrix,
    mapping_torus_dense,
    neg,
    transpose,
    transvection_matrix,
    zero_class,
)


def random_class(space, rng, allow_zero=False, bound=3):
    while True:
        coords = [rng.randint(-bound, bound) for _ in range(space.dimension)]
        cls = dense_class(space, coords)
        if cls.is_zero:
            if allow_zero:
                return cls
            continue
        g = 0
        for c in coords:
            g = __import__("math").gcd(g, c)
        return dense_class(space, [c // g for c in coords])


def test_intersection_form_shape():
    space = SymplecticSpace(3)
    J = intersection_matrix(space.genus)
    assert transpose(J) == neg(J)
    assert J @ J == neg(identity(6))


def test_basis_pairings():
    space = SymplecticSpace(2)
    r1, s1 = basis_r(space, 1), basis_s(space, 1)
    r2 = basis_r(space, 2)
    assert algebraic_intersection(r1, s1) == 1
    assert algebraic_intersection(s1, r1) == -1
    assert algebraic_intersection(r1, r2) == 0


def test_pairing_antisymmetric_and_bilinear():
    rng = random.Random(11)
    space = SymplecticSpace(4)
    for _ in range(50):
        x = random_class(space, rng)
        y = random_class(space, rng)
        z = random_class(space, rng)
        assert algebraic_intersection(x, x) == 0
        assert algebraic_intersection(x, y) == -algebraic_intersection(y, x)
        assert algebraic_intersection(class_sum(x, y), z) == algebraic_intersection(
            x, z
        ) + algebraic_intersection(y, z)


def test_pairing_dimension_mismatch():
    with pytest.raises(ValueError):
        algebraic_intersection(basis_r(SymplecticSpace(2), 1), basis_r(SymplecticSpace(3), 1))


def test_null_homologous_twist_is_identity():
    space = SymplecticSpace(2)
    c = TwistGenerator("sep", zero_class(space), Family.A)
    assert c.cls.is_zero
    assert transvection_matrix(c, 1) == identity(4)
    assert transvection_matrix(c, -1) == identity(4)


def test_class_coordinates_are_not_coerced():
    # dense coordinates are read only from a curve-system document; a string
    # value handed to HomologyClass itself is in test_class_stores_its_nonzeros
    def read(coords):
        curve = {"label": "c", "coords": coords, "family": "A"}
        return curve_system_from_json({"genus": 2, "curves": [curve], "geo_int": [[]]})

    for coords, message in (
        ([1.5, 0, 0, True], r"coords\[0\]: expected an integer, got float$"),
        ([1, 0, 0, True], r"coords\[3\]: expected an integer, got a boolean$"),
        ([1.0, 0, 0, 0], r"coords\[0\]: expected an integer, got float$"),
    ):
        with pytest.raises(ValueError, match=r"^system\.curves\[0\]\." + message):
            read(coords)
    system = read([3, 0, -1, 0])
    assert system.curves[0].cls.nonzeros == ((0, 3), (2, -1))
    assert curve_system_to_json(system)["curves"][0]["coords"] == ["3", "0", "-1", "0"]


def test_class_stores_its_nonzeros():
    space = SymplecticSpace(2)
    x = dense_class(space, (3, 0, -1, 0))
    assert x.nonzeros == ((0, 3), (2, -1))
    same = HomologyClass(space, ((0, 3), (2, -1)))
    assert x == same and hash(x) == hash(same)
    assert zero_class(space).nonzeros == () and zero_class(space).is_zero
    for bad, message in (
        ([(0, 3)], "^nonzeros must be a tuple of"),
        (((0, 3, 1),), "^nonzeros must be a tuple of"),
        (((2, 1), (0, 3)), r"^nonzero indices must increase within range\(2\*genus\)$"),
        (((0, 1), (0, 2)), "^nonzero indices must increase"),
        (((4, 1),), "^nonzero indices must increase"),
        (((-1, 1),), "^nonzero indices must increase"),
        (((True, 1),), "^nonzero indices must increase"),
        (((0, 1.0),), "^coordinates must be integers$"),
        (((0, "3"),), "^coordinates must be integers$"),
        (((0, False),), "^coordinates must be integers$"),
        (((0, 0),), "^nonzeros must not hold a zero coordinate$"),
    ):
        with pytest.raises(ValueError, match=message):
            HomologyClass(space, bad)


def test_class_costs_its_nonzeros_at_any_genus():
    # a dense view of 2 * 10**12 coordinates could not be built, so each of
    # these reads only the stored pairs
    genus = 10**12
    space = SymplecticSpace(genus)
    r1, s1 = HomologyClass(space, ((0, 1),)), basis_s(space, 1)
    c = TwistGenerator("c", HomologyClass(space, ((0, 1), (2 * genus - 1, -1))), Family.A)
    assert algebraic_intersection(r1, s1) == 1
    assert algebraic_intersection(s1, c.cls) == -1
    assert algebraic_intersection(c.cls, basis_s(space, genus)) == 0
    assert c.cls.is_primitive and not c.cls.is_zero
    # the rejection names the class by its pairs, not by 2 * 10**12 coordinates
    with pytest.raises(ValueError, match=r"^curve 'x': class must be primitive or zero, got nonzeros \(\(0, 2\),\)$"):
        TwistGenerator("x", HomologyClass(space, ((0, 2),)), Family.A)


def test_genus_must_be_a_positive_int():
    for genus in (True, False, 0, -1, 2.0, "2"):
        with pytest.raises(ValueError, match="genus must be a positive integer"):
            SymplecticSpace(genus)


def test_non_primitive_class_rejected():
    space = SymplecticSpace(2)
    with pytest.raises(ValueError):
        TwistGenerator("bad", dense_class(space, [2, 0, 0, 0]), Family.A)


def test_transvection_along_r1():
    space = SymplecticSpace(2)
    c = TwistGenerator("a1", basis_r(space, 1), Family.A)
    t = transvection_matrix(c, 1)
    r1, s1 = basis_r(space, 1), basis_s(space, 1)
    assert apply(t, dense_coords(r1)) == dense_coords(r1)
    # s1 maps to s1 + <s1, r1> r1 = s1 - r1
    assert apply(t, dense_coords(s1)) == dense_coords(class_difference(s1, r1))


def test_transvection_sign_independence_of_orientation():
    space = SymplecticSpace(3)
    rng = random.Random(3)
    for _ in range(20):
        cls = random_class(space, rng)
        a = TwistGenerator("c", cls, Family.A)
        b = TwistGenerator("c", class_negation(cls), Family.A)
        assert transvection_matrix(a, 1) == transvection_matrix(b, 1)


def test_transvection_inverse_pair():
    space = SymplecticSpace(3)
    rng = random.Random(5)
    for _ in range(20):
        c = TwistGenerator("c", random_class(space, rng), Family.A)
        t_plus = transvection_matrix(c, 1)
        t_minus = transvection_matrix(c, -1)
        assert t_plus @ t_minus == identity(6)


def test_transvection_symplectic_and_unimodular():
    rng = random.Random(17)
    for _ in range(50):
        space = SymplecticSpace(rng.randint(2, 5))
        c = TwistGenerator("c", random_class(space, rng), Family.A)
        t = transvection_matrix(c, rng.choice((1, -1)))
        J = intersection_matrix(space.genus)
        assert transpose(t) @ J @ t == J
        assert t.det() == 1


def test_commutation_iff_pairing_vanishes():
    rng = random.Random(23)
    for _ in range(100):
        space = SymplecticSpace(rng.randint(2, 4))
        c1 = TwistGenerator("c1", random_class(space, rng), Family.A)
        c2 = TwistGenerator("c2", random_class(space, rng), Family.B)
        t1 = transvection_matrix(c1, 1)
        t2 = transvection_matrix(c2, 1)
        commute = t1 @ t2 == t2 @ t1
        assert commute == (algebraic_intersection(c1.cls, c2.cls) == 0)


def _generators(space):
    return {
        "a": TwistGenerator("a", basis_r(space, 1), Family.A),
        "b": TwistGenerator("b", basis_s(space, 1), Family.B),
        "c": TwistGenerator("c", basis_r(space, 2), Family.A),
    }


def test_word_action_empty_is_identity():
    space = SymplecticSpace(2)
    assert word_action(TwistWord(()), _generators(space)) == identity(4)


def test_word_action_single_letter():
    space = SymplecticSpace(2)
    gens = _generators(space)
    word = TwistWord((("a", 1),))
    assert word_action(word, gens) == transvection_matrix(gens["a"], 1)


def test_word_action_exponent_collapse():
    space = SymplecticSpace(2)
    gens = _generators(space)
    threefold = word_action(TwistWord((("a", 3),)), gens)
    repeated = word_action(TwistWord((("a", 1),) * 3), gens)
    assert threefold == repeated


def test_word_action_cancelled_word_is_the_dense_identity():
    # c c^-1 creates off-diagonal entries and cancels them; none may stay stored
    space = SymplecticSpace(3)
    c = TwistGenerator("c", dense_class(space, (1, -2, 0, 1, 1, 0)), Family.A)
    m = word_action(TwistWord((("c", 1), ("c", -1))), {c.label: c})
    dense = IntMatrix([[int(i == j) for j in range(6)] for i in range(6)])
    assert m == dense and hash(m) == hash(dense)
    assert m.nonzeros == tuple({i: 1} for i in range(6))


def test_word_action_concatenation_is_product():
    space = SymplecticSpace(2)
    gens = _generators(space)
    rng = random.Random(29)
    labels = list(gens)
    for _ in range(20):
        w1 = TwistWord(tuple((rng.choice(labels), rng.choice((-2, -1, 1, 2))) for _ in range(3)))
        w2 = TwistWord(tuple((rng.choice(labels), rng.choice((-2, -1, 1, 2))) for _ in range(3)))
        joined = TwistWord(w1.letters + w2.letters)
        assert word_action(joined, gens) == word_action(w1, gens) @ word_action(w2, gens)


def test_word_action_determinant_one():
    space = SymplecticSpace(3)
    gens = {
        lbl: TwistGenerator(lbl, cls, fam)
        for lbl, cls, fam in (
            ("a", basis_r(space, 1), Family.A),
            ("b", basis_s(space, 2), Family.B),
            ("c", class_sum(basis_r(space, 3), basis_r(space, 2)), Family.A),
        )
    }
    rng = random.Random(31)
    for _ in range(10):
        word = TwistWord(tuple((rng.choice("abc"), rng.choice((-3, -1, 1, 2))) for _ in range(5)))
        assert word_action(word, gens).det() == 1


def test_word_action_unknown_label():
    space = SymplecticSpace(2)
    with pytest.raises(ValueError):
        word_action(TwistWord((("zz", 1),)), _generators(space))


def test_word_rejects_zero_exponent():
    with pytest.raises(ValueError):
        TwistWord((("a", 0),))


def test_object_fields_validated():
    # a wrong type is refused where it is passed in, not where it is first used
    with pytest.raises(ValueError, match="^space must be a SymplecticSpace$"):
        HomologyClass("x", ())
    with pytest.raises(ValueError, match="^curve 'a': class must be a HomologyClass$"):
        TwistGenerator("a", (0, 1), Family.A)
    for letters in ((5,), ("a1",), (("a", 1, 2),), [("a", 1)], (["a", 1],), "a1"):
        with pytest.raises(ValueError, match=r"^letters must be a tuple of \(label, exponent\) pairs$"):
            TwistWord(letters)


def test_word_exponent_capped():
    TwistWord((("a", MAX_TWIST_EXPONENT), ("b", -MAX_TWIST_EXPONENT)))
    for exp in (MAX_TWIST_EXPONENT + 1, -MAX_TWIST_EXPONENT - 1):
        with pytest.raises(ValueError, match=f"letter 'a': exponent must be at most {MAX_TWIST_EXPONENT}"):
            TwistWord((("a", exp),))


def test_word_action_rejects_mixed_spaces():
    gens = {
        "a": TwistGenerator("a", basis_r(SymplecticSpace(2), 1), Family.A),
        "b": TwistGenerator("b", basis_s(SymplecticSpace(3), 1), Family.B),
    }
    with pytest.raises(ValueError, match="different spaces"):
        word_action(TwistWord((("a", 1), ("b", -1))), gens)


# -- differential oracle: the dense product of transvections ---------------------


def _twist_power(space, coords, amount):
    """Dense matrix of x |-> x + amount * <x, c> c, i.e. the amount-th twist power."""
    n = space.dimension
    # row vector c^T J in the block basis
    ctj = [0] * n
    for i in range(space.genus):
        ctj[2 * i + 1] = coords[2 * i]
        ctj[2 * i] = -coords[2 * i + 1]
    return IntMatrix(
        [
            [(1 if i == j else 0) - amount * coords[i] * ctj[j] for j in range(n)]
            for i in range(n)
        ]
    )


def _dense_word_action(word, gens):
    space = next(iter(gens.values())).cls.space
    result = identity(space.dimension)
    for label, exp in word:
        result = result @ _twist_power(space, dense_coords(gens[label].cls), exp)
    return result


def _chain(genus):
    system, word = chain_system(genus)
    return system.generator_map(), word


def _seeded_word(rng, labels, length):
    return TwistWord(tuple((rng.choice(labels), rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(length)))


@pytest.mark.parametrize("genus", [*range(2, 13), 20, 30])
def test_word_action_matches_dense_product(genus):
    gens, chain_word = _chain(genus)
    space = gens["a1"].cls.space
    rng = random.Random(genus)
    labels = sorted(gens)
    words = [chain_word] + [_seeded_word(rng, labels, 3 * genus) for _ in range(3)]
    # r_1 + s_1 holds both coordinates of one handle, so its letters read a
    # row that they also rewrite, which no chain class does
    gens["d"] = TwistGenerator("d", HomologyClass(space, ((0, 1), (1, 1))), Family.A)
    gens["z"] = TwistGenerator("z", zero_class(space), Family.B)
    for label in ("x0", "x1"):
        gens[label] = TwistGenerator(label, random_class(space, rng, bound=2), Family.A)
    half = _seeded_word(rng, sorted(gens), genus)
    words += [
        _seeded_word(rng, ["a1", "b1", "d"], 3 * genus),
        _seeded_word(rng, ["x0", "x1", "z"], 6),
        # every entry the first half creates cancels in the second
        TwistWord(half.letters + tuple((label, -exp) for label, exp in reversed(half.letters))),
        TwistWord(()),
    ]
    for word in words:
        assert word_action(word, gens) == _dense_word_action(word, gens)


@pytest.mark.parametrize("genus", range(2, 13))
def test_word_action_is_symplectic(genus):
    gens, word = _chain(genus)
    J = intersection_matrix(genus)
    m = word_action(word, gens)
    assert transpose(m) @ J @ m == J


# -- derived chain-word actions ---------------------------------------------------


def _chain_action(genus):
    system, word = chain_system(genus)
    return word_action(word, system.generator_map())


def test_genus3_action_matrix_rows():
    m = _chain_action(3)
    assert m.rows[0] == (2, 3, 0, 1, 0, 0)
    assert m.rows[-1] == (0, 0, 0, 0, 1, 2)
    assert m.det() == 1
    assert m.minus_identity().det() == -4


def test_extended_action_matrix_leading_block():
    expected = [
        (2, 3, 0, 1, 0, 0, 0, 0),
        (1, 2, 0, 0, 0, 0, 0, 0),
        (1, 2, 1, 2, 1, 2, 0, 1),
        (1, 2, 1, 3, 1, 2, 0, 1),
        (0, 0, 0, 1, 2, 3, 0, 2),
        (0, 0, 0, 0, 1, 2, 0, 1),
        (0, 0, 0, 0, 0, 1, 1, 2),
        (0, 0, 0, 0, 0, 1, 1, 3),
    ]
    for genus in (6, 7, 9):
        m = _chain_action(genus)
        for i in range(8):
            assert m.rows[i][:8] == expected[i]


def test_chain_action_determinant_at_small_genera():
    # the law det(M_g - I) = (-1)^g (g + 1) already holds below the interior's genus 6
    for genus, d in ((2, 3), (3, -4), (4, 5), (5, -6)):
        m = _chain_action(genus)
        assert (m.minus_identity().det(), m.det()) == (d, 1)
    with pytest.raises(ValueError, match="^genus must be an integer >= 2$"):
        chain_system(1)


@pytest.mark.parametrize("genus", [6, 8, 11])
def test_extended_action_determinant_law(genus):
    m = _chain_action(genus)
    assert abs(m.minus_identity().det()) == genus + 1
    assert m.det() == 1


# -- mapping torus checks ----------------------------------------------------------


def test_mapping_torus_b2_identity():
    assert mapping_torus(identity(6)) == (identity(6).minus_identity(), 0, 7)


def test_mapping_torus_b2_single_transvection():
    space = SymplecticSpace(3)
    c = TwistGenerator("c", basis_r(space, 2), Family.A)
    assert mapping_torus(transvection_matrix(c, 1))[1:] == (0, 6)


def test_mapping_torus_b2_genus3_action():
    assert mapping_torus(_chain_action(3))[1:] == (-4, 1)


def test_fixed_homology_trivial():
    # no nonzero fixed class means det(M - Id) != 0, and then b2 = 1
    torus = mapping_torus(identity(4))
    assert torus == mapping_torus_dense(identity(4))
    assert torus[1:] == (0, 5)
    for m in (_chain_action(3), _chain_action(7)):
        torus = mapping_torus(m)
        assert torus == mapping_torus_dense(m)
        assert torus[1] != 0 and torus[2] == 1
    with pytest.raises(ValueError, match="matrix must be square"):
        mapping_torus(IntMatrix([[1, 0, 0], [0, 1, 0]]))


def test_b2_at_least_one_iff_trivial_kernel():
    rng = random.Random(37)
    for _ in range(30):
        space = SymplecticSpace(rng.randint(2, 4))
        c = TwistGenerator("c", random_class(space, rng), Family.A)
        m = transvection_matrix(c, rng.choice((1, -1)))
        torus = mapping_torus(m)
        assert torus == mapping_torus_dense(m)
        _, det, b2 = torus
        assert b2 >= 1
        assert (b2 == 1) == (det != 0)


def test_image_check_identity():
    space = SymplecticSpace(2)
    alpha = basis_r(space, 1)
    assert apply(identity(4), dense_coords(alpha)) == dense_coords(alpha)
    beta = basis_s(space, 1)
    assert apply(identity(4), dense_coords(alpha)) != dense_coords(beta)
    assert not class_difference(alpha, beta).is_zero


def test_image_check_transvection_sends_alpha_to_alpha_minus_gamma():
    rng = random.Random(41)
    space = SymplecticSpace(3)
    for _ in range(40):
        gamma = random_class(space, rng)
        alpha = random_class(space, rng)
        if algebraic_intersection(alpha, gamma) != -1:
            continue
        t = transvection_matrix(TwistGenerator("g", gamma, Family.A), 1)
        assert apply(t, dense_coords(alpha)) == dense_coords(class_difference(alpha, gamma))


def test_image_check_dimension_mismatch():
    with pytest.raises(ValueError):
        apply(identity(4), dense_coords(basis_r(SymplecticSpace(3), 1)))
