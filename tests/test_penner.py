import random
import tracemalloc

import pytest

from tautcalc.homology import (
    Family,
    TwistGenerator,
    TwistWord,
    mapping_torus,
    word_action,
)
from tautcalc.jsonio import curve_system_from_json, curve_system_to_json, penner_input_from_json, word_to_json
from tautcalc.penner import (
    MAX_CHAIN_GENUS,
    CurveSystem,
    FillingStatus,
    Region,
    chain_system,
    filling_check,
    validate_word,
)

from oracles import (
    apply,
    basis_r,
    basis_s,
    class_difference,
    class_sum,
    dense_class,
    dense_coords,
    pairing_dense,
    twist_word,
)


def path_system(genus, curves):
    """Small helper: the curves in order, consecutive ones meeting once."""
    return CurveSystem(genus, tuple(curves), tuple((i, i - 1, 1) for i in range(1, len(curves))))


def genus2_example():
    """Five-curve chain on a genus-2 surface: a1, b1, a2, b2, a3."""
    genus = 2
    curves = (
        TwistGenerator("a1", basis_r(genus, 1), Family.A),
        TwistGenerator("b1", basis_s(genus, 1), Family.B),
        TwistGenerator("a2", class_sum(basis_r(genus, 1), basis_r(genus, 2)), Family.A),
        TwistGenerator("b2", basis_s(genus, 2), Family.B),
        TwistGenerator("a3", basis_r(genus, 2), Family.A),
    )
    return path_system(2, curves)


GENUS2_WORD = twist_word(
    ("a1", 2), ("a2", 1), ("b2", -3), ("a3", 1), ("b1", -1), ("a1", 1)
)


def test_genus2_example_word_valid():
    report = validate_word(GENUS2_WORD, genus2_example())
    assert report.word_valid
    assert report.all_curves_used
    assert report.sign_discipline


def test_genus3_word_valid():
    system, word = chain_system(3)
    report = validate_word(word, system)
    assert report.word_valid


def test_unused_curve_invalidates():
    system = genus2_example()
    dropped = TwistWord(tuple(l for l in GENUS2_WORD if l[0] != "b1"))
    report = validate_word(dropped, system)
    assert not report.word_valid
    assert report.all_curves_used is False
    assert report.sign_discipline is True
    assert any("b1" in m for m in report.messages)


def test_mixed_signs_invalidate():
    system = genus2_example()
    mixed = twist_word(*GENUS2_WORD, ("a1", -1))
    report = validate_word(mixed, system)
    assert report.sign_discipline is False
    assert not report.word_valid


def test_same_sign_families_invalidate():
    system = genus2_example()
    word = twist_word(("a1", 1), ("a2", 1), ("a3", 1), ("b1", 2), ("b2", 1))
    assert validate_word(word, system).sign_discipline is False


def test_either_orientation_accepted():
    system = genus2_example()
    flipped = TwistWord(tuple((label, -exp) for label, exp in GENUS2_WORD))
    assert validate_word(flipped, system).sign_discipline is True


def test_validity_is_order_independent():
    system = genus2_example()
    rng = random.Random(13)
    letters = list(GENUS2_WORD)
    for _ in range(10):
        rng.shuffle(letters)
        assert validate_word(TwistWord(tuple(letters)), system).word_valid


def test_unknown_label_raises():
    with pytest.raises(ValueError):
        validate_word(twist_word(("zz", 1)), genus2_example())


# -- filling checks ------------------------------------------------------------


def test_chain_passes_necessary_conditions():
    system, _ = chain_system(3)
    status, messages = filling_check(system)
    assert status is FillingStatus.NECESSARY_ONLY
    assert messages == ("no region certificate supplied; filling not fully verified",)


def test_isolated_curve_fails():
    genus = 2
    curves = (
        TwistGenerator("a1", basis_r(genus, 1), Family.A),
        TwistGenerator("b1", basis_s(genus, 1), Family.B),
        TwistGenerator("a2", basis_r(genus, 2), Family.A),
    )
    system = CurveSystem(2, curves, ((1, 0, 1),))
    status, messages = filling_check(system)
    assert status is FillingStatus.FAILED
    assert messages == ("curve 'a2' does not meet the opposite family",
                        "intersection graph is disconnected (unreached: ['a2'])")


def test_disk_region_certificate_verifies():
    base, word = chain_system(3)
    # chain on genus 3: chi = -4, intersections = 6, so 2 disk regions
    expected_regions = (2 - 2 * base.genus) + base.total_intersections
    assert expected_regions == 2
    system = CurveSystem(base.genus, base.curves, base.crossings, (Region(True), Region(True)))
    assert filling_check(system) == (FillingStatus.VERIFIED, ())
    assert validate_word(word, system).filling_status is FillingStatus.VERIFIED


def test_non_disk_region_fails():
    base, _ = chain_system(3)
    system = CurveSystem(base.genus, base.curves, base.crossings, (Region(True), Region(False)))
    status, _ = filling_check(system)
    assert status is FillingStatus.FAILED


def test_miscounted_certificate_fails():
    base, _ = chain_system(3)
    system = CurveSystem(base.genus, base.curves, base.crossings, (Region(True),) * 5)
    status, messages = filling_check(system)
    assert status is FillingStatus.FAILED
    assert any("inconsistent" in m for m in messages)


def five_chain_curves(regions=None):
    """a1, b1, a2, b2, a3 of the genus-3 chain.  Their neighbourhood has
    genus 2 and two boundary circles, so they do not fill: the complement
    is an annulus, and chi + I = -4 + 4 = 0."""
    base, _ = chain_system(3)
    return CurveSystem(3, base.curves[:5], base.crossings[:4], regions)


@pytest.mark.parametrize("regions", [None, (), (Region(True),) * 2], ids=["no-certificate", "no-regions", "two-disks"])
def test_euler_count_below_one_fails(regions):
    # filling curves in minimal position cut the surface into chi + I disks,
    # so chi + I < 1 rules filling out, whatever the certificate says
    assert filling_check(five_chain_curves(regions)) == (
        FillingStatus.FAILED,
        ("Euler count chi + I = 0 < 1: filling curves cut the surface into chi + I disks",),
    )


def test_same_family_intersection_rejected():
    genus = 2
    curves = (
        TwistGenerator("a1", basis_r(genus, 1), Family.A),
        TwistGenerator("a2", basis_s(genus, 1), Family.A),
    )
    with pytest.raises(ValueError):
        CurveSystem(2, curves, ((1, 0, 1),))


def test_geo_int_validation():
    curves = [
        {"label": "a1", "coords": ["1", "0", "0", "0"], "family": "A"},
        {"label": "b1", "coords": ["0", "1", "0", "0"], "family": "B"},
    ]

    def read(curves, geo_int):
        return curve_system_from_json({"genus": 2, "curves": curves, "geo_int": geo_int})

    assert read(curves, [[], [3]]).total_intersections == 3
    with pytest.raises(ValueError, match=r"^system: geo_int must have length 2, one row per curve$"):
        read(curves, [[]])
    with pytest.raises(ValueError, match=r"^system: geo_int\[1\] must have length 1 \(strict lower triangle\)$"):
        read(curves, [[], [1, 0]])
    with pytest.raises(ValueError, match=r"^system: geo_int\[0\] must have length 0 "):
        read(curves, [[0], [1]])
    for bad in (-1, "-1"):
        with pytest.raises(ValueError, match=r"^system: geo_int\[1\]\[0\] must be a nonnegative integer$"):
            read(curves, [[], [bad]])
    # the parser names an entry that is no integer before the triangle is read
    for bad, message in ((True, "a boolean"), (1.0, "float")):
        with pytest.raises(ValueError, match=rf"^system\.geo_int\[1\]\[0\]: expected an integer, got {message}$"):
            read(curves, [[], [bad]])
    assert read(curves, [[], ["1"]]).total_intersections == 1
    same = curves + [{"label": "a2", "coords": ["0", "0", "1", "0"], "family": "A"}]
    assert read(same, [[], [1], [0, 2]]).total_intersections == 3
    with pytest.raises(ValueError, match="^system: curves 'a1' and 'a2' are in the same family but intersect$"):
        read(same, [[], [1], [1, 1]])


def test_crossings_validation():
    genus = 2
    curves = (
        TwistGenerator("a1", basis_r(genus, 1), Family.A),
        TwistGenerator("b1", basis_s(genus, 1), Family.B),
        TwistGenerator("a2", basis_r(genus, 2), Family.A),
    )
    assert CurveSystem(2, curves, ((1, 0, 1), (2, 1, 2))).total_intersections == 3
    shape = r"^crossings\[0\] must be an \(i, j, count\) triple of integers$"
    order = r": need 0 <= j < i < 3, in increasing order of \(i, j\)$"
    for bad, message in (
        ([(1, 0, 1)], r"^crossings must be a tuple of \(i, j, count\) triples$"),
        (((1, 0),), shape),
        (((1, 0, True),), shape),
        (((1, 0, 1.0),), shape),
        (((0, 1, 1),), r"^crossings\[0\]" + order),
        (((3, 1, 1),), r"^crossings\[0\]" + order),
        (((2, 1, 1), (1, 0, 1)), r"^crossings\[1\]" + order),
        (((1, 0, 1), (1, 0, 1)), r"^crossings\[1\]" + order),
        (((1, 0, 0),), r"^crossings\[0\]: count must be positive$"),
        (((2, 0, 1),), "^curves 'a1' and 'a2' are in the same family but intersect$"),
    ):
        with pytest.raises(ValueError, match=message):
            CurveSystem(2, curves, bad)


def test_crossings_agree_with_pairings():
    # |pairing| <= count and pairing = count (mod 2) for every pair, so a pair
    # that does not cross, within a family or not, pairs to 0
    genus = 2

    def curve(label, coords):
        return TwistGenerator(label, dense_class(genus, coords), Family[label[0].upper()])

    a1, b1 = curve("a1", [1, 0, 0, 0]), curve("b1", [0, 1, 0, 0])
    a2, b2 = curve("a2", [1, 0, 1, 0]), curve("b2", [1, 0, 0, 3])
    assert CurveSystem(2, (a1, b1, a2), ((1, 0, 3), (2, 1, 1))).total_intersections == 4
    for curves, crossings, message in (
        ((a1, b1), ((1, 0, 2),), "'a1' and 'b1' pair to 1 but cross 2 times"),
        ((a1, b1, a2), ((1, 0, 1),), "'b1' and 'a2' pair to -1 but cross 0 times"),
        ((a1, b1, a2), ((1, 0, 1), (2, 1, 2)), "'b1' and 'a2' pair to -1 but cross 2 times"),
        ((a1, b2), ((1, 0, 3),), "'a1' and 'b2' pair to 0 but cross 3 times"),
        ((a2, b2), ((1, 0, 1),), "'a2' and 'b2' pair to 3 but cross 1 times"),
        # two curves of one family never cross
        ((curve("a1", [1, 2, 0, 0]), b1, a2), ((1, 0, 1), (2, 1, 1)), "'a1' and 'a2' pair to -2 but cross 0 times"),
    ):
        with pytest.raises(ValueError, match=f"^curves {message}$"):
            CurveSystem(2, curves, crossings)


def test_curves_from_another_genus_rejected():
    base = genus2_example()
    with pytest.raises(ValueError, match="curve 'a1': class lies in genus 2, not 3"):
        CurveSystem(3, base.curves, base.crossings)
    mixed = (TwistGenerator("r", basis_r(3, 1), Family.A),) + base.curves[1:]
    with pytest.raises(ValueError, match="curve 'b1': class lies in genus 2, not 3"):
        CurveSystem(3, mixed, base.crossings)


def test_field_types_validated():
    genus = 2
    with pytest.raises(ValueError, match="label must be a string"):
        Region(True, 5)
    with pytest.raises(ValueError, match="disk must be a boolean"):
        Region(1)
    with pytest.raises(ValueError, match="label must be a string"):
        TwistGenerator(5, basis_r(genus, 1), Family.A)
    # a family given by its value would be a third family to CurveSystem's
    # same-family rule, and unknown to validate_word
    for family in ("A", "B", None):
        with pytest.raises(ValueError, match="^curve 'a1': family must be a Family$"):
            TwistGenerator("a1", basis_r(genus, 1), family)
    with pytest.raises(ValueError, match="at least one curve"):
        CurveSystem(2, (), ())


def test_curve_system_containers_validated():
    # a list would make the system unhashable, and a stray entry fail far from its cause
    base, _ = chain_system(2)
    for curves in (("a1",), list(base.curves), base.curves + (None,)):
        with pytest.raises(ValueError, match="^curves must be a tuple of TwistGenerators$"):
            CurveSystem(2, curves, base.crossings)
    for regions in ([Region(True)], (Region(True), "disk"), "r"):
        with pytest.raises(ValueError, match="^regions must be None or a tuple of Regions$"):
            CurveSystem(2, base.curves, base.crossings, regions)
    system = CurveSystem(2, base.curves, base.crossings, (Region(True),))
    assert hash(system) == hash(CurveSystem(2, base.curves, base.crossings, (Region(True),)))


# -- chain systems ---------------------------------------------------------------


def test_genus3_system_shape():
    system, word = chain_system(3)
    assert system.genus == 3
    assert len(system.curves) == 7
    labels = [c.label for c in system.curves]
    assert labels == ["a1", "b1", "a2", "b2", "a3", "b3", "a4"]
    # written word: b2 a2^- a3^- b1 b3 a1^- a4^-
    assert tuple(word) == (
        ("b2", 1), ("a2", -1), ("a3", -1), ("b1", 1), ("b3", 1), ("a1", -1), ("a4", -1)
    )


def test_genus3_action_has_trivial_fixed_homology():
    system, word = chain_system(3)
    action = word_action(word, system.generator_map())
    assert mapping_torus(action)[1:] == (-4, 1)
    assert action.det() == 1


def test_genus3_marked_classes_carried_by_action():
    system, word = chain_system(3)
    action = word_action(word, system.generator_map())
    genus = 3
    alpha = dense_class(genus, [0, 0, 0, 1, 0, 0])
    gamma = dense_class(genus, [-1, 0, -2, -2, -1, 0])
    beta = class_difference(alpha, gamma)
    assert dense_coords(beta) == (1, 0, 2, 3, 1, 0)
    assert alpha.is_primitive and beta.is_primitive and gamma.is_primitive
    assert apply(action, dense_coords(alpha)) == dense_coords(beta)


def test_extend_to_genus_shapes():
    for genus in (2, 5, 6, 8):
        system, word = chain_system(genus)
        assert len(system.curves) == 2 * genus + 1
        assert validate_word(word, system).word_valid
        assert len(word) == 2 * genus + 1


def test_extend_to_genus_action():
    system, word = chain_system(6)
    action = word_action(word, system.generator_map())
    _, det, b2 = mapping_torus(action)
    assert (abs(det), b2) == (7, 1)


def test_chain_system_genus_floor():
    assert chain_system(2)[0].genus == 2
    for genus in (1, 0, -3, True, 2.0, "3"):
        with pytest.raises(ValueError, match="^genus must be an integer >= 2$"):
            chain_system(genus)


def test_extend_to_genus_capped():
    system, word = chain_system(MAX_CHAIN_GENUS)
    assert system.genus == MAX_CHAIN_GENUS and len(word) == 2 * MAX_CHAIN_GENUS + 1
    tracemalloc.start()
    try:
        for genus in (MAX_CHAIN_GENUS + 1, 10**9):
            with pytest.raises(ValueError, match=f"^genus must be at most {MAX_CHAIN_GENUS}$"):
                chain_system(genus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_chain_system_stores_its_nonzeros():
    genus = MAX_CHAIN_GENUS
    system, _ = chain_system(genus)
    assert all(1 <= len(c.cls.nonzeros) <= 2 for c in system.curves)
    assert system.crossings == tuple((i, i - 1, 1) for i in range(1, 2 * genus + 1))
    assert system.total_intersections == 2 * genus


def test_bundled_generators_commute_iff_disjoint():
    system, _ = chain_system(3)
    curves = system.curves
    gens = system.generator_map()
    mats = [word_action(TwistWord(((c.label, 1),)), gens) for c in curves]
    for i in range(len(curves)):
        for j in range(len(curves)):
            commute = mats[i] @ mats[j] == mats[j] @ mats[i]
            pairing = pairing_dense(curves[i].cls, curves[j].cls)
            assert commute == (pairing == 0)
            # chain adjacency: consecutive curves pair to +-1, others to 0
            assert abs(pairing) == (1 if abs(i - j) == 1 else 0)


def test_chain_intersection_graph_is_path():
    for genus in (6, 9):
        system, _ = chain_system(genus)
        degrees = [0] * len(system.curves)
        for i, j, _ in system.crossings:
            degrees[i] += 1
            degrees[j] += 1
        assert sorted(degrees)[:2] == [1, 1]
        assert all(d == 2 for d in sorted(degrees)[2:])


def test_crossing_messages_pinned():
    # one fault per system, after a valid first crossing where there is room for one
    genus = 2
    curves = (
        TwistGenerator("a1", basis_r(genus, 1), Family.A),
        TwistGenerator("b1", basis_s(genus, 1), Family.B),
        TwistGenerator("a2", basis_r(genus, 2), Family.A),
    )
    shape = "crossings[1] must be an (i, j, count) triple of integers"
    order = ": need 0 <= j < i < 3, in increasing order of (i, j)"
    for bad, message in (
        ([(1, 0, 1)], "crossings must be a tuple of (i, j, count) triples"),
        (((1, 0, 1), (2, 1)), shape),
        (((1, 0, 1), (2, 1, 1, 1)), shape),
        (((1, 0, 1), [2, 1, 1]), shape),
        (((1, 0, 1), (2, 1, True)), shape),
        (((1, 0, 1), (2.0, 1, 1)), shape),
        (((1, 0, 1), (2, 1, "1")), shape),
        (((3, 0, 1),), "crossings[0]" + order),
        (((1, 0, 1), (1, 0, 1)), "crossings[1]" + order),
        (((2, 1, 1), (1, 0, 1)), "crossings[1]" + order),
        (((1, 0, 1), (2, 1, 0)), "crossings[1]: count must be positive"),
        (((1, 0, 1), (2, 1, -2)), "crossings[1]: count must be positive"),
        (((1, 0, 1), (2, 0, 1)), "curves 'a1' and 'a2' are in the same family but intersect"),
    ):
        with pytest.raises(ValueError) as exc:
            CurveSystem(2, curves, bad)
        assert str(exc.value) == message, bad


def test_unknown_label_raised_by_each_entry_point():
    system, word = chain_system(2)
    bad = TwistWord(word.letters + (("z9", 1),))
    doc = {**curve_system_to_json(system), "word": word_to_json(bad)}
    for call in (lambda: word_action(bad, system.generator_map()),
                 lambda: validate_word(bad, system),
                 lambda: penner_input_from_json(doc)):
        with pytest.raises(ValueError, match="'z9'"):
            call()
