"""Penner-style twist words on a pair of filling multicurves.

A word in positive twists along one multicurve and negative twists along a
second, with every curve used at least once, is pseudo-Anosov whenever the
two multicurves jointly fill the surface.  This module validates the word
conditions, checks the filling conditions that are decidable from
intersection data (plus an optional region certificate), and builds the
one chain system the rest of the package uses: `chain_system(g)` for genus
2..240 derives the chain curves a_1, b_1, ..., b_g, a_{g+1} and their
opposite-twist word (Penner 1988).  `vmatrix --genus g` reports on it, and
`penner` without an input file reports on `chain_system(3)`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import compress
from typing import Optional, Tuple

from .homology import Family, SymplecticSpace, TwistGenerator, TwistWord


class FillingStatus(enum.Enum):
    VERIFIED = "verified"
    NECESSARY_ONLY = "necessary-conditions-only"
    FAILED = "failed"


@dataclass(frozen=True)
class Region:
    """One complementary region of the union of the curves."""

    disk: bool
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.disk, bool):
            raise ValueError("disk must be a boolean")
        if not isinstance(self.label, str):
            raise ValueError("label must be a string")


@dataclass(frozen=True)
class CurveSystem:
    """Two multicurves on a genus-g surface with pairwise intersection counts.

    `geo_int` is the strict lower triangle of the geometric intersection
    numbers in the order of `curves`: row i holds the counts of curve i with
    curves 0..i-1.  Curves within one family must be disjoint (that is what
    makes each family a multicurve).  `regions` is an optional certificate
    describing the complementary regions.
    """

    genus: int
    curves: Tuple[TwistGenerator, ...]
    geo_int: Tuple[Tuple[int, ...], ...]
    regions: Optional[Tuple[Region, ...]] = None

    def __post_init__(self):
        n = len(self.curves)
        if n == 0:
            raise ValueError("need at least one curve")
        space = self.space
        seen = set()
        for c in self.curves:
            if c.cls.space != space:
                raise ValueError(
                    f"curve {c.label!r}: class lies in genus {c.cls.space.genus}, not {self.genus}"
                )
            if c.label in seen:
                raise ValueError(f"duplicate curve label {c.label!r}")
            seen.add(c.label)
        if len(self.geo_int) != n:
            raise ValueError(f"geo_int must have length {n}, one row per curve")
        for i, row in enumerate(self.geo_int):
            if len(row) != i:
                raise ValueError(f"geo_int[{i}] must have length {i} (strict lower triangle)")
            family = self.curves[i].family
            # the types in one C-level pass; then only the nonzeros can be
            # negative or break the family rule, so only they are walked
            if {*map(type, row)} <= {int}:
                hits = compress(range(i), row)
            else:
                hits = range(i)
            for j in hits:
                e = row[j]
                if isinstance(e, bool) or not isinstance(e, int) or e < 0:
                    raise ValueError(f"geo_int[{i}][{j}] must be a nonnegative integer")
                if e and self.curves[j].family == family:
                    raise ValueError(
                        f"curves {self.curves[j].label!r} and {self.curves[i].label!r} are in "
                        "the same family but intersect"
                    )

    @property
    def total_intersections(self) -> int:
        return sum(map(sum, self.geo_int))

    @property
    def space(self) -> SymplecticSpace:
        return SymplecticSpace(self.genus)

    def generator_map(self):
        return {c.label: c for c in self.curves}


@dataclass(frozen=True)
class PennerReport:
    """Outcome of validating a word over a curve system."""

    word_valid: bool
    all_curves_used: bool
    sign_discipline: bool
    filling_status: FillingStatus
    messages: Tuple[str, ...] = ()


def filling_check(sys: CurveSystem) -> Tuple[FillingStatus, Tuple[str, ...]]:
    """Check the filling conditions decidable from the given data, returning
    the status and the messages that explain it.

    Necessary conditions: the intersection graph is connected, and every
    curve meets the opposite family.  With a region certificate (every
    complementary region flagged as a disk or not), filling is decided:
    all-disk regions whose count matches the Euler count chi + I verify
    filling; anything else fails.
    """
    n = len(sys.curves)
    messages = []
    ok = True

    # the intersection graph; every edge joins opposite families, since a
    # CurveSystem rejects intersecting curves of one family
    neighbours = [[] for _ in range(n)]
    for i, row in enumerate(sys.geo_int):
        for j in compress(range(i), row):
            neighbours[i].append(j)
            neighbours[j].append(i)

    for c, near in zip(sys.curves, neighbours):
        if not near:
            ok = False
            messages.append(f"curve {c.label!r} does not meet the opposite family")

    seen = {0}
    stack = [0]
    while stack:
        for j in neighbours[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    if len(seen) != n:
        ok = False
        isolated = [sys.curves[i].label for i in range(n) if i not in seen]
        messages.append(f"intersection graph is disconnected (unreached: {isolated})")

    if not ok:
        status = FillingStatus.FAILED
    elif sys.regions is None:
        status = FillingStatus.NECESSARY_ONLY
        messages.append("no region certificate supplied; filling not fully verified")
    else:
        non_disks = [r for r in sys.regions if not r.disk]
        chi = 2 - 2 * sys.genus
        expected = chi + sys.total_intersections
        if non_disks:
            status = FillingStatus.FAILED
            messages.append(f"{len(non_disks)} complementary region(s) are not disks")
        elif len(sys.regions) != expected:
            status = FillingStatus.FAILED
            messages.append(
                f"region certificate inconsistent: {len(sys.regions)} regions, "
                f"Euler count requires {expected}"
            )
        else:
            status = FillingStatus.VERIFIED
    return status, tuple(messages)


def validate_word(word: TwistWord, sys: CurveSystem) -> PennerReport:
    """Validate the word conditions against the curve system.

    Sign discipline: one family appears only with positive exponents and
    the other only with negative ones (either orientation).  All curves of
    both families must occur.  The filling assessment of the system is
    included in the report.
    """
    table = sys.generator_map()
    used = set()
    signs = {Family.A: set(), Family.B: set()}
    messages = []
    for label, exp in word:
        if label not in table:
            raise ValueError(f"word uses unknown curve label {label!r}")
        used.add(label)
        signs[table[label].family].add(1 if exp > 0 else -1)

    all_used = used == set(table)
    if not all_used:
        missing = sorted(set(table) - used)
        messages.append(f"unused curves: {missing}")

    pure = all(len(s) <= 1 for s in signs.values())
    opposite = signs[Family.A] != signs[Family.B] or (
        not signs[Family.A] and not signs[Family.B]
    )
    sign_ok = pure and opposite
    if not sign_ok:
        messages.append("twist signs are not one family positive, the other negative")

    filling_status, filling_messages = filling_check(sys)
    return PennerReport(
        word_valid=all_used and sign_ok,
        all_curves_used=all_used,
        sign_discipline=sign_ok,
        filling_status=filling_status,
        messages=tuple(messages) + filling_messages,
    )


# -- chain systems -------------------------------------------------------------
#
# The chain a_1, b_1, a_2, b_2, ..., b_g, a_{g+1}: consecutive curves meet once
# and all other pairs are disjoint.  Homology classes consistent with that
# pattern: a_i = r_{i-1} + r_i (with r_0 and r_{g+1} read as zero) and
# b_i = s_i.  The action of the genus-g word has 8g nonzeros, and building
# it, M - Id and the determinant cost in proportion to them; only the dense
# rendering of M and M - Id in the vmatrix report grows as g^2, so the genus
# is capped until that report changes form.
MAX_CHAIN_GENUS = 240


def chain_system(genus: int) -> Tuple[CurveSystem, TwistWord]:
    """The (2g+1)-curve chain system and its three-phase word, for genus
    2..240.  The word twists negatively along the a-curves except a_2, a_3;
    then positively along the b-curves except b_2; then a_3, a_2 negatively
    and b_2 positively.  At genus 3 this is the word
    b2 a2^- a3^- b1 b3 a1^- a4^- (outermost letter first)."""
    if not isinstance(genus, int) or genus < 2:
        raise ValueError("genus must be an integer >= 2")
    if genus > MAX_CHAIN_GENUS:
        raise ValueError(f"genus must be at most {MAX_CHAIN_GENUS}")
    space = SymplecticSpace(genus)
    curves = []
    for i in range(1, genus + 2):
        coords = [0] * space.dimension
        for j in (2 * i - 4, 2 * i - 2):  # the r_{i-1} and r_i coordinates
            if 0 <= j < space.dimension:
                coords[j] = 1
        curves.append(TwistGenerator(f"a{i}", space.cls(coords), Family.A))
        if i <= genus:
            curves.append(TwistGenerator(f"b{i}", space.basis_s(i), Family.B))
    geo = ((),) + tuple((0,) * i + (1,) for i in range(len(curves) - 1))  # curve i meets curve i - 1 only

    applied = [(f"a{i}", -1) for i in range(genus + 1, 3, -1)]  # first applied first
    applied.append(("a1", -1))
    applied += [(f"b{i}", 1) for i in range(genus, 2, -1)]
    applied += [("b1", 1), ("a3", -1), ("a2", -1), ("b2", 1)]
    return CurveSystem(genus, tuple(curves), geo), TwistWord(tuple(reversed(applied)))
