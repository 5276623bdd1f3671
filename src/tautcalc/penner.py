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
from typing import Optional, Tuple

from .exact import is_int
from .homology import Family, HomologyClass, SymplecticSpace, TwistGenerator, TwistWord, check_labels


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

    `crossings` holds the nonzero geometric intersection numbers: one
    (i, j, count) triple, with j < i and count > 0, for each pair of curves
    (indices into `curves`) that meet, in increasing order of (i, j).  Pairs
    not listed are disjoint, so the chain of 2g + 1 curves stores 2g
    triples.  Curves within one family must be disjoint (that is what makes
    each family a multicurve).  `regions` is an optional certificate
    describing the complementary regions.
    """

    genus: int
    curves: Tuple[TwistGenerator, ...]
    crossings: Tuple[Tuple[int, int, int], ...]
    regions: Optional[Tuple[Region, ...]] = None

    def __post_init__(self):
        if type(self.curves) is not tuple or not all(isinstance(c, TwistGenerator) for c in self.curves):
            raise ValueError("curves must be a tuple of TwistGenerators")
        if self.regions is not None and (type(self.regions) is not tuple
                                         or not all(isinstance(r, Region) for r in self.regions)):
            raise ValueError("regions must be None or a tuple of Regions")
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
        crossings = self.crossings
        if type(crossings) is not tuple:
            raise ValueError("crossings must be a tuple of (i, j, count) triples")
        last = (0, -1)
        for k, entry in enumerate(crossings):
            if not (type(entry) is tuple and len(entry) == 3 and all(map(is_int, entry))):
                raise ValueError(f"crossings[{k}] must be an (i, j, count) triple of integers")
            i, j, count = entry
            if not (0 <= j < i < n and (i, j) > last):
                raise ValueError(
                    f"crossings[{k}]: need 0 <= j < i < {n}, in increasing order of (i, j)"
                )
            if count <= 0:
                raise ValueError(f"crossings[{k}]: count must be positive")
            if self.curves[j].family == self.curves[i].family:
                raise ValueError(
                    f"curves {self.curves[j].label!r} and {self.curves[i].label!r} are in "
                    "the same family but intersect"
                )
            last = (i, j)

    @property
    def total_intersections(self) -> int:
        return sum(count for _, _, count in self.crossings)

    @property
    def space(self) -> SymplecticSpace:
        return SymplecticSpace(self.genus)

    def generator_map(self):
        return {c.label: c for c in self.curves}


@dataclass(frozen=True)
class PennerReport:
    """Outcome of validating a word over a curve system."""

    all_curves_used: bool
    sign_discipline: bool
    filling_status: FillingStatus
    messages: Tuple[str, ...] = ()

    @property
    def word_valid(self) -> bool:
        return self.all_curves_used and self.sign_discipline


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
    for i, j, _ in sys.crossings:
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
    included in the report.  `check_labels` refuses an unknown label.
    """
    table = sys.generator_map()
    check_labels(word, table)
    used = set()
    signs = {Family.A: set(), Family.B: set()}
    messages = []
    for label, exp in word:
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
# b_i = s_i.  The system stores 2g + 1 classes of at most two nonzeros and 2g
# crossings, and the action of the genus-g word has 8g nonzeros; building
# them, M - Id and the determinant cost in proportion to those.  The vmatrix
# and penner reports still print their matrices densely: each row is spliced
# from its nonzeros into one zero row, so the Python work is O(g), but the
# report's bytes are O(g^2) (5 MB of JSON at g = 240).  Until the reports
# print only the nonzeros, `check_genus_cap` caps the genus of the chain
# systems and, in `jsonio.penner_input_from_json`, of a penner document.
MAX_CHAIN_GENUS = 240


def check_genus_cap(genus: int) -> None:
    """Refuse a genus above MAX_CHAIN_GENUS."""
    if genus > MAX_CHAIN_GENUS:
        raise ValueError(f"genus must be at most {MAX_CHAIN_GENUS}")


def chain_system(genus: int) -> Tuple[CurveSystem, TwistWord]:
    """The (2g+1)-curve chain system and its three-phase word, for genus
    2..MAX_CHAIN_GENUS.  The word twists negatively along the a-curves
    except a_2, a_3; then positively along the b-curves except b_2; then
    a_3, a_2 negatively and b_2 positively.  At genus 3 this is the word
    b2 a2^- a3^- b1 b3 a1^- a4^- (outermost letter first)."""
    if not is_int(genus) or genus < 2:
        raise ValueError("genus must be an integer >= 2")
    check_genus_cap(genus)
    space = SymplecticSpace(genus)
    # a_i = r_{i-1} + r_i, at coordinates 2i - 4 and 2i - 2, and b_i = s_i, at
    # 2i - 1; a_1 and a_{g+1} each have one of the two
    supports = [((0, 1),)] + [((2 * i - 4, 1), (2 * i - 2, 1)) for i in range(2, genus + 1)]
    supports.append(((2 * genus - 2, 1),))
    curves = []
    for i, support in enumerate(supports, 1):
        curves.append(TwistGenerator(f"a{i}", HomologyClass(space, support), Family.A))
        if i <= genus:
            curves.append(TwistGenerator(f"b{i}", HomologyClass(space, ((2 * i - 1, 1),)), Family.B))
    crossings = tuple((i, i - 1, 1) for i in range(1, len(curves)))  # curve i meets curve i - 1 only

    applied = [(f"a{i}", -1) for i in range(genus + 1, 3, -1)]  # first applied first
    applied.append(("a1", -1))
    applied += [(f"b{i}", 1) for i in range(genus, 2, -1)]
    applied += [("b1", 1), ("a3", -1), ("a2", -1), ("b2", 1)]
    return CurveSystem(genus, tuple(curves), crossings), TwistWord(tuple(reversed(applied)))
