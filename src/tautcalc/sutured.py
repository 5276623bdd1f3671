"""Sutured Euler-characteristic calculus and transversal-set arithmetic.

Corners on a sutured surface adjust its Euler characteristic by -1/2 per
convex corner and +1/2 per concave corner.  Pairings of an Euler class
with a surface are index sums over tangencies (saddles count -1, centers
+1, each weighted by an orientation sign); dropping the signs gives the
Euler characteristic, which forces the two sums to share a parity.

`novikov_witness` produces the arithmetic certificate behind the
no-foliation argument on the twisted sutured solid torus: combining a
positive transversal with loops in a leaf reaches the exponent zero,
which contradicts the non-triviality of closed transversals.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Tuple

from .exact import is_int


@dataclass(frozen=True)
class CorneredSurface:
    """A surface with corners: underlying chi, convex and concave counts."""

    base_chi: int
    convex: int = 0
    concave: int = 0

    def __post_init__(self):
        for name in ("base_chi", "convex", "concave"):
            v = getattr(self, name)
            if not is_int(v):
                raise ValueError(f"{name} must be an integer")
            if abs(v) > MAX_SURFACE_COUNT:
                raise ValueError(f"{name} must be at most {MAX_SURFACE_COUNT}")
        if self.convex < 0 or self.concave < 0:
            raise ValueError("corner counts must be nonnegative")


def sutured_chi(s: CorneredSurface) -> Fraction:
    """chi = chi(underlying) - convex/2 + concave/2, exactly."""
    return Fraction(s.base_chi) - Fraction(s.convex, 2) + Fraction(s.concave, 2)


@dataclass(frozen=True)
class SuturedSolidTorus:
    """Solid torus whose sutures wind p times longitudinally, once meridionally."""

    longitude_wraps: int
    suture_count: int = 2

    def __post_init__(self):
        for name in ("longitude_wraps", "suture_count"):
            v = getattr(self, name)
            if not is_int(v) or v < 1:
                raise ValueError(f"{name} must be a positive integer")
            if v > MAX_TORUS_COUNT:
                raise ValueError(f"{name} must be at most {MAX_TORUS_COUNT}")


def core_disk(t: SuturedSolidTorus) -> CorneredSurface:
    """The core disk: one convex corner per crossing of the boundary with a
    suture, suture_count * p crossings in total."""
    return CorneredSurface(1, t.suture_count * t.longitude_wraps, 0)


# -- index sums over tangencies -------------------------------------------------


class TangencyKind(enum.Enum):
    SADDLE = "saddle"
    CENTER = "center"


_INDEX = {TangencyKind.SADDLE: -1, TangencyKind.CENTER: 1}


@dataclass(frozen=True)
class Tangency:
    kind: TangencyKind
    sign: int

    def __post_init__(self):
        if not isinstance(self.kind, TangencyKind):
            raise ValueError("kind must be a TangencyKind")
        if not is_int(self.sign) or self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def index(self) -> int:
        return _INDEX[self.kind]


# A pairing report lists every tangency, and its time grows with their
# count: 10**5 of them took 0.32 to 0.43 s as a report in either format,
# about a fifth of the two seconds a report at its caps is given.
MAX_TANGENCIES = 100_000


def check_tangency_count(count: int) -> None:
    """Refuse a tangency list of more than MAX_TANGENCIES entries."""
    if count > MAX_TANGENCIES:
        raise ValueError(f"a tangency list has at most {MAX_TANGENCIES} entries, got {count}")


def euler_pairing(tangencies: Iterable[Tangency]) -> int:
    """Signed index sum: the Euler-class pairing with the surface."""
    return sum(t.sign * t.index for t in tangencies)


def poincare_hopf_chi(tangencies: Iterable[Tangency]) -> int:
    """Unsigned index sum: the Euler characteristic of the surface.

    Always has the same parity as the signed sum: flipping one sign changes
    that sum by 2.
    """
    return sum(t.index for t in tangencies)


def is_fully_marked(tangencies: Iterable[Tangency]) -> bool:
    """True iff all tangencies carry the same sign, so the pairing reaches
    +-chi.  Requires saddle-only general position; centers are rejected."""
    ts = tuple(tangencies)
    if any(t.kind is TangencyKind.CENTER for t in ts):
        raise ValueError("center tangency present: not in general position")
    signs = {t.sign for t in ts}
    return len(signs) <= 1


# -- transversal-set witness ----------------------------------------------------


@dataclass(frozen=True)
class WitnessStep:
    op: str  # "semigroup" or "pi1"
    exponent_added: int
    running_total: int


@dataclass(frozen=True)
class NovikovWitness:
    """Derivation of a null-homotopic positive transversal.

    Starting from a positive transversal of exponent m, semigroup closure
    adds m per step until the total is |k| * m, then one closure step under
    loops in the leaf (exponents in k Z) lands exactly on zero.
    """

    k: int
    m: int
    steps: Tuple[WitnessStep, ...]

    @property
    def initial_exponent(self) -> int:
        return self.m

    @property
    def final_exponent(self) -> int:
        return self.steps[-1].running_total if self.steps else self.initial_exponent


# The witness has |k| steps and a report lists each one; its running totals
# reach |k| * |m|, so capping |m| keeps each total under 23 digits.
MAX_WITNESS_K = 4096
MAX_WITNESS_M = 10**18
# The chi and core-disk reports print every field and chi exactly, so each
# field has at most 19 digits.  A core disk has suture_count * wraps convex
# corners, so each torus count is capped at the square root of that cap.
MAX_SURFACE_COUNT = 10**18
MAX_TORUS_COUNT = 10**9


def novikov_witness(k: int, m: int) -> NovikovWitness:
    """Build the contradiction certificate for generator exponent k and
    transversal exponent m (both nonzero integers, |k| <= MAX_WITNESS_K and
    |m| <= MAX_WITNESS_M)."""
    for name, v in (("k", k), ("m", m)):
        if not is_int(v) or v == 0:
            raise ValueError(f"{name} must be a nonzero integer")
    if abs(k) > MAX_WITNESS_K:
        raise ValueError(f"k must be at most {MAX_WITNESS_K}")
    if abs(m) > MAX_WITNESS_M:
        raise ValueError(f"m must be at most {MAX_WITNESS_M}")
    # a negative generator exponent is replaced by the inverse generator
    reps = abs(k)
    steps = []
    total = m
    for _ in range(reps - 1):
        total += m
        steps.append(WitnessStep("semigroup", m, total))
    added = -reps * m  # equals k * (-sign(k) * m), a multiple of k
    total += added
    steps.append(WitnessStep("pi1", added, total))
    return NovikovWitness(k, m, tuple(steps))
