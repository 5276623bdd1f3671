"""Exact calculators for twist actions on surface homology, norm-ball
polytope duality, sutured Euler characteristics, and interval holonomy."""

from .matrices import IntMatrix
from .homology import (
    Family,
    HomologyClass,
    SymplecticSpace,
    TwistGenerator,
    TwistWord,
    algebraic_intersection,
    mapping_torus,
    word_action,
)
from .penner import (
    CurveSystem,
    FillingStatus,
    PennerReport,
    Region,
    chain_system,
    filling_check,
    validate_word,
)
from .polytope import (
    CandidatePoint,
    NormSpec,
    RatPolytope,
    candidate_points,
    dual_norm_value,
    integral_boundary_points,
    norm_ball_from_values,
    polar_dual,
)
from .sutured import (
    CorneredSurface,
    NovikovWitness,
    SuturedSolidTorus,
    Tangency,
    TangencyKind,
    WitnessStep,
    core_disk,
    euler_pairing,
    is_fully_marked,
    novikov_witness,
    poincare_hopf_chi,
    sutured_chi,
)
from .holonomy import (
    Concatenation,
    ConjugacyWitness,
    PLHomeo,
    TiledHomeo,
    TileShiftMap,
    bundled_shifts,
    solve_conjugacy,
)

__version__ = "0.1.0"
