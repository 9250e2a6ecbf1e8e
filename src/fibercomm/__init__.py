"""Exact commensurability invariants of surface automorphisms."""

from .comparator import InvariantReport, Verdict, compare, match_flip_scale
from .cover import ComponentCover, CoveringData, lift_cover, normalize_unit_twists, verify_cover_laws
from .decomposition import (
    DilatationLabel,
    Piece,
    ReducibleMap,
    ReducingCurve,
    a_piece,
    a_total,
    p_polynomial,
    pi_invariant,
    power,
)
from .quadratic import QuadraticNumber, QuadraticUnit, squarefree_part, unit_log_ratio
from .spectrum import (
    BranchData,
    SingularityVector,
    SpectrumQuery,
    delta_from_branch_data,
    pa_obstruction,
    spectrum_count_below,
    spectrum_min,
    spectrum_values,
)
from .staircase import (
    BundlePiece,
    FiberedGraphManifold,
    Gluing,
    PiecePlan,
    RefiberPlan,
    refiber,
    staircase_piece,
    validate_plan,
)
from .surfaces import Surface, euler_characteristic, surfaces_commensurable
from .torus import NTClass, TorusAutomorphism, classify_torus, torus_commensurable

__version__ = "0.1.0"
