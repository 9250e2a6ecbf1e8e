"""Exact commensurability invariants of surface automorphisms."""

from .comparator import InvariantReport, Verdict, compare
from .cover import ComponentCover, CoveringData, lift_cover, normalize_unit_twists, verify_cover_laws
from .decomposition import DilatationLabel, Piece, ReducibleMap, ReducingCurve, power
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
)
from .surfaces import Surface
from .torus import NTClass, TorusAutomorphism, classify_torus, torus_commensurable

__version__ = "0.1.0"
