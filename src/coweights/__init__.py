"""Exact coweight-lattice combinatorics for the split classical families.

The package models coweight lattices of the families A, B, and D with
exact integer arithmetic, implements their dominance orders, Levi batch
machinery, canonical minuscule lifts, and the dominant reordering
construction, and ships an exhaustive brute-force verifier for the
projected hull/class set equality at small rank.
"""

from .core import (
    CapExceeded,
    Coweight,
    Family,
    GroupKind,
    MismatchError,
    NormalizationRequired,
    NotDominantError,
    PreconditionError,
    Sector,
    ShapeError,
    coweight,
    dominant_representative,
    in_hull,
    is_dominant,
    leq,
    prefix_sums,
    same_class_XG,
    weyl_orbit_equivalent,
)
from .levi import (
    LeviPoint,
    LeviShape,
    XMClass,
    all_shapes,
    class_of,
    compositions,
    is_M_dominant,
    is_M_minuscule,
    leq_batch_ends,
    minuscule_lift,
    project,
)
from .oracle import (
    SweepConfig,
    VerificationReport,
    caratheodory_in_hull,
    dominant_coweights,
    enumerate_Pmu,
    sweep,
    verify_main_theorem,
    weyl_orbit,
)
from .reorder import ReorderResult, check_batch_order, dominant_reordering

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "Coweight",
    "Family",
    "GroupKind",
    "LeviPoint",
    "LeviShape",
    "MismatchError",
    "NormalizationRequired",
    "NotDominantError",
    "PreconditionError",
    "ReorderResult",
    "Sector",
    "ShapeError",
    "SweepConfig",
    "VerificationReport",
    "XMClass",
    "all_shapes",
    "caratheodory_in_hull",
    "check_batch_order",
    "class_of",
    "compositions",
    "coweight",
    "dominant_coweights",
    "dominant_reordering",
    "dominant_representative",
    "enumerate_Pmu",
    "in_hull",
    "is_M_dominant",
    "is_M_minuscule",
    "is_dominant",
    "leq",
    "leq_batch_ends",
    "minuscule_lift",
    "prefix_sums",
    "project",
    "same_class_XG",
    "sweep",
    "verify_main_theorem",
    "weyl_orbit",
    "weyl_orbit_equivalent",
]
