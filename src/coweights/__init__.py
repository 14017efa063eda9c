"""Exact coweight-lattice combinatorics for the split classical families.

The package models coweight lattices of the families A, B, and D with
exact integer arithmetic, implements their dominance orders, Levi batch
machinery, canonical minuscule lifts, and the dominant reordering
construction, and ships an exhaustive brute-force verifier for the
projected hull/class set equality at small rank.

Each module lists its public names in its own ``__all__``; the package
re-exports exactly those.
"""

from . import core, levi, oracle, reorder
from .core import *
from .levi import *
from .oracle import *
from .reorder import *

__version__ = "0.1.0"

__all__ = [*core.__all__, *levi.__all__, *oracle.__all__, *reorder.__all__]
