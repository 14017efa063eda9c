"""Shared test helpers: the grids of the exhaustive sweeps, and the
literal subset search over the explicit Weyl orbit, the reference that
``caratheodory_in_hull`` is checked against."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import factorial
from typing import Sequence

from coweights import CapExceeded, Coweight, Family, GroupKind, NotDominantError, Sector
from coweights.core import Scalar, Vector, coerce_vector, is_dominant
from coweights.oracle import weyl_orbit

# every (family, sector) combination the package supports
FAMILY_SECTORS = [
    (Family.A, Sector.INTEGRAL),
    (Family.B, Sector.INTEGRAL),
    (Family.D, Sector.INTEGRAL),
    (Family.D, Sector.HALF),
]


def entry_values(sector: Sector, bound: int) -> list[int]:
    if sector is Sector.HALF:
        return [v for v in range(-bound, bound + 1) if v % 2 != 0]
    return list(range(-bound, bound + 1))


def box_coweights(
    family: Family, sector: Sector, rank: int, bound: int
) -> list[Coweight]:
    """Every coweight of the kind with entries in [-bound, bound]."""
    kind = GroupKind(family, rank)
    vals = entry_values(sector, bound)
    return [
        Coweight(kind, vec, sector) for vec in product(vals, repeat=rank)
    ]


def ranks_for(family: Family, max_rank: int) -> list[int]:
    start = 2 if family is Family.D else 1
    return list(range(start, max_rank + 1))


# largest Weyl group the literal subset search accepts by default: it
# enumerates the orbit
DEFAULT_WEYL_CAP = 384


def weyl_group_order(family: Family, rank: int) -> int:
    if family is Family.A:
        return factorial(rank)
    if family is Family.B:
        return 2**rank * factorial(rank)
    return 2 ** (rank - 1) * factorial(rank)


def _solve_support_weights(
    chosen: Sequence[Vector], target: Sequence[Scalar]
) -> list[Fraction] | None:
    """Solve (weights sum to 1, weighted point sum = target) by elimination.

    Only full-column-rank systems are solved; rank-deficient supports are
    skipped because a smaller support then realizes the same point.
    """
    k = len(chosen)
    dim = len(tuple(target))
    rows = [
        [Fraction(chosen[jcol][i]) for jcol in range(k)] + [Fraction(tuple(target)[i])]
        for i in range(dim)
    ]
    rows.append([Fraction(1)] * k + [Fraction(1)])
    pivot_row = 0
    where: list[int] = []
    for col in range(k):
        sel = next(
            (i for i in range(pivot_row, len(rows)) if rows[i][col] != 0), None
        )
        if sel is None:
            return None
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        inv = 1 / rows[pivot_row][col]
        rows[pivot_row] = [e * inv for e in rows[pivot_row]]
        for i in range(len(rows)):
            if i != pivot_row and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pivot_row])]
        where.append(pivot_row)
        pivot_row += 1
    if any(rows[i][k] != 0 for i in range(pivot_row, len(rows))):
        return None
    return [rows[where[col]][k] for col in range(k)]


def convex_combination_bruteforce(
    x: Coweight | Sequence[Scalar],
    mu: Coweight,
    *,
    weyl_cap: int = DEFAULT_WEYL_CAP,
) -> dict[Vector, Fraction] | None:
    """Literal support search: try every orbit subset of size <= rank+1.

    Exponentially slower than :func:`caratheodory_in_hull` but a direct
    transcription of the definition over the explicit :func:`weyl_orbit`;
    the tests compare the face descent against it.  A Weyl group of more
    than ``weyl_cap`` elements raises :class:`CapExceeded`.
    """
    if not is_dominant(mu):
        raise NotDominantError(f"mu={mu} is not dominant")
    order = weyl_group_order(mu.kind.family, mu.kind.rank)
    if order > weyl_cap:
        raise CapExceeded(
            f"Weyl group order {order} exceeds the cap {weyl_cap}"
        )
    target = coerce_vector(x, mu)
    pts = weyl_orbit(mu.kind.family, mu.entries)
    for size in range(1, len(target) + 2):
        for chosen in combinations(pts, size):
            weights = _solve_support_weights(chosen, target)
            if weights is not None and all(w >= 0 for w in weights):
                return {c: w for c, w in zip(chosen, weights) if w}
    return None
