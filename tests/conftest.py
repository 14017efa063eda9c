"""Shared test helpers: the grids of the exhaustive sweeps; the literal
subset search over the explicit Weyl orbit, the reference that
``caratheodory_in_hull`` is checked against; and the order kernels in
``Fraction`` arithmetic, the references that the integer ``leq``,
``leq_batch_ends`` and ``has_dominant_projection`` are checked against."""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations, product
from math import factorial
from typing import Sequence

from coweights import (
    CapExceeded, Coweight, Family, GroupKind, NotDominantError, PreconditionError, Sector,
)
from coweights.core import (
    Scalar, Vector, _check_dominant, _check_kinds, _vec_leq, coerce_vector, is_dominant,
    order_rows, vec_is_dominant,
)
from coweights.levi import LeviPoint, LeviShape, project
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


# The order kernels as they were before they compared in integers, kept
# unedited but for their names: each sums ``Fraction`` entries directly.

def fraction_leq(x: Coweight | Sequence[Scalar], mu: Coweight) -> bool:
    """The dominance-order inequalities ``x <= mu``.

    ``mu`` must be dominant.  ``x`` may be a coweight or a raw vector of
    exact rationals (batch averages are rational, so the order must accept
    them).  This is the real half-space condition only; the lattice-class
    condition is :func:`same_class_XG`.
    """
    _check_dominant(mu)
    vec = coerce_vector(x, mu)
    return _vec_leq(mu.kind.family, vec, mu.entries)


def fraction_has_dominant_projection(shape: LeviShape, x: Coweight) -> bool:
    """Whether the batch averages of ``x`` lie in the dominant chamber."""
    return vec_is_dominant(shape.kind.family, project(shape, x).expand())


def fraction_leq_batch_ends(beta: LeviPoint, mu: Coweight) -> bool:
    """The dominance inequalities restricted to batch-end positions.

    For a vector constant on the batches of ``beta.shape`` (zero on the
    orthogonal batch) whose difference from ``mu`` lies in the coroot span,
    checking the order relation only at the end of each batch is equivalent
    to the full check: the remaining inequalities pair against weights
    fixed by the Levi.

    One rule for every family: the rows of :func:`coweights.core.order_rows`
    at the GL batch ends n_1, n_1 + n_2, ..., n - j.  Family A first
    requires equal total sums (the coroot span).  In family D a batch
    ending at n-1 is checked on the spin row S_{n-1} - x_n.  The total row
    S_n is no batch end when the orthogonal factor has rank j >= 2, and it
    follows from the row at the last end n-j (or is 0 <= S_n(mu) when
    r = 0): beta vanishes on that batch, so S_n(beta) = S_{n-j}(beta), while
    S_n(mu) >= S_{n-j}(mu) because the last j >= 2 entries of a dominant
    ``mu`` sum to at least mu_{n-1} + mu_n >= 0.
    """
    shape = beta.shape
    _check_kinds(shape.kind, mu.kind)
    _check_dominant(mu)

    rows_b, rows_m = order_rows(shape.kind.family, beta.expand(), mu.entries)
    if shape.kind.family is Family.A and rows_b[-1] != rows_m[-1]:
        raise PreconditionError(
            "family A requires equal total sums (coroot span): "
            f"{rows_b[-1]} vs {rows_m[-1]}"
        )
    return all(rows_b[end - 1] <= rows_m[end - 1] for end in accumulate(shape.gl_sizes))
