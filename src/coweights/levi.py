"""Standard Levi subgroups: batch machinery, projections, and minuscule lifts.

A standard Levi subgroup of a classical group is a product of general
linear blocks followed by an orthogonal block of the same family:

    GL_{n_1} x ... x GL_{n_r} x SO-factor of rank j,   n_1 + ... + n_r + j = n.

Coordinates split into *batches*: one batch of size n_k per GL block and a
final batch of size j for the orthogonal factor.  The quotient of the
coweight lattice by the Levi's coroot lattice is represented concretely:
every class has a unique block-dominant, block-minuscule lift, which
serves as its canonical, hashable normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Iterator, Sequence

from .core import (
    Coweight,
    Family,
    GroupKind,
    MismatchError,
    PreconditionError,
    Sector,
    ShapeError,
    _check_dominant,
    _check_kinds,
    _check_sector,
    _integer_target,
    order_rows,
    vec_is_dominant,
)

__all__ = [
    "LeviPoint", "LeviShape", "XMClass", "all_shapes", "class_of", "compositions",
    "is_M_dominant", "is_M_minuscule", "leq_batch_ends", "minuscule_lift", "project",
]


@dataclass(frozen=True)
class LeviShape:
    """Block sizes (n_1, ..., n_r) plus the rank j of the orthogonal factor.

    For family D the value j = 1 is rejected: the same subgroup is
    described by dropping the orthogonal factor and appending a trailing
    GL_1 block, and callers are redirected to that shape.
    """

    kind: GroupKind
    gl_sizes: tuple[int, ...]
    so_rank: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "gl_sizes", tuple(self.gl_sizes))
        if any(s < 1 for s in self.gl_sizes):
            raise ShapeError(f"block sizes must be positive: {self.gl_sizes}")
        if self.so_rank < 0:
            raise ShapeError(f"orthogonal rank must be >= 0: {self.so_rank}")
        if sum(self.gl_sizes) + self.so_rank != self.kind.rank:
            raise ShapeError(
                f"blocks {self.gl_sizes} plus orthogonal rank {self.so_rank} "
                f"do not fill rank {self.kind.rank}"
            )
        if self.kind.family is Family.A and self.so_rank != 0:
            raise ShapeError("family A has no orthogonal factor")
        if self.kind.family is Family.D and self.so_rank == 1:
            raise ShapeError(
                "orthogonal rank 1 describes the same subgroup as rank 0 "
                "with an extra trailing block of size 1; use "
                f"gl_sizes={self.gl_sizes + (1,)}, so_rank=0"
            )

    @property
    def num_gl_batches(self) -> int:
        return len(self.gl_sizes)

    @property
    def gl_slices(self) -> tuple[slice, ...]:
        out = []
        start = 0
        for size in self.gl_sizes:
            out.append(slice(start, start + size))
            start += size
        return tuple(out)

    @property
    def so_slice(self) -> slice:
        n = self.kind.rank
        return slice(n - self.so_rank, n)

    def __str__(self) -> str:
        gl = ",".join(str(s) for s in self.gl_sizes)
        if self.so_rank:
            return f"{gl};{self.so_rank}"
        return gl


@dataclass(frozen=True)
class LeviPoint:
    """A vector constant on each batch and zero on the orthogonal batch.

    Stores one exact rational per GL batch (in doubled units for the half
    sector).  This is the image of a coweight under batch averaging, i.e.
    its projection to the subspace fixed by the Levi's Weyl group.
    """

    shape: LeviShape
    averages: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "averages", tuple(Fraction(a) for a in self.averages)
        )
        if len(self.averages) != self.shape.num_gl_batches:
            raise MismatchError(
                f"expected {self.shape.num_gl_batches} averages, "
                f"got {len(self.averages)}"
            )

    def expand(self) -> tuple[Fraction, ...]:
        """The full rational vector: averages repeated, zeros on the SO batch."""
        out: list[Fraction] = []
        for avg, size in zip(self.averages, self.shape.gl_sizes):
            out.extend([avg] * size)
        out.extend([Fraction(0)] * self.shape.so_rank)
        return tuple(out)


@dataclass(frozen=True)
class XMClass:
    """A class modulo the Levi's coroot lattice, held by its canonical lift.

    Two classes are equal exactly when their canonical lifts agree
    entrywise, so the dataclass equality/hash is the class equality.
    """

    shape: LeviShape
    canonical_lift: Coweight

    @property
    def batch_sums(self) -> tuple[int, ...]:
        e = self.canonical_lift.entries
        return tuple(sum(e[sl]) for sl in self.shape.gl_slices)

    @property
    def so_class(self) -> int | None:
        return _so_class(self.shape, self.canonical_lift)

    def sort_key(self) -> tuple[int, ...]:
        return self.canonical_lift.entries


def _batch_constant(shape: LeviShape, values: Sequence[int]) -> list[int]:
    """One integer per GL batch, repeated over its batch, then zeros on the
    orthogonal batch: :meth:`LeviPoint.expand` in integers."""
    out: list[int] = []
    for value, size in zip(values, shape.gl_sizes):
        out += [value] * size
    return out + [0] * shape.so_rank


def project(shape: LeviShape, x: Coweight) -> LeviPoint:
    """Batch averages of ``x``; the orthogonal batch contributes zero.

    This equals the average of ``x`` over the Levi's Weyl group orbit: the
    symmetric group of each GL batch averages the batch, and the sign
    flips of the orthogonal factor cancel its batch entirely.
    """
    _check_kinds(shape.kind, x.kind)
    averages = tuple(
        Fraction(sum(x.entries[sl]), size)
        for sl, size in zip(shape.gl_slices, shape.gl_sizes)
    )
    return LeviPoint(shape, averages)


def has_dominant_projection(shape: LeviShape, x: Coweight) -> bool:
    """Whether the batch averages of ``x`` lie in the dominant chamber.

    Decided in integers: batch k's sum times ``lcm(gl_sizes) // n_k`` is
    its average times ``lcm(gl_sizes)``, and scaling by a positive number
    keeps every inequality of the chamber.
    """
    _check_kinds(shape.kind, x.kind)
    scale = lcm(*shape.gl_sizes)
    scaled = [
        sum(x.entries[sl]) * (scale // size)
        for sl, size in zip(shape.gl_slices, shape.gl_sizes)
    ]
    return vec_is_dominant(shape.kind.family, _batch_constant(shape, scaled))


def is_M_dominant(shape: LeviShape, x: Coweight) -> bool:
    """Dominance for the Levi: each GL batch dominant for GL (nonincreasing),
    and the orthogonal batch dominant for its own factor."""
    _check_kinds(shape.kind, x.kind)
    e = x.entries
    return all(vec_is_dominant(Family.A, e[sl]) for sl in shape.gl_slices) and (
        shape.so_rank == 0 or vec_is_dominant(shape.kind.family, e[shape.so_slice])
    )


def is_M_minuscule(shape: LeviShape, x: Coweight) -> bool:
    """Whether every Levi root pairs with ``x`` in {-1, 0, 1}.

    In the doubled half sector the admissible pairings are {-2, 0, 2}.
    Concretely: entries within a GL batch spread by at most 1 (2 when
    doubled); the orthogonal batch has at most one nonzero entry, of
    absolute value 1 (all entries +-1 in the doubled sector).
    """
    _check_kinds(shape.kind, x.kind)
    e = x.entries
    for sl in shape.gl_slices:
        batch = e[sl]
        if batch and max(batch) - min(batch) > x.sector.unit:
            return False
    j = shape.so_rank
    if j == 0:
        return True
    so = e[shape.so_slice]
    if x.sector is Sector.HALF:
        return all(v in (-1, 1) for v in so)
    return sum(1 for v in so if v != 0) <= 1 and all(abs(v) <= 1 for v in so)


def _so_class_reps(j: int, sector: Sector) -> dict[int, tuple[int, ...]]:
    """Canonical dominant minuscule orthogonal batches, keyed by class."""
    if sector is Sector.HALF:
        plus = (1,) * j
        minus = (1,) * (j - 1) + (-1,)
        return {sum(plus) % 4: plus, sum(minus) % 4: minus}
    return {0: (0,) * j, 1: (1,) + (0,) * (j - 1)}


def so_classes(shape: LeviShape, sector: Sector) -> list[int | None]:
    """The orthogonal classes of the shape, in increasing order; ``[None]``
    without an orthogonal factor."""
    if shape.so_rank == 0:
        return [None]
    return sorted(_so_class_reps(shape.so_rank, sector))


def _so_class(shape: LeviShape, x: Coweight) -> int | None:
    """The class of ``x``'s orthogonal batch: its sum mod two units, so mod 4
    when doubled; ``None`` without an orthogonal factor."""
    if shape.so_rank == 0:
        return None
    return sum(x.entries[shape.so_slice]) % (2 * x.sector.unit)


def minuscule_lift(
    shape: LeviShape,
    sums: Sequence[int],
    so_class: int | None = None,
    sector: Sector = Sector.INTEGRAL,
) -> Coweight:
    """The unique block-dominant, block-minuscule coweight with the given
    batch sums and orthogonal class.

    Each GL batch spreads its sum as evenly as possible in nonincreasing
    order (floor values with the remainder distributed as +1 steps), in
    units of :attr:`Sector.unit`: the doubled sector's entries are
    ``2 y + 1``, its odd values, with the y spread the same way.
    The orthogonal batch is the canonical representative of ``so_class``,
    which must already be reduced: the sum mod 2, or mod 4 when doubled.
    """
    sums = tuple(sums)
    if len(sums) != shape.num_gl_batches:
        raise MismatchError(
            f"expected {shape.num_gl_batches} batch sums, got {len(sums)}"
        )
    if not all(isinstance(s, int) for s in sums):
        raise TypeError("batch sums must be integers")
    _check_sector(shape.kind.family, sector)

    unit = sector.unit
    offset = unit - 1  # each entry is unit * y + offset
    entries: list[int] = []
    for s, size in zip(sums, shape.gl_sizes):
        if (s - offset * size) % unit:
            raise PreconditionError(
                f"half-sector batch sum {s} must have the parity of the "
                f"batch size {size} (all entries are odd)"
            )
        q, t = divmod((s - offset * size) // unit, size)
        entries.extend([unit * (q + 1) + offset] * t + [unit * q + offset] * (size - t))

    j = shape.so_rank
    if j == 0:
        if so_class is not None:
            raise PreconditionError(
                "so_class given but the shape has no orthogonal factor"
            )
    else:
        reps = _so_class_reps(j, sector)
        if so_class is None:
            raise PreconditionError("so_class required: shape has an "
                                    "orthogonal factor")
        if so_class not in reps:
            raise PreconditionError(
                f"invalid so_class {so_class} for {shape} "
                f"(valid: {sorted(reps)})"
            )
        entries.extend(reps[so_class])

    return Coweight(shape.kind, tuple(entries), sector)


def class_of(shape: LeviShape, x: Coweight) -> XMClass:
    """The class of ``x`` modulo the Levi's coroot lattice.

    GL batches contribute their sums (differences there are zero-sum
    vectors); the orthogonal factor contributes its sum mod 2, or mod 4 in
    the doubled sector, because its coroot lattice is the even-sum
    sublattice.
    """
    _check_kinds(shape.kind, x.kind)
    sums = tuple(sum(x.entries[sl]) for sl in shape.gl_slices)
    return XMClass(shape, minuscule_lift(shape, sums, _so_class(shape, x), x.sector))


def leq_batch_ends(beta: LeviPoint, mu: Coweight) -> bool:
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

    The averages are read once as integers, ``den * beta.averages``
    (:func:`coweights.core._integer_target`), and the rows compared
    against ``den * mu``.
    """
    shape = beta.shape
    _check_kinds(shape.kind, mu.kind)
    _check_dominant(mu)

    den, scaled = _integer_target(beta.averages)
    vec = _batch_constant(shape, scaled)
    rows_b, rows_m = order_rows(shape.kind.family, vec, [den * e for e in mu.entries])
    if shape.kind.family is Family.A and rows_b[-1] != rows_m[-1]:
        raise PreconditionError(
            "family A requires equal total sums (coroot span): "
            f"{Fraction(rows_b[-1], den)} vs {Fraction(rows_m[-1], den)}"
        )
    return all(rows_b[end - 1] <= rows_m[end - 1] for end in accumulate(shape.gl_sizes))


# ---------------------------------------------------------------------------
# Shape enumeration
# ---------------------------------------------------------------------------

def compositions(total: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of positive integers with the given sum."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def all_shapes(kind: GroupKind) -> Iterator[LeviShape]:
    """Every standard Levi shape for the group, generated in the order of
    (orthogonal rank, GL sizes): :func:`compositions` is lexicographic."""
    n = kind.rank
    if kind.family is Family.A:
        so_ranks: list[int] = [0]
    elif kind.family is Family.B:
        so_ranks = list(range(n + 1))
    else:
        so_ranks = [0] + list(range(2, n + 1))
    for j in so_ranks:
        for gl in compositions(n - j):
            yield LeviShape(kind, gl, j)
