"""The merge-and-repair reordering that produces a dominant orbit representative.

Given a block-dominant, block-minuscule coweight whose GL batches start
with nonincreasing first entries, the entries can be reordered inside
their Weyl orbit in up to three stages:

1. every family: consecutive GL batches sharing the same first entry are
   merged into one batch and each merged batch re-sorted nonincreasing.
   The merged block sizes define the coarser shape.
2. families B and integral D: if the orthogonal batch is (1, 0, ..., 0)
   and the last GL entry is zero, the leading one of the orthogonal batch
   trades places with the leftmost zero.
3. half-sector D only: every -1 inside the last GL batch flips to +1; if
   an odd number of entries flipped, the final coordinate flips back, so
   the total number of sign changes stays even.

The first-entry chain is the precondition the merge actually needs (equal
first entries are then consecutive); when it fails the input must first be
re-posed in a Weyl-translated basis, which is refused here rather than
automated, because the translation also permutes the Levi shape.

When the batch-average projection is dominant, the chain holds
automatically and the result is guaranteed dominant, block-dominant and
block-minuscule for the coarser shape, and below every dominant weight
(in the same central class) that the input's projection was below.  The
construction itself never needs that comparison weight; the guarantees
are checked by callers and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Coweight,
    NormalizationRequired,
    PreconditionError,
    Sector,
)
from .levi import LeviShape, is_M_dominant, is_M_minuscule

__all__ = ["ReorderResult", "dominant_reordering"]


@dataclass(frozen=True)
class ReorderResult:
    """Outcome of the reordering: the stages, the coarser shape, and bookkeeping.

    ``sign_fixed`` equals ``merged`` outside the half sector, where stage 3
    does not exist; ``flip_count`` counts the -1 to +1 replacements of
    stage 3 (always zero outside the half sector).
    """

    result: Coweight
    coarse_shape: LeviShape
    merged: Coweight
    sign_fixed: Coweight
    flip_count: int


def _merge_batches(
    shape: LeviShape, nu: Coweight
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Stage 1: merge equal-first-entry GL batches and sort each, keeping
    the orthogonal batch untouched.  Returns (entries, merged sizes)."""
    groups: list[list[int]] = []
    last_first: int | None = None
    for sl in shape.gl_slices:
        batch = list(nu.entries[sl])
        if groups and batch[0] == last_first:
            groups[-1].extend(batch)
        else:
            groups.append(batch)
            last_first = batch[0]
    merged: list[int] = []
    for g in groups:
        merged.extend(sorted(g, reverse=True))
    merged.extend(nu.entries[shape.so_slice])
    return tuple(merged), tuple(len(g) for g in groups)


def dominant_reordering(shape: LeviShape, nu: Coweight) -> ReorderResult:
    """Run the full reordering; see the module docstring for the stages.

    Requires ``nu`` block-dominant and block-minuscule
    (:class:`PreconditionError` otherwise) with nonincreasing batch first
    entries (:class:`NormalizationRequired` otherwise).  The
    result lies in the Weyl orbit of ``nu`` and is block-dominant and
    block-minuscule for the returned coarser shape.
    """
    if not is_M_dominant(shape, nu):
        raise PreconditionError(f"{nu} is not block-dominant for {shape}")
    if not is_M_minuscule(shape, nu):
        raise PreconditionError(f"{nu} is not block-minuscule for {shape}")
    firsts = [nu.entries[sl.start] for sl in shape.gl_slices]
    if any(firsts[i] < firsts[i + 1] for i in range(len(firsts) - 1)):
        raise NormalizationRequired(
            f"the batch first entries of {nu} under {shape} are not "
            "nonincreasing; re-pose the input in a Weyl-translated basis first"
        )
    kind, sector = shape.kind, nu.sector
    n, j = kind.rank, shape.so_rank

    entries, merged_sizes = _merge_batches(shape, nu)
    coarse = LeviShape(kind, merged_sizes, j)
    merged = Coweight(kind, entries, sector)

    if sector is Sector.HALF:
        s = coarse.num_gl_batches
        flipped = list(entries)
        flips = 0
        if s >= 1:
            start, end = coarse.sigma(s - 1), coarse.sigma(s)
            for i in range(start, end):
                if flipped[i] == -1:
                    flipped[i] = 1
                    flips += 1
        sign_fixed = Coweight(kind, tuple(flipped), sector)
        if flips % 2 == 1:
            flipped[n - 1] = -flipped[n - 1]
        result = Coweight(kind, tuple(flipped), sector)
        return ReorderResult(result, coarse, merged, sign_fixed, flips)

    swapped = list(entries)
    if (
        j > 0
        and coarse.num_gl_batches >= 1
        and entries[shape.so_slice] == (1,) + (0,) * (j - 1)
        and entries[n - j - 1] == 0
    ):
        target = entries.index(0)
        swapped[target], swapped[n - j] = swapped[n - j], swapped[target]
    result = Coweight(kind, tuple(swapped), sector)
    return ReorderResult(result, coarse, merged, merged, 0)
