"""Randomised coverage past the exhaustive grids, at ranks 5-12.

Hypothesis draws the cases with ``derandomize=True``, so every run checks
the same examples: the oracle against the prefix-sum hull test, the class
map against the Levi's Weyl group W_M, canonical lifts against the class
map and the reordering's postconditions, and the integer order kernels
against their ``Fraction`` references.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FAMILY_SECTORS,
    entry_values,
    fraction_has_dominant_projection,
    fraction_leq,
    fraction_leq_batch_ends,
)
from coweights import (
    Family,
    GroupKind,
    LeviPoint,
    PreconditionError,
    Sector,
    all_shapes,
    caratheodory_in_hull,
    class_of,
    coweight,
    dominant_representative,
    in_hull,
    leq,
    leq_batch_ends,
    minuscule_lift,
)
from coweights.levi import has_dominant_projection, so_classes
from coweights.oracle import reordering_failures

RANKS = st.integers(5, 12)
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def _entries(data, sector: Sector, rank: int, bound: int) -> list[int]:
    """``rank`` entries in [-bound, bound]; odd ones in the half sector."""
    values = st.sampled_from(entry_values(sector, bound))
    return data.draw(st.lists(values, min_size=rank, max_size=rank))


@lru_cache(maxsize=None)
def _shapes(family: Family, rank: int) -> list:
    return list(all_shapes(GroupKind(family, rank)))


def _weyl_image(data, family: Family, entries: list[int]) -> list[int]:
    """A Weyl conjugate of ``entries``: a permutation, then sign changes
    (none in A, any number in B, an even number in D)."""
    n = len(entries)
    perm = data.draw(st.permutations(range(n)))
    signs = [1] * n
    if family is not Family.A:
        signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    if family is Family.D and signs.count(-1) % 2:
        signs[0] = -signs[0]
    return [s * entries[i] for s, i in zip(signs, perm)]


@SETTINGS
@given(st.sampled_from(FAMILY_SECTORS), RANKS, st.data())
def test_oracle_matches_in_hull_at_high_rank(family_sector, rank, data):
    """``caratheodory_in_hull`` equals ``in_hull`` on three rational points
    per dominant μ: a convex combination of up to four Weyl conjugates of
    μ (inside), one conjugate pushed out by 1/m of itself (outside unless
    μ = 0), and the combination moved by a random offset (either side)."""
    family, sector = family_sector
    mu = dominant_representative(coweight(family, _entries(data, sector, rank, 5), sector))
    weights = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    total = sum(weights)
    inside = [Fraction(0)] * rank
    for w in weights:
        vertex = _weyl_image(data, family, list(mu.entries))
        inside = [e + Fraction(w * v, total) for e, v in zip(inside, vertex)]
    m = data.draw(st.integers(1, 5))
    outside = [Fraction(v * (m + 1), m) for v in vertex]
    den = data.draw(st.integers(1, 4))
    offset = data.draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank))
    moved = [e + Fraction(k, den) for e, k in zip(inside, offset)]

    assert caratheodory_in_hull(inside, mu) and in_hull(inside, mu), (mu, inside)
    if any(mu.entries):
        assert not caratheodory_in_hull(outside, mu), (mu, outside)
        assert not in_hull(outside, mu), (mu, outside)
    assert caratheodory_in_hull(moved, mu) == in_hull(moved, mu), (mu, moved)


@SETTINGS
@given(st.sampled_from(FAMILY_SECTORS), RANKS, st.data())
def test_class_of_invariant_under_levi_weyl_group(family_sector, rank, data):
    """``class_of`` is constant on W_M-orbits: permutations inside each GL
    batch, and signed permutations of the orthogonal batch (any number of
    sign changes in B, an even number in D)."""
    family, sector = family_sector
    shape = data.draw(st.sampled_from(_shapes(family, rank)))
    x = coweight(family, _entries(data, sector, rank, 4), sector)

    image: list[int] = []
    for sl in shape.gl_slices:
        batch = list(x.entries[sl])
        image += [batch[i] for i in data.draw(st.permutations(range(len(batch))))]
    if shape.so_rank:
        image += _weyl_image(data, family, list(x.entries[shape.so_slice]))
    y = coweight(family, image, sector)
    assert class_of(shape, y) == class_of(shape, x), (shape, x, y)


@SETTINGS
@given(st.sampled_from(FAMILY_SECTORS), st.integers(5, 8), st.data())
def test_lifts_are_canonical_and_reorder_at_high_rank(family_sector, rank, data):
    """``class_of`` returns each canonical lift it is given, and the
    reordering keeps every postcondition on lifts with a dominant
    projection.  Batch k's entries are ``unit * y + offset`` (odd ones in
    the half sector), its y averaging ``level_k + extra_k / n_k`` over
    nonincreasing levels, the last one -1 at times in family D.  The
    projection is then dominant unless two equal levels carry rising
    extras or the -1 level is too low; such a draw falls back to no
    extras and levels of at least 0."""
    family, sector = family_sector
    shape = data.draw(st.sampled_from(_shapes(family, rank)))
    r, unit = shape.num_gl_batches, sector.unit
    levels = sorted(data.draw(st.lists(st.integers(0, 3), min_size=r, max_size=r)),
                    reverse=True)
    if r and family is Family.D and data.draw(st.booleans()):
        levels[-1] = -1
    extras = [data.draw(st.integers(0, size - 1)) for size in shape.gl_sizes]
    so_class = data.draw(st.sampled_from(so_classes(shape, sector)))

    def lift(levels, extras):
        sums = [unit * (level * size + extra) + (unit - 1) * size
                for level, extra, size in zip(levels, extras, shape.gl_sizes)]
        return minuscule_lift(shape, sums, so_class, sector)

    nu = lift(levels, extras)
    assert class_of(shape, nu).canonical_lift == nu, (shape, nu)
    if not has_dominant_projection(shape, nu):
        nu = lift([max(level, 0) for level in levels], [0] * r)
    assert has_dominant_projection(shape, nu), (shape, nu)
    assert reordering_failures(shape, nu, [dominant_representative(nu)]) == [], (shape, nu)


# rationals with small denominators, in the range of the mu entries drawn below
RATIONALS = st.fractions(-5, 5, max_denominator=6)


@SETTINGS
@given(st.sampled_from(FAMILY_SECTORS), st.integers(5, 10), st.data())
def test_batch_end_order_matches_fraction_reference_at_high_rank(
    family_sector, rank, data
):
    """``leq_batch_ends`` and ``leq`` give their ``Fraction`` references'
    verdicts on a random rational batch-constant point, or raise the same
    ``PreconditionError`` text in family A, whose last average is at times
    filled so that the totals agree."""
    family, sector = family_sector
    shape = data.draw(st.sampled_from(_shapes(family, rank)))
    mu = dominant_representative(coweight(family, _entries(data, sector, rank, 5), sector))
    r = shape.num_gl_batches
    averages = data.draw(st.lists(RATIONALS, min_size=r, max_size=r))
    if family is Family.A and data.draw(st.booleans()):
        used = sum(a * s for a, s in zip(averages, shape.gl_sizes[:-1]))
        averages[-1] = (sum(mu.entries) - used) / shape.gl_sizes[-1]
    beta = LeviPoint(shape, averages)
    x = beta.expand()
    assert leq(x, mu) == fraction_leq(x, mu), (x, mu)
    try:
        expected = fraction_leq_batch_ends(beta, mu)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError) as caught:
            leq_batch_ends(beta, mu)
        assert str(caught.value) == str(exc)
    else:
        assert leq_batch_ends(beta, mu) == expected, (beta, mu)


@SETTINGS
@given(st.sampled_from(FAMILY_SECTORS), st.integers(5, 10), st.data())
def test_order_and_projection_match_fraction_references_at_high_rank(
    family_sector, rank, data
):
    """``leq`` gives its ``Fraction`` reference's verdict on an arbitrary
    rational point and on a coweight, and ``has_dominant_projection`` its
    reference's on that coweight under a random shape."""
    family, sector = family_sector
    mu = dominant_representative(coweight(family, _entries(data, sector, rank, 5), sector))
    x = data.draw(st.lists(RATIONALS, min_size=rank, max_size=rank))
    assert leq(x, mu) == fraction_leq(x, mu), (x, mu)
    y = coweight(family, _entries(data, sector, rank, 5), sector)
    assert leq(y, mu) == fraction_leq(y, mu), (y, mu)
    shape = data.draw(st.sampled_from(_shapes(family, rank)))
    assert has_dominant_projection(shape, y) == fraction_has_dominant_projection(shape, y), (
        shape, y)
