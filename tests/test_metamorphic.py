"""Metamorphic relations of the set equality: checks with no reference
implementation, each comparing two instances that must agree.

* B against D.  W(D) has index 2 in W(B), and a zero coordinate absorbs
  the sign parity, so a dominant mu with mu_n = 0 has one orbit in both
  families.  Its central classes agree (B's and D's differ only by the
  even-sum rule they share), and so do the Levi classes of every shape
  with orthogonal rank other than 1.  So Pmu and both class sets agree;
  this compares D's spin row of the order with B's plain rows on whole
  instances.
* Block reversal.  Permuting the GL blocks of a standard Levi gives a
  W-conjugate Levi (a block permutation lies in W for A, B and D), and
  the hull is W-stable.  So a shape and its block-reversed shape have the
  same left and right classes once the batch sums are reversed too.
"""

import random

import pytest

from coweights import (
    Coweight, Family, GroupKind, LeviShape, Sector, all_shapes, enumerate_Pmu,
    verify_main_theorem,
)
from coweights.oracle import dominant_coweights


def _classes(classes, reverse=False):
    """The class keys ``(batch sums, orthogonal class)``, the sums reversed
    when asked: the canonical lifts themselves depend on the shape."""
    return {(c.batch_sums[::-1] if reverse else c.batch_sums, c.so_class)
            for c in classes}


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_b_and_d_agree_when_the_last_entry_is_zero(rank):
    """B and D at every dominant mu with mu_n = 0 and entries up to 2, on
    every shape of D (none has orthogonal rank 1): the same Pmu and the
    same left and right classes.  165 pairs over ranks 2-4."""
    b_kind, d_kind = GroupKind(Family.B, rank), GroupKind(Family.D, rank)
    pairs = 0
    for mu_b in dominant_coweights(b_kind, Sector.INTEGRAL, 2):
        if mu_b.entries[-1]:
            continue
        mu_d = Coweight(d_kind, mu_b.entries)
        assert {p.entries for p in enumerate_Pmu(mu_b)} == {
            p.entries for p in enumerate_Pmu(mu_d)}, mu_b
        for d_shape in all_shapes(d_kind):
            b_shape = LeviShape(b_kind, d_shape.gl_sizes, d_shape.so_rank)
            b, d = verify_main_theorem(b_shape, mu_b), verify_main_theorem(d_shape, mu_d)
            assert _classes(b.lhs_classes) == _classes(d.lhs_classes), (d_shape, mu_b)
            assert _classes(b.rhs_classes) == _classes(d.rhs_classes), (d_shape, mu_b)
            pairs += 1
    assert pairs == {2: 9, 3: 36, 4: 120}[rank]


# A4, B4 and integral D4 at max entry 2, half D4 at max entry 3
REVERSAL_GRIDS = [
    (Family.A, Sector.INTEGRAL, 2),
    (Family.B, Sector.INTEGRAL, 2),
    (Family.D, Sector.INTEGRAL, 2),
    (Family.D, Sector.HALF, 3),
]


def _reversal_pairs():
    """Every (shape with two distinct block sizes, mu) of the grids: 330."""
    out = []
    for family, sector, max_entry in REVERSAL_GRIDS:
        kind = GroupKind(family, 4)
        for shape in all_shapes(kind):
            if len(set(shape.gl_sizes)) == 2:
                out += [(shape, mu) for mu in dominant_coweights(kind, sector, max_entry)]
    return out


def test_block_reversal_permutes_the_classes():
    """A seeded sample of 100 of the 330 pairs: reversing the GL blocks
    reverses the batch sums of every left and right class."""
    pairs = _reversal_pairs()
    assert len(pairs) == 330
    for shape, mu in random.Random(0).sample(pairs, 100):
        reversed_shape = LeviShape(shape.kind, shape.gl_sizes[::-1], shape.so_rank)
        a, b = verify_main_theorem(shape, mu), verify_main_theorem(reversed_shape, mu)
        assert _classes(a.lhs_classes, reverse=True) == _classes(b.lhs_classes), (shape, mu)
        assert _classes(a.rhs_classes, reverse=True) == _classes(b.rhs_classes), (shape, mu)
