"""The dominant reordering: worked examples, stages, and its guarantees."""

import pytest

from conftest import FAMILY_SECTORS, ranks_for
from coweights import (
    Family,
    GroupKind,
    LeviShape,
    NormalizationRequired,
    PreconditionError,
    Sector,
    all_shapes,
    coweight,
    dominant_reordering,
    is_M_dominant,
    is_M_minuscule,
    is_dominant,
    leq,
    project,
    same_class_XG,
    weyl_orbit_equivalent,
)
from coweights.oracle import (
    dominant_coweights,
    has_dominant_projection,
    reordering_failures,
    valid_lifts,
)


class TestWalkthrough:
    """The rank-6 odd orthogonal example with shape 2,1,1;2."""

    def setup_method(self):
        self.shape = LeviShape(GroupKind(Family.B, 6), (2, 1, 1), 2)
        self.nu = coweight("B", (2, 1, 2, 0, 1, 0))

    def test_merge_stage(self):
        res = dominant_reordering(self.shape, self.nu)
        assert res.merged.entries == (2, 2, 1, 0, 1, 0)

    def test_coarse_shape(self):
        res = dominant_reordering(self.shape, self.nu)
        assert res.coarse_shape == LeviShape(GroupKind(Family.B, 6), (3, 1), 2)

    def test_swap_stage(self):
        res = dominant_reordering(self.shape, self.nu)
        assert res.result.entries == (2, 2, 1, 1, 0, 0)
        assert is_dominant(res.result)
        assert weyl_orbit_equivalent(res.result, self.nu)

    def test_batch_order_holds(self):
        assert reordering_failures(self.shape, self.nu, []) == []


class TestStageOne:
    def test_nothing_merges_with_distinct_firsts(self):
        shape = LeviShape(GroupKind(Family.A, 4), (2, 2))
        nu = coweight("A", (2, 1, 1, 0))
        res = dominant_reordering(shape, nu)
        assert res.result == nu
        assert res.coarse_shape == shape

    def test_single_batch_is_fixed(self):
        shape = LeviShape(GroupKind(Family.A, 4), (4,))
        nu = coweight("A", (1, 1, 0, 0))
        res = dominant_reordering(shape, nu)
        assert res.result == nu

    def test_merge_sorts_the_union(self):
        shape = LeviShape(GroupKind(Family.A, 4), (2, 1, 1))
        nu = coweight("A", (1, 0, 1, 1))
        res = dominant_reordering(shape, nu)
        assert res.merged.entries == (1, 1, 1, 0)
        assert res.coarse_shape.gl_sizes == (4,)


class TestSwapStage:
    def test_no_swap_when_last_gl_entry_positive(self):
        shape = LeviShape(GroupKind(Family.B, 3), (1,), 2)
        nu = coweight("B", (2, 1, 0))
        res = dominant_reordering(shape, nu)
        assert res.result.entries == (2, 1, 0)

    def test_no_swap_when_orthogonal_batch_zero(self):
        shape = LeviShape(GroupKind(Family.B, 3), (1,), 2)
        nu = coweight("B", (2, 0, 0))
        res = dominant_reordering(shape, nu)
        assert res.result.entries == (2, 0, 0)

    def test_swap_into_earlier_batch_zero(self):
        # the leftmost zero can sit before the final GL batch
        shape = LeviShape(GroupKind(Family.B, 4), (2, 1), 1)
        nu = coweight("B", (1, 0, 0, 1))
        res = dominant_reordering(shape, nu)
        assert res.merged.entries == (1, 0, 0, 1)
        assert res.result.entries == (1, 1, 0, 0)
        assert is_dominant(res.result)

    def test_family_d_swap(self):
        shape = LeviShape(GroupKind(Family.D, 4), (2,), 2)
        nu = coweight("D", (1, 0, 1, 0))
        res = dominant_reordering(shape, nu)
        assert res.result.entries == (1, 1, 0, 0)


class TestHalfSectorStages:
    def test_flip_then_negate_final(self):
        shape = LeviShape(GroupKind(Family.D, 4), (2,), 2)
        nu = coweight("D", (1, -1, 1, -1), "half")
        res = dominant_reordering(shape, nu)
        assert res.merged.entries == (1, -1, 1, -1)
        assert res.sign_fixed.entries == (1, 1, 1, -1)
        assert res.flip_count == 1
        assert res.result.entries == (1, 1, 1, 1)
        assert weyl_orbit_equivalent(res.result, nu)

    def test_even_flips_leave_final_entry(self):
        shape = LeviShape(GroupKind(Family.D, 4), (4,), 0)
        nu = coweight("D", (1, 1, -1, -1), "half")
        res = dominant_reordering(shape, nu)
        assert res.flip_count == 2
        assert res.result.entries == (1, 1, 1, 1)
        assert weyl_orbit_equivalent(res.result, nu)

    def test_negative_singleton_tail_is_fixed(self):
        # all-GL shape with a trailing size-1 block may keep a negative tail
        shape = LeviShape(GroupKind(Family.D, 2), (1, 1), 0)
        nu = coweight("D", (3, -1), "half")
        res = dominant_reordering(shape, nu)
        assert res.result.entries == (3, -1)
        assert is_dominant(res.result)

    def test_untouched_orthogonal_minus_one(self):
        shape = LeviShape(GroupKind(Family.D, 4), (1, 1), 2)
        nu = coweight("D", (3, 1, 1, -1), "half")
        res = dominant_reordering(shape, nu)
        assert res.result.entries == (3, 1, 1, -1)
        assert res.flip_count == 0


class TestPreconditions:
    def test_not_block_dominant(self):
        shape = LeviShape(GroupKind(Family.A, 2), (2,))
        with pytest.raises(PreconditionError):
            dominant_reordering(shape, coweight("A", (0, 1)))

    def test_not_block_minuscule(self):
        shape = LeviShape(GroupKind(Family.A, 2), (2,))
        with pytest.raises(PreconditionError):
            dominant_reordering(shape, coweight("A", (2, 0)))

    def test_out_of_order_batches_need_normalization(self):
        shape = LeviShape(GroupKind(Family.A, 2), (1, 1))
        with pytest.raises(NormalizationRequired):
            dominant_reordering(shape, coweight("A", (0, 1)))

    def test_single_batch_order_vacuous(self):
        shape = LeviShape(GroupKind(Family.A, 2), (2,))
        assert dominant_reordering(shape, coweight("A", (1, 0))).result.entries == (1, 0)

    def test_refused_reordering_is_reported_with_positivity(self):
        """A lift whose batch first entries increase is reported by the
        bundle, with its positivity failures, rather than raising."""
        shape = LeviShape(GroupKind(Family.B, 2), (1, 1))
        assert reordering_failures(shape, coweight("B", (-1, 0)), []) == [
            "batch first-entry order fails for -1,0 under 1,1",
            "entry 0 of -1,0 under 1,1 is below 0",
        ]


@pytest.mark.parametrize("family,sector", FAMILY_SECTORS)
def test_reordering_guarantees_small_grid(family, sector):
    """Every valid input at rank <= 3, entries bounded by 2 (3 doubled):
    batch order, positivity, dominance of the result, coarse minuscule
    structure, orbit equivalence, and the order transfer all hold."""
    bound = 3 if sector is Sector.HALF else 2
    checked = 0
    for rank in ranks_for(family, 3):
        kind = GroupKind(family, rank)
        mus = dominant_coweights(kind, sector, bound)
        for shape in all_shapes(kind):
            for nu in valid_lifts(shape, sector, bound):
                if not has_dominant_projection(shape, nu):
                    continue
                checked += 1
                assert reordering_failures(shape, nu, mus) == [], (shape, nu)
    assert checked > 25


def test_transfer_property_explicit_case():
    """Spelled-out instance of the order transfer on the walkthrough."""
    shape = LeviShape(GroupKind(Family.B, 6), (3, 1), 2)
    nu = coweight("B", (2, 2, 1, 0, 1, 0))
    assert has_dominant_projection(shape, nu)
    res = dominant_reordering(shape, nu)
    mu = coweight("B", (2, 2, 2, 0, 0, 0))
    assert same_class_XG(nu, mu)
    assert leq(project(shape, nu).expand(), mu)
    assert leq(project(res.coarse_shape, res.result).expand(), mu)


def test_result_block_structure_matches_coarse_shape():
    shape = LeviShape(GroupKind(Family.B, 6), (2, 1, 1), 2)
    nu = coweight("B", (2, 1, 2, 0, 1, 0))
    res = dominant_reordering(shape, nu)
    assert is_M_dominant(res.coarse_shape, res.result)
    assert is_M_minuscule(res.coarse_shape, res.result)
