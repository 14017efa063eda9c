"""Levi shapes, projections, minuscule predicates, lifts, and batch-end order."""

from fractions import Fraction
from itertools import permutations, product

import pytest

from conftest import FAMILY_SECTORS, box_coweights, ranks_for
from coweights import (
    Family,
    GroupKind,
    LeviPoint,
    LeviShape,
    PreconditionError,
    Sector,
    ShapeError,
    all_shapes,
    class_of,
    compositions,
    coweight,
    is_M_dominant,
    is_M_minuscule,
    leq_batch_ends,
    minuscule_lift,
    project,
    same_class_XG,
)
from coweights.oracle import batch_end_agreement, dominant_coweights, weyl_orbit


def _kind(family, rank):
    return GroupKind(family, rank)


class TestLeviShape:
    def test_sizes_must_fill_rank(self):
        with pytest.raises(ShapeError):
            LeviShape(_kind(Family.B, 4), (2, 1), 0)

    def test_family_a_has_no_orthogonal_factor(self):
        with pytest.raises(ShapeError):
            LeviShape(_kind(Family.A, 3), (2,), 1)

    def test_family_d_rejects_orthogonal_rank_one(self):
        with pytest.raises(ShapeError, match="trailing block of size 1"):
            LeviShape(_kind(Family.D, 3), (2,), 1)

    def test_sigma_exposes_batch_ends(self):
        shape = LeviShape(_kind(Family.B, 6), (2, 1, 1), 2)
        assert [shape.sigma(k) for k in (0, 1, 2, 3)] == [0, 2, 3, 4]
        assert shape.sigma(4) == 6  # with an orthogonal factor, one past r

    def test_pure_orthogonal_shape_allowed(self):
        shape = LeviShape(_kind(Family.D, 3), (), 3)
        assert shape.num_gl_batches == 0
        assert str(shape) == ";3"

    def test_str_roundtrip_format(self):
        assert str(LeviShape(_kind(Family.A, 4), (2, 2), 0)) == "2,2"
        assert str(LeviShape(_kind(Family.B, 3), (1,), 2)) == "1;2"


class TestAllShapes:
    def test_family_a_counts_compositions(self):
        kind = _kind(Family.A, 4)
        assert len(list(all_shapes(kind))) == 8
        assert len(list(compositions(4))) == 8

    def test_family_b_rank3(self):
        shapes = list(all_shapes(_kind(Family.B, 3)))
        assert len(shapes) == 8
        assert LeviShape(_kind(Family.B, 3), (), 3) in shapes

    def test_family_d_never_rank_one_factor(self):
        shapes = list(all_shapes(_kind(Family.D, 4)))
        assert len(shapes) == 12
        assert all(s.so_rank != 1 for s in shapes)


class TestProject:
    def test_family_a_halves(self):
        shape = LeviShape(_kind(Family.A, 4), (2, 2))
        point = project(shape, coweight("A", (2, 1, 1, 0)))
        assert point.averages == (Fraction(3, 2), Fraction(1, 2))

    def test_orthogonal_batch_projects_to_zero(self):
        shape = LeviShape(_kind(Family.B, 6), (2, 1, 1), 2)
        point = project(shape, coweight("B", (2, 1, 2, 0, 1, 0)))
        assert point.averages == (Fraction(3, 2), 2, 0)
        assert point.expand() == (
            Fraction(3, 2), Fraction(3, 2), 2, 0, 0, 0,
        )

    def test_zero_projects_to_zero(self):
        shape = LeviShape(_kind(Family.D, 4), (2,), 2)
        assert project(shape, coweight("D", (0, 0, 0, 0))).expand() == (0,) * 4

    def _levi_orbit(self, shape, x):
        """Direct product of the batch symmetric groups and the orthogonal
        factor's signed permutations; the independent averaging oracle."""
        batch_perms = [
            sorted(set(permutations(x.entries[sl]))) for sl in shape.gl_slices
        ]
        j = shape.so_rank
        if j:
            so_family = Family.B if shape.kind.family is Family.B else Family.D
            batch_perms.append(weyl_orbit(so_family, x.entries[shape.so_slice]))
        return [
            tuple(v for part in combo for v in part)
            for combo in product(*batch_perms)
        ]

    @pytest.mark.parametrize("family,sector", FAMILY_SECTORS)
    def test_projection_is_levi_orbit_average(self, family, sector):
        for rank in ranks_for(family, 3):
            kind = _kind(family, rank)
            shapes = [s for s in all_shapes(kind) if max(s.gl_sizes, default=0) <= 3]
            for shape in shapes:
                for x in box_coweights(family, sector, rank, 1):
                    orbit = self._levi_orbit(shape, x)
                    size = len(orbit)
                    mean = tuple(
                        Fraction(sum(col), size) for col in zip(*orbit)
                    )
                    assert mean == project(shape, x).expand(), (shape, x)


class TestPredicates:
    def test_walkthrough_input_is_valid(self):
        shape = LeviShape(_kind(Family.B, 6), (2, 1, 1), 2)
        nu = coweight("B", (2, 1, 2, 0, 1, 0))
        assert is_M_dominant(shape, nu)
        assert is_M_minuscule(shape, nu)

    def test_wide_batch_gap_is_not_minuscule(self):
        shape = LeviShape(_kind(Family.A, 3), (3,))
        assert not is_M_minuscule(shape, coweight("A", (2, 0, 0)))

    def test_half_sector_allows_gap_two(self):
        shape = LeviShape(_kind(Family.D, 4), (2,), 2)
        x = coweight("D", (3, 1, 1, -1), "half")
        assert is_M_dominant(shape, x)
        assert is_M_minuscule(shape, x)

    def test_orthogonal_batch_minuscule_forms(self):
        shape = LeviShape(_kind(Family.B, 3), (1,), 2)
        assert is_M_minuscule(shape, coweight("B", (2, 1, 0)))
        assert is_M_minuscule(shape, coweight("B", (2, 0, 1)))  # orbit form
        assert not is_M_dominant(shape, coweight("B", (2, 0, 1)))
        assert not is_M_minuscule(shape, coweight("B", (2, 1, 1)))


class TestMinusculeLift:
    def test_family_a_example(self):
        shape = LeviShape(_kind(Family.A, 4), (2, 2))
        assert minuscule_lift(shape, (3, 1)).entries == (2, 1, 1, 0)

    def test_family_b_example(self):
        shape = LeviShape(_kind(Family.B, 3), (2,), 1)
        assert minuscule_lift(shape, (3,), 1).entries == (2, 1, 1)

    def test_half_sector_example(self):
        shape = LeviShape(_kind(Family.D, 4), (2,), 2)
        lift = minuscule_lift(shape, (4,), 0, Sector.HALF)
        assert lift.entries == (3, 1, 1, -1)

    def test_negative_sums(self):
        shape = LeviShape(_kind(Family.A, 3), (3,))
        assert minuscule_lift(shape, (-2,)).entries == (0, -1, -1)

    def test_parity_violation_rejected(self):
        shape = LeviShape(_kind(Family.D, 3), (3,))
        with pytest.raises(PreconditionError, match="parity"):
            minuscule_lift(shape, (2,), None, Sector.HALF)

    def test_invalid_so_class_rejected(self):
        shape = LeviShape(_kind(Family.B, 3), (1,), 2)
        with pytest.raises(PreconditionError):
            minuscule_lift(shape, (1,), 2)
        with pytest.raises(PreconditionError):
            minuscule_lift(shape, (1,), None)

    def test_so_class_forbidden_without_factor(self):
        shape = LeviShape(_kind(Family.A, 2), (2,))
        with pytest.raises(PreconditionError):
            minuscule_lift(shape, (1,), 0)

    def test_half_sector_so_classes(self):
        shape = LeviShape(_kind(Family.D, 2), (), 2)
        assert minuscule_lift(shape, (), 2, Sector.HALF).entries == (1, 1)
        assert minuscule_lift(shape, (), 0, Sector.HALF).entries == (1, -1)
        with pytest.raises(PreconditionError):
            minuscule_lift(shape, (), 1, Sector.HALF)

    @pytest.mark.parametrize("so_class", [6, -2, 4])
    def test_half_sector_so_class_not_reduced(self, so_class):
        """Only the keys 0 and 2 name a class; 6 and -2 are not read mod 4."""
        shape = LeviShape(_kind(Family.D, 3), (1,), 2)
        with pytest.raises(PreconditionError):
            minuscule_lift(shape, (1,), so_class, Sector.HALF)

    @pytest.mark.parametrize("family,sector", FAMILY_SECTORS)
    def test_class_of_inverts_lift(self, family, sector):
        """class_of after minuscule_lift returns the input class data."""
        from coweights.oracle import valid_lifts

        for rank in ranks_for(family, 3):
            for shape in all_shapes(GroupKind(family, rank)):
                for lift in valid_lifts(shape, sector, 2):
                    cls = class_of(shape, lift)
                    assert cls.canonical_lift == lift, (shape, lift)


class TestClassOf:
    def test_family_a_example(self):
        shape = LeviShape(_kind(Family.A, 4), (2, 2))
        cls = class_of(shape, coweight("A", (2, 1, 1, 0)))
        assert cls.batch_sums == (3, 1)
        assert cls.canonical_lift.entries == (2, 1, 1, 0)

    def test_family_b_example(self):
        shape = LeviShape(_kind(Family.B, 2), (1,), 1)
        cls = class_of(shape, coweight("B", (0, 1)))
        assert cls.so_class == 1
        assert cls.canonical_lift.entries == (0, 1)

    @pytest.mark.parametrize("family,sector", FAMILY_SECTORS)
    def test_idempotent_on_canonical_lifts(self, family, sector):
        for rank in ranks_for(family, 3):
            kind = _kind(family, rank)
            for shape in all_shapes(kind):
                for x in box_coweights(family, sector, rank, 1):
                    cls = class_of(shape, x)
                    again = class_of(shape, cls.canonical_lift)
                    assert again == cls, (shape, x)

    @pytest.mark.parametrize("family,sector", FAMILY_SECTORS)
    def test_factors_through_full_class(self, family, sector):
        """Equal Levi classes force equal central classes."""
        rank = 3
        kind = _kind(family, rank)
        for shape in all_shapes(kind):
            for x in box_coweights(family, sector, rank, 1):
                for y in box_coweights(family, sector, rank, 1):
                    if class_of(shape, x) == class_of(shape, y):
                        assert same_class_XG(x, y), (shape, x, y)


@pytest.mark.parametrize("family,sector", FAMILY_SECTORS)
def test_minuscule_lift_uniqueness_bruteforce(family, sector):
    """Box scan: each class with bounded sums has exactly one block-dominant
    block-minuscule member, and it is the lift."""
    sum_bound = 3
    for rank in ranks_for(family, 3):
        kind = _kind(family, rank)
        for shape in all_shapes(kind):
            found = {}
            for x in box_coweights(family, sector, rank, sum_bound + 1):
                if is_M_dominant(shape, x) and is_M_minuscule(shape, x):
                    cls = class_of(shape, x)
                    key = (cls.batch_sums, cls.so_class)
                    found.setdefault(key, []).append(x)
            for (sums, so_class), members in found.items():
                if any(abs(s) > sum_bound * n for s, n in zip(sums, shape.gl_sizes)):
                    continue  # box may clip classes with larger sums
                assert len(members) == 1, (shape, sums, so_class, members)
                lift = minuscule_lift(shape, sums, so_class, sector)
                assert members[0] == lift, (shape, sums, so_class)


class TestLeqBatchEnds:
    def test_family_a_example(self):
        shape = LeviShape(_kind(Family.A, 4), (2, 2))
        beta = LeviPoint(shape, (Fraction(3, 2), Fraction(1, 2)))
        assert leq_batch_ends(beta, coweight("A", (2, 1, 1, 0)))

    def test_projection_of_mu_is_below_mu(self):
        # averaging preserves batch-end partial sums
        shape = LeviShape(_kind(Family.B, 6), (2, 1, 1), 2)
        mu = coweight("B", (2, 2, 1, 1, 0, 0))
        assert leq_batch_ends(project(shape, mu), mu)

    def test_family_d_spin_inequality_fails(self):
        shape = LeviShape(_kind(Family.D, 2), (1, 1), 0)
        beta = LeviPoint(shape, (Fraction(2), Fraction(-1)))
        assert not leq_batch_ends(beta, coweight("D", (2, 1)))

    def test_family_a_span_precondition(self):
        shape = LeviShape(_kind(Family.A, 2), (1, 1))
        beta = LeviPoint(shape, (Fraction(1), Fraction(1)))
        with pytest.raises(PreconditionError, match="total sums"):
            leq_batch_ends(beta, coweight("A", (1, 0)))

    def test_pure_orthogonal_shape_trivially_true(self):
        shape = LeviShape(_kind(Family.D, 2), (), 2)
        beta = LeviPoint(shape, ())
        assert leq_batch_ends(beta, coweight("D", (1, -1)))

    @pytest.mark.parametrize("family,sector", FAMILY_SECTORS)
    def test_equivalent_to_full_order(self, family, sector):
        """Batch-end inequalities match the full order over a rational grid."""
        checked = 0
        for rank in ranks_for(family, 3):
            kind = _kind(family, rank)
            for shape in all_shapes(kind):
                for mu in dominant_coweights(kind, sector, 2):
                    count, failures = batch_end_agreement(shape, mu)
                    assert not failures, failures[:3]
                    checked += count
        assert checked > 1000
