"""Dominance, Weyl normal forms, the order relation, and hull membership."""

from fractions import Fraction
from itertools import accumulate

import pytest

from conftest import FAMILY_SECTORS, box_coweights, ranks_for
from coweights import (
    Coweight,
    Family,
    GroupKind,
    LeviPoint,
    LeviShape,
    MismatchError,
    NotDominantError,
    Sector,
    class_of,
    coweight,
    dominant_coweights,
    dominant_representative,
    in_hull,
    is_dominant,
    leq,
    leq_batch_ends,
    is_M_dominant,
    is_M_minuscule,
    minuscule_lift,
    project,
    same_class_XG,
    verify_main_theorem,
    weyl_orbit_equivalent,
)
from coweights.levi import has_dominant_projection
from coweights.oracle import caratheodory_in_hull, enumerate_Pmu, weyl_orbit


class TestIsDominant:
    def test_family_a_nonincreasing(self):
        assert is_dominant(coweight("A", (3, 2, 2, 0)))
        assert not is_dominant(coweight("A", (1, 2)))

    def test_family_b_needs_nonnegative_tail(self):
        assert not is_dominant(coweight("B", (1, 0, -1)))
        assert is_dominant(coweight("B", (1, 0, 0)))

    def test_family_d_allows_one_negative(self):
        assert is_dominant(coweight("D", (2, 1, -1)))
        assert not is_dominant(coweight("D", (2, 1, -2)))
        assert is_dominant(coweight("D", (1, -1), "half"))


class TestDominantRepresentative:
    def test_family_a_sorts(self):
        assert dominant_representative(coweight("A", (1, 3, 2))).entries == (3, 2, 1)

    def test_family_b_sorts_magnitudes(self):
        assert dominant_representative(coweight("B", (-2, 1))).entries == (2, 1)

    def test_family_d_tracks_sign_parity(self):
        # oracle: enumerate the whole rank-2 orbit and keep the dominant one
        orbit = weyl_orbit(Family.D, (-2, 1))
        assert set(orbit) == {(-2, 1), (1, -2), (2, -1), (-1, 2)}
        kind = GroupKind(Family.D, 2)
        dominant = [v for v in orbit if is_dominant(Coweight(kind, v))]
        assert dominant == [(2, -1)]
        assert dominant_representative(coweight("D", (-2, 1))).entries == (2, -1)

    @pytest.mark.parametrize("family,sector", FAMILY_SECTORS)
    def test_dominant_and_orbit_equivalent_everywhere(self, family, sector):
        """Exhaustive at rank <= 4, entries in [-3, 3], all kinds/sectors."""
        for rank in ranks_for(family, 4):
            for x in box_coweights(family, sector, rank, 3):
                rep = dominant_representative(x)
                assert is_dominant(rep), (x, rep)
                assert weyl_orbit_equivalent(rep, x), (x, rep)

    @pytest.mark.parametrize("family,sector", FAMILY_SECTORS)
    def test_unique_dominant_element_of_orbit(self, family, sector):
        for rank in ranks_for(family, 3):
            kind = GroupKind(family, rank)
            for x in box_coweights(family, sector, rank, 2):
                dominant = [
                    v
                    for v in weyl_orbit(family, x.entries)
                    if is_dominant(Coweight(kind, v, sector))
                ]
                assert dominant == [dominant_representative(x).entries], x


class TestLeq:
    def test_family_b_prefix_sums(self):
        assert leq(coweight("B", (1, 1, 0)), coweight("B", (2, 0, 0)))

    def test_reflexive_on_identity(self):
        mu = coweight("A", (2, 1, 0))
        assert leq(mu, mu)

    def test_family_d_spin_inequalities(self):
        # all three inequality families hold here; the hull oracle agrees
        x, mu = coweight("D", (1, 1)), coweight("D", (2, 0))
        assert leq(x, mu)
        assert caratheodory_in_hull(x, mu)

    def test_rational_vectors_accepted(self):
        mu = coweight("B", (2, 0, 0))
        assert leq((Fraction(3, 2), Fraction(1, 2), 0), mu)

    def test_mu_must_be_dominant(self):
        with pytest.raises(NotDominantError):
            leq(coweight("A", (1, 0)), coweight("A", (0, 1)))

    def test_kind_and_sector_mismatch(self):
        with pytest.raises(MismatchError):
            leq(coweight("A", (1, 0)), coweight("B", (1, 0)))
        with pytest.raises(MismatchError):
            leq(coweight("D", (1, 1)), coweight("D", (1, 1), "half"))

    def test_family_a_total_sum_equality(self):
        assert not leq(coweight("A", (1, 0)), coweight("A", (2, 0)))
        assert leq(coweight("A", (1, 1)), coweight("A", (2, 0)))


class TestSameClass:
    def test_family_b_even_gap(self):
        assert same_class_XG(coweight("B", (1, 1, 0)), coweight("B", (2, 0, 0)))
        assert not same_class_XG(coweight("B", (1, 0, 0)), coweight("B", (2, 0, 0)))

    def test_family_a_equal_sums(self):
        assert not same_class_XG(coweight("A", (2, 0)), coweight("A", (1, 0)))

    def test_half_sector_gap_divisible_by_four(self):
        x = coweight("D", (1, 1, -1, -1), "half")
        mu = coweight("D", (3, 1, 1, -1), "half")
        assert same_class_XG(x, mu)
        assert not same_class_XG(coweight("D", (1, 1, 1, -1), "half"), mu)

    def test_sectors_are_distinct_classes(self):
        a = coweight("D", (1, 1), "half")
        b = coweight("D", (2, 0))
        assert not same_class_XG(a, b)

    def test_kind_mismatch_raises(self):
        with pytest.raises(MismatchError):
            same_class_XG(coweight("A", (1, 0)), coweight("A", (1, 0, 0)))


class TestWeylOrbitEquivalent:
    def test_family_a_multiset(self):
        assert weyl_orbit_equivalent(
            coweight("A", (2, 1, 2, 0, 1, 0)), coweight("A", (2, 2, 1, 1, 0, 0))
        )

    def test_family_d_sign_parity(self):
        assert not weyl_orbit_equivalent(coweight("D", (1, 1)), coweight("D", (1, -1)))
        assert set(weyl_orbit(Family.D, (1, 1))) == {(1, 1), (-1, -1)}

    def test_zero_entry_frees_the_parity(self):
        assert weyl_orbit_equivalent(coweight("D", (1, 0)), coweight("D", (-1, 0)))

    @pytest.mark.parametrize("family,sector", FAMILY_SECTORS)
    def test_matches_explicit_orbit(self, family, sector):
        """Orbit equivalence, defined through the dominant representative,
        against the explicit orbit: exhaustive at rank <= 3."""
        for rank in ranks_for(family, 3):
            box = box_coweights(family, sector, rank, 2 if rank == 3 else 3)
            for x in box:
                orbit = set(weyl_orbit(family, x.entries))
                for y in box:
                    assert weyl_orbit_equivalent(x, y) is (y.entries in orbit), (x, y)

    @pytest.mark.parametrize("family,sector", FAMILY_SECTORS)
    def test_reflexive(self, family, sector):
        for x in box_coweights(family, sector, 3 if family is Family.D else 2, 1):
            assert weyl_orbit_equivalent(x, x)


class TestInHull:
    def test_barycenter_of_family_a_orbit(self):
        mu = coweight("A", (2, 1, 0))
        assert in_hull((1, 1, 1), mu)
        assert caratheodory_in_hull((1, 1, 1), mu)

    @pytest.mark.parametrize(
        "x", [coweight("A", (2, 1, 0)), coweight("B", (2, 1)), coweight("D", (3, 1), "half")]
    )
    def test_vertex_of_own_hull(self, x):
        assert in_hull(x, x)

    def test_outside_point(self):
        mu = coweight("B", (2, 1))
        assert not in_hull((3, 0), mu)
        assert not caratheodory_in_hull((3, 0), mu)

    def test_family_a_off_span_is_outside(self):
        assert not in_hull((1, 1), coweight("A", (1, 0)))


def _dominant_grid(family, sector, rank, bound):
    return [
        x
        for x in box_coweights(family, sector, rank, bound)
        if is_dominant(x)
    ]


@pytest.mark.parametrize("family,sector", FAMILY_SECTORS)
def test_leq_is_a_partial_order_on_dominant_elements(family, sector):
    """Reflexive, transitive, and antisymmetric per class at rank 3."""
    grid = _dominant_grid(family, sector, 3, 2)
    for x in grid:
        assert leq(x, x)
    pairs = [
        (x, y)
        for x in grid
        for y in grid
        if same_class_XG(x, y) and leq(x, y)
    ]
    below = {}
    for x, y in pairs:
        below.setdefault(y.entries, set()).add(x.entries)
    for x, y in pairs:
        if x != y and leq(y, x):
            pytest.fail(f"antisymmetry violated: {x} vs {y}")
        # transitivity: anything below x is below y
        for z in below.get(x.entries, ()):
            assert z in below[y.entries], (z, x, y)


def test_family_b_prefix_gaps_nonnegative():
    grid = _dominant_grid(Family.B, Sector.INTEGRAL, 3, 2)
    for x in grid:
        for mu in grid:
            if leq(x, mu):
                gaps = [
                    a - b
                    for a, b in zip(accumulate(mu.entries), accumulate(x.entries))
                ]
                assert all(g >= 0 for g in gaps), (x, mu)


@pytest.mark.parametrize("family,sector", FAMILY_SECTORS)
def test_leq_equals_in_hull_for_dominant_lattice_points(family, sector):
    """For dominant integral points of the right class the two agree."""
    grid = _dominant_grid(family, sector, 3, 2)
    for x in grid:
        for mu in grid:
            if same_class_XG(x, mu):
                assert leq(x, mu) == in_hull(x, mu), (x, mu)


class TestCoweightValidation:
    def test_half_sector_requires_family_d(self):
        with pytest.raises(MismatchError):
            coweight("B", (1, 1), "half")

    def test_half_sector_requires_odd_entries(self):
        with pytest.raises(MismatchError):
            coweight("D", (2, 1), "half")

    def test_length_checked(self):
        with pytest.raises(MismatchError):
            Coweight(GroupKind(Family.A, 3), (1, 0))

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            GroupKind(Family.D, 1)
        with pytest.raises(ValueError):
            GroupKind(Family.A, 0)


def test_half_sector_outside_family_d_has_one_message():
    """A weight, a lift and a grid refuse the half sector of family B
    alike; the grid of max entry 0 builds no weight that could refuse it."""
    calls = [
        lambda: coweight("B", (1, 1), "half"),
        lambda: minuscule_lift(
            LeviShape(GroupKind(Family.B, 2), (1, 1)), (0, 0), None, Sector.HALF),
        lambda: dominant_coweights(GroupKind(Family.B, 2), Sector.HALF, 0),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(MismatchError) as caught:
            call()
        messages.add(str(caught.value))
    assert messages == {"the half sector only exists for family D"}


_A2 = LeviShape(GroupKind(Family.A, 2), (1, 1))


def test_non_dominant_mu_has_one_message():
    """The order, both hull tests, the Pmu scan and the batch-end order
    refuse a non-dominant mu alike."""
    mu = coweight("A", (0, 1))
    calls = [
        lambda: leq((0, 1), mu),
        lambda: in_hull((0, 1), mu),
        lambda: caratheodory_in_hull((0, 1), mu),
        lambda: enumerate_Pmu(mu),
        lambda: leq_batch_ends(LeviPoint(_A2, (0, 1)), mu),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(NotDominantError) as caught:
            call()
        messages.add(str(caught.value))
    assert messages == {"mu=0,1 is not dominant"}


def test_kind_mismatch_has_one_message():
    """Every relation between two operands, and every Levi operation on a
    coweight, refuses operands of two groups alike."""
    a, b = coweight("A", (1, 0)), coweight("B", (1, 0))
    calls = [
        lambda: leq(a, b),
        lambda: in_hull(a, b),
        lambda: weyl_orbit_equivalent(a, b),
        lambda: same_class_XG(a, b),
        lambda: class_of(_A2, b),
        lambda: project(_A2, b),
        lambda: has_dominant_projection(_A2, b),
        lambda: is_M_dominant(_A2, b),
        lambda: is_M_minuscule(_A2, b),
        lambda: leq_batch_ends(LeviPoint(_A2, (1, 0)), b),
        lambda: verify_main_theorem(_A2, b),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(MismatchError) as caught:
            call()
        messages.add(str(caught.value))
    assert messages == {"kind mismatch: A2 vs B2"}


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: in_hull((0, 1), coweight("A", (0, 1))), NotDominantError, "not dominant"),
    (lambda: weyl_orbit_equivalent(coweight("A", (1, 0)), coweight("B", (1, 0))),
     MismatchError, "kind mismatch"),
    (lambda: class_of(_A2, coweight("B", (1, 0))), MismatchError, "kind mismatch"),
    (lambda: project(_A2, coweight("B", (1, 0))), MismatchError, "kind mismatch"),
    (lambda: minuscule_lift(_A2, (Fraction(1), 0)), TypeError, "must be integers"),
    (lambda: leq_batch_ends(LeviPoint(_A2, (1, 0)), coweight("B", (1, 0))),
     MismatchError, "kind mismatch"),
    (lambda: leq_batch_ends(LeviPoint(_A2, (0, 1)), coweight("A", (0, 1))),
     NotDominantError, "not dominant"),
    (lambda: verify_main_theorem(_A2, coweight("B", (1, 0))),
     MismatchError, "kind mismatch"),
    (lambda: Coweight(GroupKind(Family.A, 2), (Fraction(1), 0)), TypeError,
     "entries must be integers"),
    (lambda: leq((1, 0, 0), coweight("A", (1, 0))), MismatchError,
     "expected 2 entries, got 3"),
    (lambda: LeviPoint(_A2, (1,)), MismatchError, "expected 2 averages, got 1"),
    (lambda: minuscule_lift(_A2, (1,)), MismatchError, "expected 2 batch sums, got 1"),
], ids=["in_hull-dominance", "orbit-kind", "class_of-kind", "project-kind",
        "lift-integer-sums", "batch-ends-kind", "batch-ends-dominance",
        "verify-kind", "coweight-integer-entries", "vector-length",
        "levi-point-averages", "lift-sum-count"])
def test_library_guards(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
