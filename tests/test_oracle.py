"""Brute-force ground truth: orbits, hull certificates, and the set equality."""

import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from conftest import FAMILY_SECTORS, entry_values, ranks_for
from coweights import (
    CapExceeded,
    Coweight,
    Family,
    GroupKind,
    LeviShape,
    MismatchError,
    Sector,
    SweepConfig,
    all_shapes,
    caratheodory_in_hull,
    class_of,
    convex_combination_bruteforce,
    coweight,
    dominant_coweights,
    dominant_representative,
    enumerate_Pmu,
    in_hull,
    oracle,
    same_class_XG,
    sweep,
    verify_main_theorem,
    weyl_orbit,
)
from coweights.oracle import (
    BOX_CAP,
    GRID_CAP,
    _beta_grid,
    _check_combination,
    _support,
    batch_end_agreement,
    valid_lifts,
    weyl_group_order,
)


class TestWeylOrbit:
    def test_orders(self):
        assert weyl_group_order(Family.A, 4) == 24
        assert weyl_group_order(Family.B, 4) == 384
        assert weyl_group_order(Family.D, 4) == 192

    def test_family_d_rank2_orbit(self):
        assert weyl_orbit(Family.D, (1, 1)) == [(-1, -1), (1, 1)]
        assert set(weyl_orbit(Family.D, (1, 0))) == {
            (1, 0), (0, 1), (-1, 0), (0, -1),
        }

    def test_orbit_sizes_divide_group_order(self):
        for family in Family:
            for entries in [(2, 1, 0), (1, 1, 0), (2, 2, 2)]:
                orbit = weyl_orbit(family, entries)
                assert weyl_group_order(family, 3) % len(orbit) == 0


class TestEnumeratePmu:
    def test_family_a_regular(self):
        points = enumerate_Pmu(coweight("A", (1, 0)))
        assert {p.entries for p in points} == {(1, 0), (0, 1)}

    def test_zero_weight_single_point(self):
        points = enumerate_Pmu(coweight("A", (0, 0, 0)))
        assert {p.entries for p in points} == {(0, 0, 0)}

    def test_family_b_parity_filter(self):
        points = enumerate_Pmu(coweight("B", (1, 0)))
        assert {p.entries for p in points} == {
            (1, 0), (0, 1), (-1, 0), (0, -1),
        }

    def test_closed_under_weyl_action(self):
        for mu in [coweight("B", (2, 1)), coweight("D", (2, 1, -1)),
                   coweight("D", (3, 1), "half")]:
            points = {p.entries for p in enumerate_Pmu(mu)}
            for p in points:
                assert set(weyl_orbit(mu.kind.family, p)) <= points, (mu, p)

    def test_members_normalize_inside(self):
        mu = coweight("B", (2, 1))
        for p in enumerate_Pmu(mu):
            assert dominant_representative(p) in enumerate_Pmu(mu)

    def test_rank_cap(self):
        """No rank is refused for itself: the A7 box of the zero weight has
        one candidate, and it is the one point."""
        mu = Coweight(GroupKind(Family.A, 7), (0,) * 7)
        assert enumerate_Pmu(mu) == {mu}

    def test_box_cap(self):
        """A box of 81⁶ candidates is refused before the scan starts; the
        largest box the shipped grids use, B5 at max entry 2, is 5⁵."""
        with pytest.raises(CapExceeded):
            enumerate_Pmu(coweight("B", (40, 0, 0, 0, 0, 0)))
        assert 9**6 <= BOX_CAP < 11**6
        assert len(enumerate_Pmu(coweight("B", (2, 0, 0, 0, 0)))) > 0


class TestCaratheodory:
    def test_vertex_is_trivial_member(self):
        mu = coweight("D", (2, 1, -1))
        assert caratheodory_in_hull(mu, mu)

    def test_barycenter_certificate(self):
        mu = coweight("A", (2, 1, 0))
        weights = convex_combination_bruteforce((1, 1, 1), mu)
        assert weights is not None
        assert sum(weights.values()) == 1
        recombined = [
            sum(w * Fraction(p[i]) for p, w in weights.items()) for i in range(3)
        ]
        assert recombined == [1, 1, 1]

    def test_outside_point_has_no_certificate(self):
        mu = coweight("B", (2, 1))
        assert convex_combination_bruteforce((3, 0), mu) is None
        assert not caratheodory_in_hull((3, 0), mu)

    def test_wrong_combination_raises(self):
        """The re-check of a face-descent certificate is a real check, not an
        assert that ``python -O`` strips."""
        points = [(2, 0), (0, 2)]
        half = Fraction(1, 2)
        _check_combination(points, (1, 1), {0: half, 1: half})
        for weights in ({0: half, 1: Fraction(1, 3)}, {0: Fraction(1), 1: Fraction(0)}):
            with pytest.raises(ArithmeticError):
                _check_combination(points, (1, 1), weights)

    def test_negative_weight_raises(self):
        """An affine combination that hits the target is not a convex one."""
        weights = {0: Fraction(-1, 2), 1: Fraction(3, 2)}
        with pytest.raises(ArithmeticError):
            _check_combination([(0, 0), (2, 2)], (3, 3), weights)

    def test_wrong_combination_raises_under_optimize(self):
        """Under ``python -O`` the re-check still raises on wrong weights."""
        code = (
            "from fractions import Fraction\n"
            "from coweights.oracle import _check_combination\n"
            "assert False, 'asserts are live'\n"
            "try:\n"
            "    _check_combination([(2, 0), (0, 2)], (1, 1), {0: Fraction(1), 1: Fraction(0)})\n"
            "except ArithmeticError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_certificate_rechecked_under_optimize(self):
        """Under ``python -O`` the oracle still re-checks its inside
        certificate: orbit points with weights that do not recombine to x
        raise instead of answering."""
        code = (
            "from fractions import Fraction\n"
            "from coweights import coweight, oracle\n"
            "assert False, 'asserts are live'\n"
            "oracle._descend = lambda *args: ([(2, 1, 0)], {0: Fraction(1)})\n"
            "try:\n"
            "    oracle.caratheodory_in_hull((1, 1, 1), coweight('A', (2, 1, 0)))\n"
            "except ArithmeticError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_wrong_sector_raises(self):
        """A coweight of the other D sector is rejected, as by ``in_hull``,
        instead of being read in the wrong units."""
        x, mu = coweight("D", (1, 1)), coweight("D", (3, 1), "half")
        for check in (in_hull, caratheodory_in_hull, convex_combination_bruteforce):
            with pytest.raises(MismatchError):
                check(x, mu)

    def test_weyl_cap(self):
        """The literal subset search enumerates the orbit and keeps its cap;
        the orbit-free oracle answers at B5 (|W| = 3840) without one."""
        mu = Coweight(GroupKind(Family.B, 5), (1, 0, 0, 0, 0))
        with pytest.raises(CapExceeded):
            convex_combination_bruteforce((0, 0, 0, 0, 0), mu)
        assert convex_combination_bruteforce((0, 0, 0, 0, 0), mu, weyl_cap=4000)
        assert caratheodory_in_hull((0, 0, 0, 0, 0), mu)

    # Short IDs keep the four cases distinct in test listings that cut long
    # names at 100 characters.
    @pytest.mark.parametrize(
        "family,sector",
        FAMILY_SECTORS,
        ids=[f"{f.name}-{s.name.lower()}" for f, s in FAMILY_SECTORS],
    )
    def test_face_descent_matches_literal_subset_search(self, family, sector):
        """The face-descent oracle and the literal enumeration agree, and
        both agree with the prefix-sum membership test."""
        kind = GroupKind(family, 2)
        grid = [Fraction(k, 2) for k in range(-4, 5)]
        for mu in dominant_coweights(kind, sector, 2 if sector is Sector.INTEGRAL else 3):
            for x in product(grid, repeat=2):
                via_descent = caratheodory_in_hull(x, mu)
                via_subsets = convex_combination_bruteforce(x, mu) is not None
                assert via_descent == via_subsets == in_hull(x, mu), (mu, x)

    @pytest.mark.parametrize(
        "family,sector",
        FAMILY_SECTORS,
        ids=[f"{f.name}-{s.name.lower()}" for f, s in FAMILY_SECTORS],
    )
    def test_low_rank_matches_literal_subset_search(self, family, sector):
        """Ranks 1 and 2, on grids of thirds just past the bounding box
        (every third at rank 1, every other third at rank 2): A1's hull is
        a single point, B1's a segment, D2's a segment or a rectangle in
        either sector.  The oracle, the literal enumeration and
        ``in_hull`` agree."""
        bound = 3 if sector is Sector.HALF else 2
        for rank in ranks_for(family, 2):
            stride = 1 if rank == 1 else 2
            ends = (-3 * bound - 1, 3 * bound + 2)
            grid = [Fraction(k, 3) for k in range(*ends, stride)]
            for mu in dominant_coweights(GroupKind(family, rank), sector, bound):
                for x in product(grid, repeat=rank):
                    via_descent = caratheodory_in_hull(x, mu)
                    via_subsets = convex_combination_bruteforce(x, mu) is not None
                    assert via_descent == via_subsets == in_hull(x, mu), (mu, x)

    @pytest.mark.parametrize(
        "family,sector",
        FAMILY_SECTORS,
        ids=[f"{f.name}-{s.name.lower()}" for f, s in FAMILY_SECTORS],
    )
    def test_accepts_every_orbit_point(self, family, sector):
        """Every orbit point of every dominant μ with max entry at most 3,
        ranks up to 3, is certified inside."""
        for rank in ranks_for(family, 3):
            for mu in dominant_coweights(GroupKind(family, rank), sector, 3):
                for v in weyl_orbit(family, mu.entries):
                    assert caratheodory_in_hull(v, mu), (mu, v)


def test_support_formula_matches_explicit_orbit():
    """h(c) = <dominant rep of c, μ> is the largest c . v over the orbit:
    the trust base of every outside verdict.  Every c in {-1, 0, 1}ⁿ (0
    included, trivially), every dominant μ with max entry 3, families A,
    B and D at ranks up to 4, both D sectors; ranks 2-4 alone give 13,014
    pairs."""
    pairs = wrong = 0
    for family, sector in FAMILY_SECTORS:
        for rank in ranks_for(family, 4):
            for mu in dominant_coweights(GroupKind(family, rank), sector, 3):
                orbit = weyl_orbit(family, mu.entries)
                for c in product((-1, 0, 1), repeat=rank):
                    pairs += rank >= 2
                    top = max(sum(a * b for a, b in zip(c, v)) for v in orbit)
                    wrong += _support(family, c, mu.entries) != top
    assert wrong == 0
    assert pairs == 13014


class TestVerifyMainTheorem:
    def test_family_a_two_classes(self):
        kind = GroupKind(Family.A, 3)
        report = verify_main_theorem(LeviShape(kind, (2, 1)), coweight("A", (1, 1, 0)))
        assert report.equal
        assert {c.batch_sums for c in report.lhs_classes} == {(2, 0), (1, 1)}
        assert report.lhs_classes == report.rhs_classes

    def test_whole_group_shape_single_class(self):
        kind = GroupKind(Family.A, 3)
        mu = coweight("A", (2, 1, 0))
        report = verify_main_theorem(LeviShape(kind, (3,)), mu)
        assert report.equal
        assert len(report.lhs_classes) == 1
        kind_b = GroupKind(Family.B, 2)
        mu_b = coweight("B", (2, 1))
        report_b = verify_main_theorem(LeviShape(kind_b, (), 2), mu_b)
        assert report_b.equal
        assert len(report_b.lhs_classes) == 1

    def test_family_b_minimal_levi(self):
        kind = GroupKind(Family.B, 2)
        report = verify_main_theorem(LeviShape(kind, (1,), 1), coweight("B", (1, 0)))
        assert report.equal
        lifts = {c.canonical_lift.entries for c in report.lhs_classes}
        assert lifts == {(1, 0), (0, 1), (-1, 0)}

    def test_report_consistency(self):
        kind = GroupKind(Family.D, 3)
        shape = LeviShape(kind, (1,), 2)
        mu = coweight("D", (2, 1, -1))
        report = verify_main_theorem(shape, mu)
        assert report.equal == (
            not report.missing_from_lhs and not report.missing_from_rhs
        )
        # every witness is a hull point of the right class realizing its class
        for cls, nu in report.witnesses:
            assert same_class_XG(nu, mu)
            assert in_hull(nu, mu)
            assert class_of(shape, nu) == cls

    def test_easy_inclusion_always(self):
        """Hull classes always satisfy the right-hand conditions."""
        kind = GroupKind(Family.D, 2)
        for sector in (Sector.INTEGRAL, Sector.HALF):
            for mu in dominant_coweights(kind, sector, 3):
                for shape in all_shapes(kind):
                    report = verify_main_theorem(shape, mu)
                    assert not report.missing_from_rhs, (shape, mu)

    def test_deterministic_reports(self):
        kind = GroupKind(Family.B, 3)
        shape = LeviShape(kind, (2,), 1)
        mu = coweight("B", (2, 1, 0))
        a = verify_main_theorem(shape, mu)
        b = verify_main_theorem(shape, mu)
        assert a.witnesses == b.witnesses
        assert a.missing_from_lhs == b.missing_from_lhs
        assert sorted(c.sort_key() for c in a.lhs_classes) == sorted(
            c.sort_key() for c in b.lhs_classes
        )


def test_box_shell_contains_no_hull_points():
    """Nothing at sup-norm radius max|mu|+1 is in the hull, so the
    enumeration box is large enough."""
    cases = [
        coweight("A", (2, 1, 0)),
        coweight("B", (2, 1)),
        coweight("D", (2, 1, -1)),
        coweight("D", (3, 1), "half"),
    ]
    for mu in cases:
        radius = max(abs(e) for e in mu.entries) + 1
        n = mu.kind.rank
        shell = [
            v
            for v in product(range(-radius, radius + 1), repeat=n)
            if max(abs(e) for e in v) == radius
        ]
        for v in shell:
            assert not in_hull(v, mu), (mu, v)


def test_rhs_canonical_lifts_are_hull_points():
    """End-to-end path: the canonical lift of every class satisfying the
    right-hand conditions is itself a lattice point of the hull."""
    cases = [
        (GroupKind(Family.A, 3), Sector.INTEGRAL, 2),
        (GroupKind(Family.B, 2), Sector.INTEGRAL, 2),
        (GroupKind(Family.D, 3), Sector.INTEGRAL, 2),
        (GroupKind(Family.D, 3), Sector.HALF, 3),
    ]
    for kind, sector, bound in cases:
        for mu in dominant_coweights(kind, sector, bound):
            for shape in all_shapes(kind):
                report = verify_main_theorem(shape, mu)
                for cls in report.rhs_classes:
                    lift = cls.canonical_lift
                    assert same_class_XG(lift, mu), (shape, mu, lift)
                    assert in_hull(lift, mu), (shape, mu, lift)
                    rep = dominant_representative(lift)
                    assert in_hull(rep, mu), (shape, mu, lift)


def test_trivial_grid_with_zero_weight():
    kind = GroupKind(Family.A, 2)
    mu = coweight("A", (0, 0))
    for shape in all_shapes(kind):
        report = verify_main_theorem(shape, mu)
        assert report.equal
        assert len(report.lhs_classes) == 1


def _box_scan_dominant_coweights(kind, sector, max_entry):
    """The (max_entry+1)^n box scan that dominant_coweights replaced, kept
    as its reference."""
    n = kind.rank
    step = 2 if sector is Sector.HALF else 1
    vals = range(step - 1, max_entry + 1, step)
    out = []
    if kind.family is not Family.D:
        for vec in product(vals, repeat=n):
            if all(vec[i] >= vec[i + 1] for i in range(n - 1)):
                out.append(Coweight(kind, vec, sector))
        return sorted(out, key=lambda c: c.entries)
    for head in product(vals, repeat=n - 1):
        if any(head[i] < head[i + 1] for i in range(n - 2)):
            continue
        for last in range(-head[-1], head[-1] + 1, step):
            out.append(Coweight(kind, head + (last,), sector))
    return sorted(out, key=lambda c: c.entries)


def _largest_radius(sector, rank):
    """The largest max|mu_i| whose Pmu box stays within ``BOX_CAP``; odd in
    the half sector, whose doubled entries are odd."""
    side = round(BOX_CAP ** (1 / rank))
    while side**rank > BOX_CAP:
        side -= 1
    while (side + 1) ** rank <= BOX_CAP:
        side += 1
    radius = side - 1 if sector is Sector.HALF else (side - 1) // 2
    if sector is Sector.HALF and radius % 2 == 0:
        radius -= 1
    assert len(entry_values(sector, radius)) ** rank <= BOX_CAP
    return radius


def _scanned(*args):
    raise AssertionError("a beta grid point was checked")


class TestScanCaps:
    """``BOX_CAP`` bounds the lift boxes and the beta grid too, checked
    before their first candidate."""

    def test_lift_box_refused_before_first_lift(self):
        """B6, shape 1^6, bound 5: 11^6 (about 1.77e6) lifts."""
        shape = LeviShape(GroupKind(Family.B, 6), (1,) * 6)
        with pytest.raises(CapExceeded):
            next(valid_lifts(shape, Sector.INTEGRAL, 5))

    def test_beta_grid_refused_before_first_point(self, monkeypatch):
        """B7, shape 1^7: a grid of 9^7 (about 4.8e6) points."""
        monkeypatch.setattr(oracle, "leq_batch_ends", _scanned)
        shape = LeviShape(GroupKind(Family.B, 7), (1,) * 7)
        with pytest.raises(CapExceeded):
            batch_end_agreement(shape, coweight("B", (1, 0, 0, 0, 0, 0, 0)))

    def test_property_lifts_refused_before_beta_grid(self, monkeypatch):
        """B6, shape 1^6, mu = (4,0,...): the 9^6-point beta grid would
        run first, but the 11^6 lift box is refused before it."""
        monkeypatch.setattr(oracle, "leq_batch_ends", _scanned)
        shape = LeviShape(GroupKind(Family.B, 6), (1,) * 6)
        with pytest.raises(CapExceeded):
            oracle.instance_property_failures(shape, coweight("B", (4, 0, 0, 0, 0, 0)))

    def test_pmu_box_past_maxsize_refused(self):
        """A radius of 10^20: the box is sized from its bounds, where
        ``len`` of a range would raise ``OverflowError``."""
        with pytest.raises(CapExceeded):
            enumerate_Pmu(coweight("A", (10**20,)))

    def test_lift_box_past_maxsize_refused(self):
        shape = LeviShape(GroupKind(Family.B, 1), (1,))
        with pytest.raises(CapExceeded):
            valid_lifts(shape, Sector.INTEGRAL, 10**20)

    def test_refused_pmu_box_builds_nothing(self):
        """The refused box of 4*10^6 + 1 candidates at rank 1 is never
        built: the peak traced allocation stays under 1 MB."""
        mu = coweight("A", (2 * 10**6,))
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded):
                enumerate_Pmu(mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "family,sector",
        FAMILY_SECTORS,
        ids=[f"{f.name}-{s.name.lower()}" for f, s in FAMILY_SECTORS],
    )
    def test_within_cap_up_to_rank_six(self, family, sector):
        """At ranks <= 6 no shape's lift box or beta grid is refused where
        the Pmu box is not.  The lift box grows with the radius (the beta
        grid does not depend on it), so the largest radius the Pmu cap
        admits stands for all."""
        for rank in ranks_for(family, 6):
            kind = GroupKind(family, rank)
            radius = _largest_radius(sector, rank)
            mu = Coweight(kind, (1 if sector is Sector.HALF else 0,) * rank, sector)
            for shape in all_shapes(kind):
                next(valid_lifts(shape, sector, radius))
                next(_beta_grid(shape, mu))


class TestDominantCoweights:
    @pytest.mark.parametrize("family,sector", FAMILY_SECTORS)
    def test_matches_box_scan(self, family, sector):
        for rank in range(2 if family is Family.D else 1, 6):
            kind = GroupKind(family, rank)
            for max_entry in range(-1, 5):
                assert dominant_coweights(kind, sector, max_entry) == (
                    _box_scan_dominant_coweights(kind, sector, max_entry)
                ), (kind, max_entry)

    def test_grid_cap(self):
        kind = GroupKind(Family.D, 3)
        with pytest.raises(CapExceeded):
            dominant_coweights(kind, Sector.INTEGRAL, 10**9)
        assert len(dominant_coweights(kind, Sector.INTEGRAL, 30)) <= GRID_CAP


class TestSweep:
    def test_small_grid_all_equal(self):
        config = SweepConfig(
            families=(Family.A, Family.B), ranks=(1, 2), max_entry=1
        )
        reports = sweep(config)
        assert reports
        assert all(r.equal and not r.property_failures for r in reports)

    def test_family_d_rank2_both_sectors(self):
        config = SweepConfig(
            families=(Family.D,), ranks=(2,), max_entry=2,
            sectors=(Sector.INTEGRAL, Sector.HALF),
        )
        reports = sweep(config)
        shapes_seen = {str(r.shape) for r in reports}
        assert shapes_seen == {"1,1", "2", ";2"}
        assert all(r.equal and not r.property_failures for r in reports)

    def test_half_sector_grid(self):
        config = SweepConfig(
            families=(Family.D,), ranks=(2,), max_entry=3,
            sectors=(Sector.HALF,),
        )
        reports = sweep(config)
        assert len(reports) == 18  # 3 shapes x 6 dominant weights
        assert all(r.equal for r in reports)

    def test_empty_grid(self):
        config = SweepConfig(families=(Family.D,), ranks=(1,), max_entry=1)
        assert sweep(config) == []

    def test_deterministic_order(self):
        config = SweepConfig(families=(Family.A,), ranks=(2,), max_entry=1)
        first = [(str(r.shape), r.mu.entries) for r in sweep(config)]
        second = [(str(r.shape), r.mu.entries) for r in sweep(config)]
        assert first == second
