"""The exact hull oracle past the acceptance grid: the benchmark's rank-3/4
sample against the full-tableau simplex kept here as an independent LP
reference, the face-descent certificates, the per-μ orbit memo, and
targets that are not all ``int`` or ``Fraction``.

The sample comes from ``perfbench/probe.py`` and its verdict digest from
``perfbench/ref/hull_oracle.json``; both are only read.
"""

import hashlib
import importlib.util
import json
import random
from decimal import Decimal
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from coweights import caratheodory_in_hull, coweight, in_hull, oracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tableau_reference(points, target):
    """A phase-one simplex (Bland's rule, fraction-free pivots) over the
    full tableau, every row orbit-wide: the oracle's former LP, kept as an
    independent reference.  ``None`` when no convex combination exists."""
    exact = [Fraction(e) for e in target]
    den = lcm(*(e.denominator for e in exact))
    rows = [[e * den for e in coord] for coord in zip(*points)]
    rhs_scaled = [int(e * den) for e in exact]
    m = len(points)
    tab = []
    for row, b in zip(rows + [[1] * m], rhs_scaled + [1]):
        tab.append([-e for e in row] + [-b] if b < 0 else row + [b])
    nrows = len(tab)
    tab.append([-sum(col) for col in zip(*tab)])
    RHS = m
    basis = list(range(m, m + nrows))
    denom = 1
    while True:
        obj = tab[nrows]
        q = next((jcol for jcol in range(m) if obj[jcol] < 0), -1)
        if q < 0:
            break
        p = -1
        for i in range(nrows):
            if tab[i][q] <= 0:
                continue
            if p < 0:
                p = i
                continue
            left = tab[i][RHS] * tab[p][q]
            right = tab[p][RHS] * tab[i][q]
            if left < right or (left == right and basis[i] < basis[p]):
                p = i
        if p < 0:
            return None
        prow = tab[p]
        pivot = prow[q]
        for i in range(nrows + 1):
            if i != p:
                coeff = tab[i][q]
                tab[i] = [
                    (a * pivot - coeff * b) // denom for a, b in zip(tab[i], prow)
                ]
        basis[p] = q
        denom = pivot
    if tab[nrows][RHS] != 0:
        return None
    weights = {}
    for i in range(nrows):
        if basis[i] < m:
            w = Fraction(tab[i][RHS], denom)
            if w:
                weights[basis[i]] = w
    return weights


def _certifies(points, weights, x, most):
    """Whether ``weights`` puts positive weight on at most ``most`` distinct
    ``points`` and recombines exactly to ``x``, re-derived from scratch."""
    chosen = [points[k] for k in weights]
    return (
        len(set(chosen)) == len(chosen) <= most
        and all(w > 0 for w in weights.values())
        and sum(weights.values()) == 1
        and all(
            sum(w * points[k][j] for k, w in weights.items()) == Fraction(e)
            for j, e in enumerate(x)
        )
    )


def _count_descents(monkeypatch):
    """Route ``oracle._face_descent`` through a recorder of (points, weights)."""
    descend = oracle._face_descent
    reached = []

    def counted(points, support, den, scaled):
        reached.append((points, descend(points, support, den, scaled)))
        return reached[-1][1]

    monkeypatch.setattr(oracle, "_face_descent", counted)
    return reached


def test_benchmark_sample_matches_in_hull_and_reference(monkeypatch):
    """Seed 0 of the benchmark sample, all 3600 points at ranks 3-4.

    ``caratheodory_in_hull`` agrees with ``in_hull`` and with the committed
    digest.  It reaches the face descent once per inside point and never
    for an outside point, so the support functionals decide every outside
    point.  Every certificate has at most rank+1 distinct orbit points,
    positive weights, and recombines exactly to x.  On every 4th point the
    full-tableau simplex finds no combination exactly on the outside points.
    """
    reached = _count_descents(monkeypatch)
    sample = _load("probe").hull_sample(0)
    verdicts = []
    disagree, wrong_reach, wrong_certificate, wrong_reference = [], [], [], []
    for i, (mu, x) in enumerate(sample):
        before = len(reached)
        exact = caratheodory_in_hull(x, mu)
        inside = in_hull(x, mu)
        verdicts.append("1" if exact else "0")
        if inside != exact:
            disagree.append(i)
        if len(reached) - before != inside:
            wrong_reach.append(i)
        elif inside and not _certifies(*reached[-1], x, mu.kind.rank + 1):
            wrong_certificate.append(i)
        if i % 4 == 0:
            orbit = oracle._orbit_problem(mu.kind.family, mu.entries)[0]
            if (_tableau_reference(orbit, x) is None) == inside:
                wrong_reference.append(i)
    assert disagree == []
    assert wrong_reach == []
    assert wrong_certificate == []
    assert wrong_reference == []
    reference = json.loads((PERFBENCH / "ref" / "hull_oracle.json").read_text())
    assert len(sample) == reference["points"]
    digest = _load("common").verdict_digest("".join(verdicts))
    assert digest == reference["digests"]["0"]


# SHA-256 of every seed-0 face-descent certificate, one line per inside
# point in sample order: its (orbit point, weight) items, sorted.
CERTIFICATE_DIGEST = "410eaaf75d86c2f2c7f2ba2b3b848ca058e750753bb3228c1761a7c6a6601f20"


class _ScanCounter:
    """A support function that counts how often it is scanned."""

    def __init__(self, support):
        self.support, self.scans = support, 0

    def __iter__(self):
        self.scans += 1
        return iter(self.support)


def test_face_descent_certificates_pinned(monkeypatch):
    """The seed-0 certificates are pinned by their digest, and the descent
    path by its total number of support scans.

    Every step that moves scans the support once and the last step lands
    on a vertex, so scans + 1 is the number of steps: at most rank+1.  The
    weights come from the first orbit point of the smallest face holding
    the current point, whichever tied direction shrank the face, so only
    the scan total shows the tie rule (first direction on a tie).
    """
    descend = oracle._face_descent
    lines, too_long, scans = [], [], []

    def recorded(points, support, den, scaled):
        counter = _ScanCounter(support)
        weights = descend(points, counter, den, scaled)
        scans.append(counter.scans)
        if counter.scans > len(scaled):
            too_long.append(scaled)
        lines.append(" ".join(
            f"{','.join(map(str, point))}={w}"
            for point, w in sorted((points[k], w) for k, w in weights.items())
        ))
        return weights

    monkeypatch.setattr(oracle, "_face_descent", recorded)
    for mu, x in _load("probe").hull_sample(0):
        caratheodory_in_hull(x, mu)
    assert too_long == []
    assert len(lines) == 1897
    assert sum(scans) == 5220
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CERTIFICATE_DIGEST


def test_b5_reach(monkeypatch):
    """Past the default Weyl cap: seeded rational points at B5, μ =
    (2,1,1,0,0) (|W| = 3840, a 240-point orbit), agree with ``in_hull``,
    and each inside point carries a certificate of at most 6 points."""
    reached = _count_descents(monkeypatch)
    mu = coweight("B", (2, 1, 1, 0, 0))
    rng = random.Random(5)
    inside_count = 0
    for _ in range(50):
        x = tuple(Fraction(rng.randint(-6, 6), 4) for _ in range(5))
        before = len(reached)
        inside = in_hull(x, mu)
        assert caratheodory_in_hull(x, mu, weyl_cap=3840) is inside, x
        assert len(reached) - before == inside, x
        if inside:
            inside_count += 1
            assert _certifies(*reached[-1], x, 6), x
    assert 0 < inside_count < 50


def test_incomplete_support_raises():
    """The descent trusts its support function to hold every facet normal;
    when one is missing it raises instead of answering.  Without x + y <= 2
    the point (2, 2) passes both given bounds and its face runs out of
    points; with only x <= 1 the ray from (0, 0) up to (0, 1) is unbounded."""
    with pytest.raises(ArithmeticError):
        oracle._face_descent([(0, 2), (2, 0)], [((1, 0), 2), ((0, 1), 2)], 1, [2, 2])
    with pytest.raises(ArithmeticError):
        oracle._face_descent([(0, 0), (1, 0)], [((1, 0), 1)], 1, [0, 1])


def test_orbit_built_once_per_mu(monkeypatch):
    """The memo calls ``weyl_orbit`` through the module, once per μ."""
    calls = []
    original = oracle.weyl_orbit

    def counted(family, entries):
        calls.append(entries)
        return original(family, entries)

    monkeypatch.setattr(oracle, "weyl_orbit", counted)
    oracle._orbit_problem.cache_clear()
    try:
        mu, other = coweight("B", (2, 1, 0)), coweight("A", (2, 1, 0))
        for x in ((0, 0, 0), (1, 1, 1), (3, 0, 0)):
            caratheodory_in_hull(x, mu)
        caratheodory_in_hull((1, 1, 1), other)
        assert calls == [(2, 1, 0), (2, 1, 0)]
    finally:
        oracle._orbit_problem.cache_clear()
    orbit = oracle.weyl_orbit(mu.kind.family, mu.entries)
    assert isinstance(orbit, list)
    orbit.clear()
    assert caratheodory_in_hull((1, 1, 1), mu)


B110 = coweight("B", (1, 1, 0))
A210 = coweight("A", (2, 1, 0))


@pytest.mark.parametrize("x, mu, inside", [
    ((0.5, 0.5, 0), B110, True),
    ((1.5, 0.25, 0), B110, False),
    ((0.75, 0.75, 0.75), B110, False),
    ((1, Fraction(1, 3), 0.5), B110, True),
    ((Fraction(3, 2), 1, 0.5), A210, True),
    ((0.1, 0.2, 2.7), A210, False),  # the floats do not sum to exactly 3
    ((Decimal("0.5"), Decimal("0.5"), 0), B110, True),
    ((Decimal("0.1"), 1, Fraction(-1, 3)), coweight("D", (2, 1, 1)), True),
    ((1.0, -1.0, 1.0, Fraction(-3, 4)), coweight("D", (2, 2, 1, 1)), True),
    ((2.5, 0.5, -0.5), coweight("D", (3, 1, 1), "half"), False),
])
def test_float_and_mixed_targets(x, mu, inside):
    """Float and ``Decimal`` entries are read exactly, as ``Fraction(e)``."""
    assert caratheodory_in_hull(x, mu) is inside


def test_mixed_target_certificate():
    orbit, support = oracle._orbit_problem(B110.kind.family, B110.entries)
    target = (1, Fraction(1, 3), 0.5)
    weights = oracle._face_descent(orbit, support, *oracle._integer_target(target))
    assert {orbit[k]: w for k, w in weights.items()} == {
        (1, -1, 0): Fraction(1, 12),
        (1, 0, 1): Fraction(1, 2),
        (1, 1, 0): Fraction(5, 12),
    }
