"""The exact hull oracle past the acceptance grid: the benchmark's rank-3/4
sample against the full-tableau simplex kept here as the reference, the
per-μ orbit memo, and targets that are not all ``int`` or ``Fraction``.

The sample comes from ``perfbench/probe.py`` and its verdict digest from
``perfbench/ref/hull_oracle.json``; both are only read.
"""

import importlib.util
import json
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
    """The full-tableau form of ``oracle._solve_convex_combination``, kept
    as its reference: every row orbit-wide, rewritten on every pivot."""
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


def test_benchmark_sample_matches_in_hull_and_reference(monkeypatch):
    """Seed 0 of the benchmark sample, all 3600 points at ranks 3-4.

    ``caratheodory_in_hull`` agrees with ``in_hull`` and with the committed
    digest.  It reaches the simplex once per inside point and never for an
    outside point, so the support functionals decide every outside point.
    The simplex on its own returns ``None`` exactly on the outside points,
    and on every 4th point its weights equal the full-tableau reference's.
    """
    solve = oracle._solve_convex_combination
    reached = []

    def counted(points, target):
        reached.append(solve(points, target))
        return reached[-1]

    monkeypatch.setattr(oracle, "_solve_convex_combination", counted)
    sample = _load("probe").hull_sample(0)
    verdicts = []
    disagree, wrong_reach, wrong_none, wrong_weights = [], [], [], []
    for i, (mu, x) in enumerate(sample):
        before = len(reached)
        exact = caratheodory_in_hull(x, mu)
        inside = in_hull(x, mu)
        verdicts.append("1" if exact else "0")
        if inside != exact:
            disagree.append(i)
        if len(reached) - before != inside:
            wrong_reach.append(i)
        orbit = oracle._orbit_problem(mu.kind.family, mu.entries)[0]
        weights = reached[-1] if len(reached) > before else solve(orbit, x)
        if (weights is None) == inside:
            wrong_none.append(i)
        if i % 4 == 0 and weights != _tableau_reference(orbit, x):
            wrong_weights.append(i)
    assert disagree == []
    assert wrong_reach == []
    assert wrong_none == []
    assert wrong_weights == []
    reference = json.loads((PERFBENCH / "ref" / "hull_oracle.json").read_text())
    assert len(sample) == reference["points"]
    digest = _load("common").verdict_digest("".join(verdicts))
    assert digest == reference["digests"]["0"]


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
    orbit = oracle.weyl_orbit(B110.kind.family, B110.entries)
    weights = oracle._solve_convex_combination(orbit, (1, Fraction(1, 3), 0.5))
    assert {orbit[k]: w for k, w in weights.items()} == {
        (1, 0, -1): Fraction(1, 12),
        (1, 1, 0): Fraction(1, 3),
        (1, 0, 1): Fraction(7, 12),
    }

