"""The exact hull oracle past the acceptance grid: the benchmark's rank-3/4
sample, the per-μ orbit memo, and targets that are not all ``int`` or
``Fraction``.

The sample comes from ``perfbench/probe.py`` and its verdict digest from
``perfbench/ref/hull_oracle.json``; both are only read.
"""

import importlib.util
import json
from decimal import Decimal
from fractions import Fraction
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


def test_benchmark_sample_matches_in_hull_and_reference():
    """Seed 0 of the benchmark sample: all 3600 points at ranks 3-4 agree
    with ``in_hull``, and the verdicts match the committed digest."""
    sample = _load("probe").hull_sample(0)
    verdicts = []
    disagree = []
    for i, (mu, x) in enumerate(sample):
        exact = caratheodory_in_hull(x, mu)
        verdicts.append("1" if exact else "0")
        if in_hull(x, mu) != exact:
            disagree.append(i)
    assert disagree == []
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

