"""The exact hull oracle past the acceptance grid: the benchmark's rank-3/4
sample against two references kept here, the full-tableau simplex (an
independent LP) and the oracle's former face descent over the explicit
orbit and its 3ⁿ support table; the orbit-free certificates, their guards
and their reach; and targets that are not all ``int`` or ``Fraction``.

The sample comes from ``perfbench/probe.py`` and its verdict digest from
``perfbench/ref/hull_oracle.json``; both are only read.
"""

import hashlib
import importlib.util
import json
import random
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from operator import mul
from pathlib import Path

import pytest

from coweights import (
    Coweight, Family, GroupKind, Sector, caratheodory_in_hull, coweight, in_hull, leq,
    oracle,
)
from coweights.oracle import _check_combination, _integer_target, weyl_orbit

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


@lru_cache(maxsize=None)
def _orbit_problem(family, entries):
    """The Weyl orbit of ``entries`` as a tuple, and its support function:
    ``(c, h(c) = max of c . v over the orbit)`` for every ``c`` in
    {-1, 0, 1}^n except 0, unit vectors first.  They include a multiple of
    each Weyl conjugate of each fundamental coweight, so x is in the hull
    iff c . x <= h(c) for all of them: the pairs are a complete
    H-description, which :func:`_face_descent` walks for inside
    certificates.  The oracle's former support builder, kept as a
    reference."""
    pts = tuple(weyl_orbit(family, entries))
    nonzero = (c for c in product((1, 0, -1), repeat=len(entries)) if any(c))
    directions = sorted(nonzero, key=lambda c: len(c) - c.count(0))
    support = tuple((c, max(sum(map(mul, c, v)) for v in pts)) for c in directions)
    return pts, support


def _face_descent(points, support, den, scaled):
    """Weights of a convex combination of at most dim+1 ``points`` equal
    to ``scaled / den``, read off the support function alone: the oracle's
    former orbit-index descent, kept as a reference.

    Carathéodory's construction in integers, the current point ``y / d``
    in a face kept as the indices of its orbit points: walk from the
    face's first point ``v`` through ``y / d`` to the first ``c . p = h(c)``
    the ray meets (least ``a / b``, ``b = c . (y - d v) > 0``,
    ``a = d h(c) - c . d v``, first ``c`` on a tie), give ``v`` the share
    ``(a - b) / a`` and move to the exit point.  The face shrinks to its
    points with ``c . p = h(c)``, a proper face (``a >= b > 0`` puts ``v``
    off it), so the walk ends at a vertex within dim+1 steps.  If
    ``support`` misses a facet normal, a ray can run unbounded or a face
    empty: both raise :class:`ArithmeticError` instead of answering.
    """
    y, d = list(scaled), den
    face = list(range(len(points)))
    mass = Fraction(1)
    weights = {}
    while face:
        k = face[0]
        dv = [d * e for e in points[k]]
        if y == dv:
            weights[k] = mass
            return weights
        step = [p - q for p, q in zip(y, dv)]
        a = b = 0
        for c, h in support:
            rise = sum(map(mul, c, step))
            if rise > 0:
                room = d * h - sum(map(mul, c, dv))
                if not b or room * b < a * rise:
                    a, b, normal, top = room, rise, c, h
        if not b:
            raise ArithmeticError(f"no direction bounds the ray from {points[k]}")
        if a != b:
            weights[k] = mass * (a - b) / a
        mass = mass * b / a
        y = [b * e + a * s for e, s in zip(dv, step)]
        g = gcd(b * d, *y)
        y, d = [e // g for e in y], b * d // g
        face = [j for j in face if sum(map(mul, normal, points[j])) == top]
    raise ArithmeticError(f"the face descent to {list(scaled)}/{den} ran out of points")


def _orbit_reference(x, mu):
    """The oracle's former verdict over the explicit orbit: outside when a
    support functional separates, else certified by :func:`_face_descent`."""
    points, support = _orbit_problem(mu.kind.family, mu.entries)
    den, scaled = _integer_target(x)
    if any(sum(map(mul, c, scaled)) > den * h for c, h in support):
        return False
    _check_combination(points, x, _face_descent(points, support, den, scaled))
    return True


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
    """Route ``oracle._descend`` through a recorder of (points, weights)."""
    descend = oracle._descend
    reached = []

    def counted(family, mu, den, scaled):
        reached.append(descend(family, mu, den, scaled))
        return reached[-1]

    monkeypatch.setattr(oracle, "_descend", counted)
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
            orbit = _orbit_problem(mu.kind.family, mu.entries)[0]
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


# SHA-256 of every seed-0 certificate of the orbit-index reference
# descent, one line per inside point in sample order: its (orbit point,
# weight) items, sorted.
CERTIFICATE_DIGEST = "410eaaf75d86c2f2c7f2ba2b3b848ca058e750753bb3228c1761a7c6a6601f20"


class _ScanCounter:
    """A support function that counts how often it is scanned."""

    def __init__(self, support):
        self.support, self.scans = support, 0

    def __iter__(self):
        self.scans += 1
        return iter(self.support)


def test_face_descent_certificates_pinned():
    """The seed-0 certificates of the orbit-index reference descent are
    pinned by their digest, and its path by its total number of support
    scans.

    Every step that moves scans the support once and the last step lands
    on a vertex, so scans + 1 is the number of steps: at most rank+1.  The
    weights come from the first orbit point of the smallest face holding
    the current point, whichever tied direction shrank the face, so only
    the scan total shows the tie rule (first direction on a tie).
    """
    lines, too_long, scans = [], [], []
    for mu, x in _load("probe").hull_sample(0):
        points, support = _orbit_problem(mu.kind.family, mu.entries)
        den, scaled = _integer_target(x)
        if any(sum(map(mul, c, scaled)) > den * h for c, h in support):
            continue
        counter = _ScanCounter(support)
        weights = _face_descent(points, counter, den, scaled)
        scans.append(counter.scans)
        if counter.scans > len(scaled):
            too_long.append(scaled)
        lines.append(" ".join(
            f"{','.join(map(str, point))}={w}"
            for point, w in sorted((points[k], w) for k, w in weights.items())
        ))
    assert too_long == []
    assert len(lines) == 1897
    assert sum(scans) == 5220
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CERTIFICATE_DIGEST


# SHA-256 of every seed-0 certificate of ``caratheodory_in_hull``, in the
# same form as CERTIFICATE_DIGEST.
ORBIT_FREE_DIGEST = "4bbddfa830b2bd7b6187dd9cefdd188ea448d57c05306016ba9bd945e48a5c38"


def test_orbit_free_certificates_pinned(monkeypatch):
    """The seed-0 certificates of the orbit-free descent are pinned by
    their digest, and its path by the total number of vertices it visits:
    at most rank+1 per point, each visit one step of the walk.  The walk
    starts at mu, so the 275 targets on the orbit take one vertex each."""
    reached = _count_descents(monkeypatch)
    too_long = []
    for mu, x in _load("probe").hull_sample(0):
        before = len(reached)
        caratheodory_in_hull(x, mu)
        if len(reached) > before and len(reached[-1][0]) > mu.kind.rank + 1:
            too_long.append(x)
    assert too_long == []
    assert len(reached) == 1897
    assert sum(len(points) for points, _ in reached) == 5837
    assert sum(len(points) == 1 for points, _ in reached) == 275
    lines = [
        " ".join(
            f"{','.join(map(str, point))}={w}"
            for point, w in sorted((points[k], w) for k, w in weights.items())
        )
        for points, weights in reached
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ORBIT_FREE_DIGEST


@pytest.mark.parametrize("family, sector, entries", [
    ("B", "integral", (2, 1, 0)),
    ("D", "integral", (2, 1, 1, -1)),
    ("D", "half", (3, 1, 1, 1)),
], ids=["B3", "D4", "D4-half"])
def test_orbit_points_certify_themselves(monkeypatch, family, sector, entries):
    """Every point of W·μ is certified by one point, itself: the descent
    runs from μ to the target's dominant representative, which is μ, and
    pulls μ back to the target."""
    reached = _count_descents(monkeypatch)
    mu = Coweight(GroupKind(Family(family), len(entries)), entries, Sector(sector))
    for p in weyl_orbit(mu.kind.family, mu.entries):
        assert caratheodory_in_hull(p, mu), p
        points, weights = reached[-1]
        assert (points, weights) == ([p], {0: 1}), p


@pytest.mark.parametrize("seed", [0, 1])
def test_verdicts_match_orbit_reference(seed):
    """On hull samples 0 and 1, the orbit-free verdicts equal those of the
    former oracle over the explicit orbit and its 3ⁿ support table."""
    disagree = [
        i for i, (mu, x) in enumerate(_load("probe").hull_sample(seed))
        if caratheodory_in_hull(x, mu) != _orbit_reference(x, mu)
    ]
    assert disagree == []


def test_b5_reach(monkeypatch):
    """Past the subset search's Weyl cap: seeded rational points at B5, μ =
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
        assert caratheodory_in_hull(x, mu) is inside, x
        assert len(reached) - before == inside, x
        if inside:
            inside_count += 1
            assert _certifies(*reached[-1], x, 6), x
    assert 0 < inside_count < 50


def _orbit_point(rng, mu):
    """A seeded point of the Weyl orbit of ``mu``, drawn without the orbit:
    a random permutation with random signs (none in family A, an even
    number of flips in family D)."""
    n = mu.kind.rank
    family = mu.kind.family
    perm = rng.sample(range(n), n)
    signs = [1 if family is Family.A else rng.choice((1, -1)) for _ in range(n)]
    if family is Family.D and signs.count(-1) % 2:
        signs[0] = -signs[0]
    return tuple(s * mu.entries[i] for s, i in zip(signs, perm))


@pytest.mark.parametrize("family, sector, entries", [
    ("B", "integral", (3, 2, 2, 1, 1, 0, 0, 0)),
    ("D", "half", (5, 3, 3, 1, 1, 1, 1, -1)),
    ("A", "integral", (3, 2, 2, 1, 1, 0, 0, 0)),
    ("B", "integral", (4, 3, 3, 2, 2, 1, 1, 1, 1, 0, 0, 0)),
], ids=["B8", "D8-half", "A8", "B12"])
def test_reach_past_the_cap(monkeypatch, family, sector, entries):
    """Far past ``DEFAULT_WEYL_CAP`` (B12 has |W| = 2¹²·12! ≈ 2·10¹²):
    seeded convex combinations of up to rank+1 orbit points are certified
    by at most rank+1 orbit points, and points pushed past an orbit
    point, or drawn from the bounding box, get the verdict of
    ``in_hull``."""
    reached = _count_descents(monkeypatch)
    mu = Coweight(GroupKind(Family(family), len(entries)), entries, Sector(sector))
    n = len(entries)
    rng = random.Random(n)
    bound = max(abs(e) for e in entries)
    box_inside = 0
    for _ in range(20):
        chosen = [_orbit_point(rng, mu) for _ in range(rng.randint(1, n + 1))]
        shares = [rng.randint(1, 6) for _ in chosen]
        x = tuple(
            Fraction(sum(w * p[i] for w, p in zip(shares, chosen)), sum(shares))
            for i in range(n)
        )
        assert caratheodory_in_hull(x, mu), x
        assert _certifies(*reached[-1], x, n + 1), x
        pushed = tuple(Fraction(6, 5) * e for e in _orbit_point(rng, mu))
        assert not caratheodory_in_hull(pushed, mu), pushed
        box = [Fraction(rng.randint(-4 * bound, 4 * bound), 4) for _ in range(n)]
        if family == "A":
            box[-1] = sum(entries) - sum(box[:-1])
        inside = in_hull(box, mu)
        box_inside += inside
        assert caratheodory_in_hull(box, mu) is inside, box
    assert len(reached) == 20 + box_inside


def test_incomplete_support_raises():
    """The descent trusts its support function to hold every facet normal;
    when one is missing it raises instead of answering.  Without x + y <= 2
    the point (2, 2) passes both given bounds and its face runs out of
    points; with only x <= 1 the ray from (0, 0) up to (0, 1) is unbounded."""
    with pytest.raises(ArithmeticError):
        _face_descent([(0, 2), (2, 0)], [((1, 0), 2), ((0, 1), 2)], 1, [2, 2])
    with pytest.raises(ArithmeticError):
        _face_descent([(0, 0), (1, 0)], [((1, 0), 1)], 1, [0, 1])


@pytest.mark.parametrize("x, mu", [
    ((1, -1), (1, 1)),
    ((1, -1), (1, -1)),
    ((2, 1, -1), (2, 1, 1)),
    ((0, 0, 0), (2, 1, 1)),
    ((-2, 0, 0), (2, 1, 1)),
], ids=["outside-exit", "inside-rows", "outside-steps", "inside-orbit",
        "inside-pulled-back"])
def test_wrong_parity_normaliser_raises(monkeypatch, x, mu):
    """A family-D normaliser that flips an odd number of signs leaves the
    Weyl group; every verdict it proposes fails a re-check instead of
    being answered: a functional that does not separate, an exit before
    the point, a walk longer than rank+1 steps, or a certificate point
    outside the orbit.  For (-2, 0, 0) the walk to (2, 0, 0) is sound and
    the odd flip that pulls it back keeps the combination exact, so only
    the orbit check refuses it."""
    normalise = oracle._normaliser

    def no_parity(family, z):
        return normalise(Family.B if family is Family.D else family, z)

    monkeypatch.setattr(oracle, "_normaliser", no_parity)
    with pytest.raises(ArithmeticError):
        caratheodory_in_hull(x, coweight("D", mu))


def test_non_separating_functional_raises(monkeypatch):
    """An outside verdict is answered only after its functional separates:
    with the row functionals negated, the rows still put (2, 0) outside
    the hull of B(1, 0), but the functional offered, (-1, 0), does not
    separate it."""
    rows = oracle._row_functionals(Family.B, 2)
    negated = tuple(tuple(-e for e in r) for r in rows)
    monkeypatch.setattr(oracle, "_row_functionals", lambda family, rank: negated)
    with pytest.raises(ArithmeticError):
        caratheodory_in_hull((2, 0), coweight("B", (1, 0)))


@pytest.mark.parametrize("x, mu", [
    ((1, Fraction(1, 3), 0.5), coweight("B", (1, 1, 0))),
    ((1, 1, 1), coweight("A", (2, 1, 0))),
    ((Fraction(1, 2), 0, Fraction(-1, 4)), coweight("D", (2, 1, 1))),
], ids=["B3", "A3", "D3"])
def test_overshooting_exit_raises(monkeypatch, x, mu):
    """An exit search that reports twice the true exit ratio walks out of
    the hull; the next step finds its ray leaving the hull before the
    current point, or the re-check rejects the weights."""
    find_exit = oracle._exit

    def overshoot(family, m, d, dv, step):
        a, b, c = find_exit(family, m, d, dv, step)
        return 2 * a, b, c

    monkeypatch.setattr(oracle, "_exit", overshoot)
    assert in_hull(x, mu)
    with pytest.raises(ArithmeticError):
        caratheodory_in_hull(x, mu)


def test_oracle_never_builds_the_orbit(monkeypatch):
    """``caratheodory_in_hull`` calls ``weyl_orbit`` zero times, inside
    and outside, in families A and B."""
    calls = []
    original = oracle.weyl_orbit

    def counted(family, entries):
        calls.append(entries)
        return original(family, entries)

    monkeypatch.setattr(oracle, "weyl_orbit", counted)
    mu, other = coweight("B", (2, 1, 0)), coweight("A", (2, 1, 0))
    for x in ((0, 0, 0), (1, 1, 1), (3, 0, 0)):
        caratheodory_in_hull(x, mu)
    caratheodory_in_hull((1, 1, 1), other)
    assert calls == []
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
    ((0.9, 0.0, 0.1), coweight("A", (1, 0, 0)), False),  # 0.9 + 0.1 == 1.0 only in floats
])
def test_float_and_mixed_targets(x, mu, inside):
    """Float and ``Decimal`` entries are read exactly, as ``Fraction(e)``,
    by both oracles and by the order ``leq``, which on these rows agrees
    with the hull: (0.9, 0, 0.1) is not below (1, 0, 0), since
    0.9 + 0.1 is 1 only in floats."""
    assert caratheodory_in_hull(x, mu) is inside
    assert in_hull(x, mu) is inside
    assert leq(x, mu) is inside


def test_mixed_target_certificate():
    orbit, support = _orbit_problem(B110.kind.family, B110.entries)
    target = (1, Fraction(1, 3), 0.5)
    weights = _face_descent(orbit, support, *oracle._integer_target(target))
    assert {orbit[k]: w for k, w in weights.items()} == {
        (1, -1, 0): Fraction(1, 12),
        (1, 0, 1): Fraction(1, 2),
        (1, 1, 0): Fraction(5, 12),
    }
