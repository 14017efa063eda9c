"""The verification layer for the hull/class set equality.

It holds the certified hull oracle, the brute-force enumerations, the
grids, the property bundle and the sweeps:

* convex-hull membership certified either way without building the
  orbit: a separating functional checked against the support function
  h(c) = <dominant rep of c, mu>, or an exact convex combination of at
  most rank+1 orbit points, each checked to normalise to mu;
* by box scans, the lattice points of the orbit hull sharing the central
  class, and both sides of the projected set equality (hull classes vs.
  classes whose canonical lift projects into the hull);
* the dominant weight grids, and the property bundle run per instance:
  the batch-end order equivalence and the reordering postconditions;
* sweeps of the set equality, with the bundle, over a grid.

Everything is exact and deterministic: grids iterate in lexicographic
order and reports carry their witnesses.  :func:`weyl_orbit` lists an
orbit explicitly; no computation here calls it, the tests use it as
their reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice, permutations, product
from math import gcd, lcm, prod
from operator import mul
from typing import Iterator, Sequence

from .core import (
    CapExceeded,
    Coweight,
    Family,
    GroupKind,
    NormalizationRequired,
    PreconditionError,
    Scalar,
    Sector,
    Vector,
    _check_dominant,
    _check_kinds,
    _check_sector,
    _integer_target,
    _vec_dominant_rep,
    coerce_vector,
    in_hull,
    is_dominant,
    leq,
    order_rows,
    same_class_XG,
    weyl_orbit_equivalent,
)
from .levi import (
    LeviPoint,
    LeviShape,
    XMClass,
    all_shapes,
    class_of,
    has_dominant_projection,
    is_M_dominant,
    is_M_minuscule,
    leq_batch_ends,
    minuscule_lift,
    project,
    so_classes,
)
from .reorder import dominant_reordering

__all__ = [
    "SweepConfig", "VerificationReport", "caratheodory_in_hull",
    "dominant_coweights", "enumerate_Pmu", "sweep", "verify_main_theorem",
    "weyl_orbit",
]

# most dominant weights dominant_coweights builds before raising CapExceeded
GRID_CAP = 100_000
# most candidates a box scan (the Pmu box, the lift boxes, the beta grid)
# may have; a larger one raises CapExceeded before it starts
BOX_CAP = 1_000_000


# ---------------------------------------------------------------------------
# Explicit Weyl orbits
# ---------------------------------------------------------------------------

def weyl_orbit(family: Family, entries: Sequence[Scalar]) -> list[Vector]:
    """The full Weyl orbit of a vector, sorted lexicographically.

    Family A: coordinate permutations.  Family B: signed permutations.
    Family D: signed permutations with an even number of sign changes
    (when a coordinate vanishes this automatically covers both parities).
    """
    perms = set(permutations(entries))
    if family is Family.A:
        return sorted(perms)
    n = len(tuple(entries))
    out: set[Vector] = set()
    for p in perms:
        for signs in product((1, -1), repeat=n):
            if family is Family.D and signs.count(-1) % 2 == 1:
                continue
            out.add(tuple(s * e for s, e in zip(signs, p)))
    return sorted(out)


# ---------------------------------------------------------------------------
# Exact hull certificates
# ---------------------------------------------------------------------------

def _check_combination(
    points: Sequence[Vector], target: Sequence[Scalar], weights: dict[int, Fraction]
) -> None:
    """Re-derive a convex combination exactly before trusting it; raise if
    it is wrong.  In integers: the weights over the lcm of their denominators."""
    common = lcm(*(w.denominator for w in weights.values()))
    num = {i: w.numerator * (common // w.denominator) for i, w in weights.items()}
    exact = [Fraction(e) for e in target]
    if any(s < 0 for s in num.values()) or sum(num.values()) != common or any(
        sum(s * points[i][coord] for i, s in num.items()) * e.denominator
        != e.numerator * common
        for coord, e in enumerate(exact)
    ):
        raise ArithmeticError(f"weights {weights} do not combine to {tuple(target)}")


@lru_cache(maxsize=None)
def _row_functionals(family: Family, rank: int) -> tuple[tuple[int, ...], ...]:
    """Row k of :func:`core.order_rows` as a vector r_k (row k of x is
    r_k . x), read off the unit vectors.  Each r_k is dominant."""
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    return tuple(zip(*(order_rows(family, e, e)[0] for e in units)))


_Element = tuple[list[int], list[int]]


def _normaliser(family: Family, z: Sequence[int]) -> tuple[_Element, list[int]]:
    """``(w, w . z)`` for a Weyl element w that makes ``w . z`` dominant,
    held as ``(perm, signs)``: ``(w . z)_i = signs[i] * z[perm[i]]``.

    Family A sorts; B and D sort by magnitude and flip the negative
    entries, D by an even number of flips: an odd count flips the last
    (smallest) entry back, and a zero there absorbs the parity.
    """
    n = len(z)
    if family is Family.A:
        perm, signs = sorted(range(n), key=z.__getitem__, reverse=True), [1] * n
    else:
        perm = sorted(range(n), key=list(map(abs, z)).__getitem__, reverse=True)
        signs = [-1 if z[i] < 0 else 1 for i in perm]
        if family is Family.D and signs.count(-1) % 2:
            signs[-1] = -signs[-1]
    return (perm, signs), [s * z[i] for i, s in zip(perm, signs)]


def _pull_back(w: _Element, r: Sequence[int]) -> list[int]:
    """``w^-1 . r``, so that ``(w^-1 . r) . z = r . (w . z)``."""
    out = [0] * len(r)
    for i, s, e in zip(*w, r):
        out[i] = s * e
    return out


def _violated_row(
    family: Family, mu: Sequence[int], scale: int, z: Sequence[int]
) -> tuple[list[int], int] | None:
    """``(w^-1 . r_k, h)`` for the row k of the dominant representative of
    ``z`` furthest above ``scale`` times mu's, w normalising z and h mu's
    row k, which is ``h(w^-1 . r_k)``; or ``None`` when no row is above
    and ``z / scale`` is in the hull; family A's sum row counts as met.
    The Weyl element w is built only for a violated row."""
    rows_z, rows_m = order_rows(family, _vec_dominant_rep(family, z), mu)
    gaps = [a - scale * b for a, b in zip(rows_z, rows_m)]
    top = max(gaps)
    if top <= 0:
        return None
    k = gaps.index(top)
    w = _normaliser(family, z)[0]
    return _pull_back(w, _row_functionals(family, len(mu))[k]), rows_m[k]


def _support(family: Family, c: Sequence[int], mu: Sequence[int]) -> int:
    """h(c) = max of c . v over the orbit of mu = <dominant rep of c, mu>,
    since two dominant vectors pair the most: no orbit is built."""
    return sum(map(mul, _vec_dominant_rep(family, c), mu))


def _exit(
    family: Family, mu: Sequence[int], d: int, dv: Sequence[int], step: Sequence[int]
) -> tuple[int, int, list[int]]:
    """``(a, b, c)``: the ray ``dv + t step`` leaves ``d`` times the hull at
    ``t = a / b``, where ``c . p = d h(c)``.

    Dinkelbach's iteration over the pulled-back row functionals c, with
    rise ``b = c . step`` and room ``a = d h(c) - c . dv``, h(c) as
    :func:`_violated_row` gives it: start from the largest rise, the row
    it finds for ``step`` at scale 0 (a nonzero step rises on some row);
    while the candidate exit point violates a row, switch to the
    functional most violated there, whose ratio must be smaller.
    """
    c, h = _violated_row(family, mu, 0, step)
    a, b = d * h - sum(map(mul, c, dv)), sum(map(mul, c, step))
    while True:
        exit_point = [b * e + a * s for e, s in zip(dv, step)]
        found = _violated_row(family, mu, b * d, exit_point)
        if found is None:
            return a, b, c
        c, h = found
        rise = sum(map(mul, c, step))
        room = d * h - sum(map(mul, c, dv))
        if rise <= 0 or room * b >= a * rise:
            raise ArithmeticError(f"the exit search from {list(dv)}/{d} stalled")
        a, b = room, rise


def _descend(
    family: Family, mu: Sequence[int], den: int, scaled: Sequence[int]
) -> tuple[list[Vector], dict[int, Fraction]]:
    """Points of mu's orbit and the weights of a convex combination of at
    most rank+1 of them equal to ``scaled / den``.

    Carathéodory's construction in integers, run on the dominant
    representative: with w normalising ``scaled``, the walk combines
    ``w . scaled / den`` from mu's orbit and every point is pulled back by
    w, which keeps it in the orbit and the weights as they are.  The
    walk starts at mu itself, so a target on the orbit is one point.  The
    face holding the current point ``y / d`` is kept as the sum C of its
    exit functionals, each tight on it, so ``v = w_C^-1 mu`` (w_C
    normalising C) is one of its vertices.  Walk from v through ``y / d``
    to the :func:`_exit` at ``t = a / b``, give v the share
    ``(a - b) / a``, move to the exit point and add its functional to C.
    ``a >= b > 0`` puts v off the new face, so a vertex is reached within
    rank+1 steps; an exit before ``y / d`` or a longer walk raises
    :class:`ArithmeticError`.
    """
    w, y = _normaliser(family, scaled)
    d = den
    total = [0] * len(mu)
    mass, whole = 1, 1  # the share left for the face: mass / whole
    points: list[Vector] = []
    weights: dict[int, Fraction] = {}
    v = tuple(mu)
    for k in range(len(mu) + 1):
        points.append(v)
        dv = [d * e for e in v]
        if y == dv:
            weights[k] = Fraction(mass, whole)
            return [tuple(_pull_back(w, p)) for p in points], weights
        step = [p - q for p, q in zip(y, dv)]
        a, b, c = _exit(family, mu, d, dv, step)
        if a < b:
            raise ArithmeticError(f"the ray from {v} leaves the hull before {y}/{d}")
        if a != b:
            weights[k] = Fraction(mass * (a - b), whole * a)
        mass, whole = mass * b, whole * a
        y = [b * e + a * s for e, s in zip(dv, step)]
        g = gcd(b * d, *y)
        y, d = [e // g for e in y], b * d // g
        total = [t + e for t, e in zip(total, c)]
        v = tuple(_pull_back(_normaliser(family, total)[0], mu))
    raise ArithmeticError(f"the descent to {list(scaled)}/{den} took over rank+1 steps")


def caratheodory_in_hull(x: Coweight | Sequence[Scalar], mu: Coweight) -> bool:
    """Hull membership, certified either way; no orbit, no memo.

    The anti-bug oracle for :func:`coweights.core.in_hull`.  The rows of
    :func:`core.order_rows` only propose a verdict; what is trusted is
    :func:`core._vec_dominant_rep` and exact integer arithmetic.  An
    outside verdict carries a functional c with ``c . x > h(c)``
    (:func:`_support`): ±(1, ..., 1) off family A's sum hyperplane, else
    the most violated row functional, pulled back.  An inside verdict
    carries a convex combination of at most rank+1 points from
    :func:`_descend`, which certifies the target's dominant representative
    from mu down and pulls the points back, so a point of the orbit is
    its own certificate.  Each point is checked to normalise to mu, and
    the weights are re-derived against the target as given by
    :func:`_check_combination`.  A failed check raises
    :class:`ArithmeticError` rather than answer wrongly.  Nothing here
    grows with the Weyl group, so no rank or group order is refused.
    """
    _check_dominant(mu)
    target = coerce_vector(x, mu)
    family, entries = mu.kind.family, mu.entries
    den, scaled = _integer_target(target)
    off = sum(scaled) - den * sum(entries)
    if family is Family.A and off:
        c = [1 if off > 0 else -1] * len(entries)
    elif found := _violated_row(family, entries, den, scaled):
        c = found[0]
    else:
        points, weights = _descend(family, entries, den, scaled)
        if any(_vec_dominant_rep(family, p) != entries for p in points):
            raise ArithmeticError(f"the certificate of {target} leaves the orbit")
        _check_combination(points, target, weights)
        return True
    if sum(map(mul, c, scaled)) <= den * _support(family, c, entries):
        raise ArithmeticError(f"the functional {c} does not separate {target}")
    return False


# ---------------------------------------------------------------------------
# Lattice-point enumeration of the hull
# ---------------------------------------------------------------------------

def _check_box(size: int, what: str) -> None:
    """Refuse a scan of ``size`` > ``BOX_CAP`` candidates before it starts;
    ``what`` names it for the message, as in "the box of 81^6"."""
    if size > BOX_CAP:
        raise CapExceeded(f"{what} candidates exceeds the cap of {BOX_CAP}")


def _span(values: range) -> int:
    """``len(values)`` for a range with a positive step, by arithmetic on its
    bounds: ``len`` raises ``OverflowError`` past ``sys.maxsize``."""
    return max(0, -((values.start - values.stop) // values.step))


def _radius(mu: Coweight) -> int:
    """max|mu_i|: the hull's vertices are signed permutations of ``mu``, so
    the hull lies in the sup-norm ball of this radius."""
    return max(abs(e) for e in mu.entries)


def enumerate_Pmu(mu: Coweight) -> frozenset[Coweight]:
    """All lattice points of the orbit hull sharing the class of ``mu``.

    The search box |v_i| <= :func:`_radius` suffices (the test suite
    probes the shell just outside to confirm); its values
    step by :attr:`Sector.unit`, so they are odd in the half sector, whose
    radius is odd.  Any rank and radius is accepted; a box of more than
    ``BOX_CAP`` candidates raises :class:`CapExceeded` before the scan
    starts, sized from its bounds without building any candidate.
    """
    _check_dominant(mu)
    n, radius = mu.kind.rank, _radius(mu)
    vals = range(-radius, radius + 1, mu.sector.unit)
    width = _span(vals)
    _check_box(width ** n, f"the box of {width}^{n}")
    out = []
    for vec in product(vals, repeat=n):
        candidate = Coweight(mu.kind, vec, mu.sector)
        if same_class_XG(candidate, mu) and in_hull(vec, mu):
            out.append(candidate)
    return frozenset(out)


# ---------------------------------------------------------------------------
# The projected set equality, instance by instance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    """Both sides of one instance of the set equality.

    The left side is ``witnesses``: each hull class with its
    lexicographically least hull point, in :meth:`XMClass.sort_key` order.  The verdict and the set
    differences are derived from the two sides.
    """

    shape: LeviShape
    mu: Coweight
    witnesses: tuple[tuple[XMClass, Coweight], ...]
    rhs_classes: frozenset[XMClass]
    property_failures: tuple[str, ...] = ()

    @cached_property
    def lhs_classes(self) -> frozenset[XMClass]:
        return frozenset(cls for cls, _ in self.witnesses)

    @cached_property
    def missing_from_lhs(self) -> tuple[XMClass, ...]:
        return tuple(sorted(self.rhs_classes - self.lhs_classes, key=XMClass.sort_key))

    @cached_property
    def missing_from_rhs(self) -> tuple[XMClass, ...]:
        return tuple(sorted(self.lhs_classes - self.rhs_classes, key=XMClass.sort_key))

    @property
    def equal(self) -> bool:
        return not self.missing_from_lhs and not self.missing_from_rhs

    @property
    def ok(self) -> bool:
        return self.equal and not self.property_failures


def _batch_sum_range(size: int, bound: int, sector: Sector) -> range:
    """The batch sums in [-bound, bound], stepping by :attr:`Sector.unit`
    from the first with the parity of ``size`` when doubled: odd entries
    give the batch sum the parity of the batch size."""
    unit = sector.unit
    return range(-bound + (bound - size) % unit, bound + 1, unit)


def valid_lifts(
    shape: LeviShape, sector: Sector, entry_bound: int
) -> Iterator[Coweight]:
    """Every block-dominant, block-minuscule coweight whose GL entries stay
    within [-entry_bound, entry_bound], enumerated via its class data.

    The box of batch sums times the orthogonal classes is checked against
    ``BOX_CAP`` when this is called, before any lift: :class:`CapExceeded`
    beyond it.
    """
    ranges = [
        _batch_sum_range(size, size * entry_bound, sector)
        for size in shape.gl_sizes
    ]
    classes = so_classes(shape, sector)
    size = prod(map(_span, ranges)) * len(classes)
    _check_box(size, f"the lift box of {size}")
    return (
        minuscule_lift(shape, sums, so_class, sector)
        for sums in product(*ranges)
        for so_class in classes
    )


def verify_main_theorem(shape: LeviShape, mu: Coweight) -> VerificationReport:
    """Compare both descriptions of the projected hull classes.

    Left side: the classes of the hull's lattice points with the central
    class of ``mu``.  Right side: every class (batch sums bounded by
    batch size times max|mu_i|, every orthogonal class) whose canonical
    lift matches ``mu`` centrally and whose batch-average projection lies
    in the hull.  The report holds the right side and, as the left side,
    the lexicographically least hull point witnessing each class.
    """
    _check_kinds(shape.kind, mu.kind)
    points = sorted(enumerate_Pmu(mu), key=lambda c: c.entries)
    witness: dict[XMClass, Coweight] = {}
    for nu in points:
        witness.setdefault(class_of(shape, nu), nu)

    rhs: set[XMClass] = set()
    for lift in valid_lifts(shape, mu.sector, _radius(mu)):
        if same_class_XG(lift, mu) and in_hull(project(shape, lift).expand(), mu):
            rhs.add(XMClass(shape, lift))

    return VerificationReport(
        shape=shape,
        mu=mu,
        witnesses=tuple(
            sorted(witness.items(), key=lambda kv: kv[0].sort_key())
        ),
        rhs_classes=frozenset(rhs),
    )


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

def _nonincreasing(values: range, length: int) -> Iterator[tuple[int, ...]]:
    """Nonincreasing tuples over the descending range ``values``, in
    ``combinations_with_replacement`` order.  That function would first
    copy ``values`` into a tuple, which a huge ``max_entry`` cannot afford;
    slicing a range copies nothing."""
    if length == 0:
        yield ()
        return
    for i, v in enumerate(values):
        for tail in _nonincreasing(values[i:], length - 1):
            yield (v,) + tail


def _dominant_tuples(
    family: Family, n: int, values: range, step: int
) -> Iterator[tuple[int, ...]]:
    if family is not Family.D:
        yield from _nonincreasing(values, n)
        return
    for head in _nonincreasing(values, n - 1):
        for last in range(-head[-1], head[-1] + 1, step):
            yield head + (last,)


def dominant_coweights(
    kind: GroupKind, sector: Sector, max_entry: int
) -> list[Coweight]:
    """The dominant grid used by sweeps.

    Families A and B: nonincreasing entries in [0, max_entry].  Family D:
    nonincreasing entries in [0, max_entry] with the last coordinate
    allowed any sign of magnitude at most its neighbor; the half sector
    uses odd (doubled) values up to the odd bound.  The nonincreasing
    tuples are generated directly, and a grid raises :class:`CapExceeded`
    as soon as it passes ``GRID_CAP`` weights.
    """
    _check_sector(kind.family, sector)  # even where the grid builds no weight
    step = sector.unit
    descending = range(step - 1, max_entry + 1, step)[::-1]
    tuples = _dominant_tuples(kind.family, kind.rank, descending, step)
    out = [Coweight(kind, vec, sector) for vec in islice(tuples, GRID_CAP + 1)]
    if len(out) > GRID_CAP:
        raise CapExceeded(
            f"the dominant grid of {kind} with max entry {max_entry} "
            f"exceeds the cap of {GRID_CAP} weights"
        )
    return sorted(out, key=lambda c: c.entries)


# ---------------------------------------------------------------------------
# Property checks bundled into sweeps
# ---------------------------------------------------------------------------

_BETA_VALUES_SMALL = tuple(sorted({
    Fraction(num, den) for den in (1, 2, 3, 4) for num in range(-4, 5)
}))
_BETA_VALUES_TINY = (
    Fraction(-2), Fraction(-3, 2), Fraction(-1), Fraction(-1, 2),
    Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
)


def _beta_grid(shape: LeviShape, mu: Coweight) -> Iterator[LeviPoint]:
    """Batch-constant points for the batch-end order check.

    Family A fills the last batch average from the others so that the
    total-sum (coroot span) precondition holds exactly.  A grid of more
    than ``BOX_CAP`` points raises :class:`CapExceeded` before the first;
    at rank <= 6 it has at most 9^6.
    """
    r = shape.num_gl_batches
    values = _BETA_VALUES_SMALL if r <= 2 else _BETA_VALUES_TINY
    free = r - 1 if shape.kind.family is Family.A else r
    _check_box(len(values) ** free, f"the beta grid of {len(values)}^{free}")
    if shape.kind.family is Family.A:
        total = Fraction(sum(mu.entries))
        for head in product(values, repeat=free):
            used = sum(a * s for a, s in zip(head, shape.gl_sizes[:-1]))
            last = (total - used) / shape.gl_sizes[-1]
            yield LeviPoint(shape, head + (last,))
        return
    for avgs in product(values, repeat=free):
        yield LeviPoint(shape, avgs)


def batch_end_agreement(
    shape: LeviShape, mu: Coweight
) -> tuple[int, list[str]]:
    """Check batch-end order == full order over the beta grid.

    Returns (number of points checked, failure descriptions).  A grid past
    ``BOX_CAP`` (seven or more free batch averages, 9^7 points) raises
    :class:`CapExceeded` before its first point.
    """
    checked = 0
    failures = []
    for beta in _beta_grid(shape, mu):
        restricted = leq_batch_ends(beta, mu)
        full = leq(beta.expand(), mu)
        checked += 1
        if restricted != full:
            failures.append(
                f"batch-end order disagrees with full order at shape={shape} "
                f"mu={mu} averages={beta.averages}"
            )
    return checked, failures


def positivity_failures(shape: LeviShape, nu: Coweight) -> list[str]:
    """Entry lower bounds forced by the preconditions, per family.

    Family B: all entries nonnegative.  Integral D: all nonnegative except
    possibly the last when the shape is all-GL with a trailing size-1
    block.  Half D: the same statement with bound -1.
    """
    family = shape.kind.family
    out = []
    if family is Family.A:
        return out
    exempt_last = (
        family is Family.D and shape.so_rank == 0 and shape.gl_sizes[-1] == 1
    )
    bound = -1 if nu.sector is Sector.HALF else 0
    limit = len(nu.entries) - 1 if exempt_last else len(nu.entries)
    for i in range(limit):
        if nu.entries[i] < bound:
            out.append(
                f"entry {i} of {nu} under {shape} is below {bound}"
            )
    return out


def reordering_failures(
    shape: LeviShape, nu: Coweight, mus: Sequence[Coweight]
) -> list[str]:
    """Postconditions of the reordering on one precondition-satisfying input.

    Checks: positivity bounds; the batch first-entry order (a reordering
    refused for it is reported, with the positivity failures, and ends the
    checks); the result dominant, coarse block-dominant/minuscule, and
    orbit-equivalent; half-sector -1s of the merged vector confined to the
    last GL batch or the orthogonal batch; and the order transfer
    (projection of the result stays below every grid weight the input's
    projection was below, in the same class).
    """
    failures = positivity_failures(shape, nu)
    try:
        res = dominant_reordering(shape, nu)
    except NormalizationRequired:
        return [f"batch first-entry order fails for {nu} under {shape}", *failures]
    eta, coarse = res.result, res.coarse_shape
    if not is_dominant(eta):
        failures.append(f"reordering of {nu} under {shape} is not dominant: {eta}")
    if not is_M_dominant(coarse, eta):
        failures.append(f"reordering of {nu} is not block-dominant for {coarse}")
    if not is_M_minuscule(coarse, eta):
        failures.append(f"reordering of {nu} is not block-minuscule for {coarse}")
    if not weyl_orbit_equivalent(eta, nu):
        failures.append(f"reordering left the orbit: {nu} -> {eta}")

    if nu.sector is Sector.HALF:
        lo = coarse.gl_slices[-1].start if coarse.gl_sizes else 0
        for i, e in enumerate(res.merged.entries):
            if e == -1 and i < lo:
                failures.append(
                    f"merged vector of {nu} has a -1 before the last GL batch"
                )
                break

    nu_avg = project(shape, nu).expand()
    eta_avg = project(coarse, eta).expand()
    for mu in mus:
        if not same_class_XG(nu, mu):
            continue
        if leq(nu_avg, mu) and not leq(eta_avg, mu):
            failures.append(
                f"order transfer fails: nu={nu} shape={shape} mu={mu}"
            )
    return failures


def instance_property_failures(
    shape: LeviShape, mu: Coweight
) -> tuple[str, ...]:
    """The per-instance property bundle run by sweeps.  A lift box past
    ``BOX_CAP`` is refused before the beta grid is scanned."""
    lifts = valid_lifts(shape, mu.sector, _radius(mu) + 1)
    failures = batch_end_agreement(shape, mu)[1]
    mus = [mu]
    for nu in lifts:
        if not has_dominant_projection(shape, nu):
            continue
        try:
            failures.extend(reordering_failures(shape, nu, mus))
        except PreconditionError as exc:  # lifts always satisfy block conditions
            failures.append(f"unexpected precondition failure: {exc}")
    return tuple(failures)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    """Grid description for :func:`sweep`: every shape of every listed kind."""

    families: tuple[Family, ...]
    ranks: tuple[int, ...]
    max_entry: int
    sectors: tuple[Sector, ...] = (Sector.INTEGRAL,)
    check_properties: bool = True


def sweep_instances(
    config: SweepConfig,
) -> Iterator[tuple[LeviShape, Coweight]]:
    """The instance grid of a sweep, in deterministic lexicographic order.

    Every dominant grid is built when this is called, so a grid past
    ``GRID_CAP`` raises :class:`CapExceeded` before the first instance; the
    instances themselves are generated as they are consumed.
    """
    grids = []
    for family in sorted(config.families, key=lambda f: f.value):
        for rank in sorted(config.ranks):
            if family is Family.D and rank < 2:
                continue
            kind = GroupKind(family, rank)
            for sector in sorted(config.sectors, key=lambda s: s.value):
                if sector is Sector.HALF and family is not Family.D:
                    continue
                grids.append((kind, dominant_coweights(kind, sector, config.max_entry)))
    return ((shape, mu) for kind, mus in grids for shape in all_shapes(kind) for mu in mus)


def run_instance(
    shape: LeviShape, mu: Coweight, *, check_properties: bool
) -> VerificationReport:
    """One instance of a sweep: the set equality, plus the property bundle
    (batch-end order equivalence and the reordering postconditions) when
    ``check_properties`` is on."""
    report = verify_main_theorem(shape, mu)
    if not check_properties:
        return report
    return replace(report, property_failures=instance_property_failures(shape, mu))


def sweep(config: SweepConfig) -> list[VerificationReport]:
    """Run :func:`run_instance` over the whole grid, in grid order.

    Cap violations raise; the grids used here stay within the caps.
    """
    return [
        run_instance(shape, mu, check_properties=config.check_properties)
        for shape, mu in sweep_instances(config)
    ]
