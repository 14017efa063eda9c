"""Brute-force ground truth for the hull/class set equality.

This module is the verification layer.  It enumerates everything the rest
of the package computes cleverly:

* convex-hull membership certified either way without building the
  orbit: a separating functional checked against the support function
  h(c) = <dominant rep of c, mu>, or an exact convex combination of at
  most rank+1 orbit points, each checked to normalise to mu;
* the set of lattice points of the orbit hull sharing the central class;
* both sides of the projected set equality (hull classes vs. classes whose
  canonical lift projects into the hull), compared instance by instance;
* grid sweeps bundling the per-instance checks with the batch-end order
  equivalence and the reordering property suite.

Everything is exact and deterministic: grids iterate in lexicographic
order and reports carry their witnesses.  :func:`weyl_orbit` lists an
orbit explicitly; no computation here calls it, the tests use it as
their reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import islice, permutations, product
from math import gcd, lcm, prod
from operator import mul
from typing import Iterator, Sequence

from .core import (
    CapExceeded,
    Coweight,
    Family,
    GroupKind,
    MismatchError,
    NotDominantError,
    PreconditionError,
    Scalar,
    Sector,
    Vector,
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
from .reorder import check_batch_order, dominant_reordering

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

def _integer_target(target: Sequence[Scalar]) -> tuple[int, list[int]]:
    """``(den, den * target)``: each entry read exactly as ``Fraction(e)``,
    and ``den`` the lcm of their denominators."""
    exact = [Fraction(e) for e in target]
    den = lcm(*(e.denominator for e in exact))
    return den, [e.numerator * (den // e.denominator) for e in exact]


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
        perm = sorted(range(n), key=[abs(e) for e in z].__getitem__, reverse=True)
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
    """``(w^-1 . r_k, k)`` for the row k of ``w . z`` (w normalising z)
    furthest above ``scale`` times mu's, or ``None`` when no row is above
    and ``z / scale`` is in the hull; family A's sum row counts as met."""
    w, wz = _normaliser(family, z)
    rows_z, rows_m = order_rows(family, wz, mu)
    gaps = [a - scale * b for a, b in zip(rows_z, rows_m)]
    top = max(gaps)
    if top <= 0:
        return None
    k = gaps.index(top)
    return _pull_back(w, _row_functionals(family, len(mu))[k]), k


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
    rise ``b = c . step`` and room ``a = d h(c) - c . dv``: start from the
    largest rise; while the candidate exit point violates a row, switch
    to the functional most violated there, whose ratio must be smaller.
    """
    rows, heights = _row_functionals(family, len(mu)), order_rows(family, mu, mu)[0]
    w, ws = _normaliser(family, step)
    rises = order_rows(family, ws, mu)[0]
    k = rises.index(max(rises))
    c = _pull_back(w, rows[k])
    a, b = d * heights[k] - sum(map(mul, c, dv)), rises[k]
    while True:
        exit_point = [b * e + a * s for e, s in zip(dv, step)]
        found = _violated_row(family, mu, b * d, exit_point)
        if found is None:
            return a, b, c
        c, k = found
        rise = sum(map(mul, c, step))
        room = d * heights[k] - sum(map(mul, c, dv))
        if rise <= 0 or room * b >= a * rise:
            raise ArithmeticError(f"the exit search from {list(dv)}/{d} stalled")
        a, b = room, rise


def _descend(
    family: Family, mu: Sequence[int], den: int, scaled: Sequence[int]
) -> tuple[list[Vector], dict[int, Fraction]]:
    """Points of mu's orbit and the weights of a convex combination of at
    most rank+1 of them equal to ``scaled / den``.

    Carathéodory's construction in integers.  The face holding the
    current point ``y / d`` is kept as the sum C of its exit functionals,
    each tight on it, so ``v = w_C^-1 mu`` (w_C normalising C) is one of
    its vertices.  Walk from v through ``y / d`` to the :func:`_exit` at
    ``t = a / b``, give v the share ``(a - b) / a``, move to the exit
    point and add its functional to C.  ``a >= b > 0`` puts v off the new
    face, so a vertex is reached within rank+1 steps; an exit before
    ``y / d`` or a longer walk raises :class:`ArithmeticError`.
    """
    y, d = list(scaled), den
    total = [0] * len(mu)
    mass, whole = 1, 1  # the share left for the face: mass / whole
    points: list[Vector] = []
    weights: dict[int, Fraction] = {}
    for k in range(len(mu) + 1):
        v = tuple(_pull_back(_normaliser(family, total)[0], mu))
        points.append(v)
        dv = [d * e for e in v]
        if y == dv:
            weights[k] = Fraction(mass, whole)
            return points, weights
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
    :func:`_descend`, each normalising to mu, with weights re-derived by
    :func:`_check_combination`.  A failed check raises
    :class:`ArithmeticError` rather than answer wrongly.  Nothing here
    grows with the Weyl group, so no rank or group order is refused.
    """
    if not is_dominant(mu):
        raise NotDominantError(f"mu={mu} is not dominant")
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


def _box_values(mu: Coweight) -> range:
    """The entries |v| <= max|mu_i|, odd in the half sector (whose radius is
    odd), as a range: nothing is built before the box is checked."""
    radius = max((abs(e) for e in mu.entries), default=0)
    return range(-radius, radius + 1, 2 if mu.sector is Sector.HALF else 1)


def enumerate_Pmu(mu: Coweight) -> frozenset[Coweight]:
    """All lattice points of the orbit hull sharing the class of ``mu``.

    The search box |v_i| <= max|mu_i| suffices: the hull's vertices are
    signed permutations of ``mu``, so the hull lies in that sup-norm ball
    (the test suite probes the shell just outside to confirm).  Any rank
    and radius is accepted; a box of more than ``BOX_CAP`` candidates
    raises :class:`CapExceeded` before the scan starts, sized from its
    bounds without building any candidate.
    """
    if not is_dominant(mu):
        raise NotDominantError(f"mu={mu} is not dominant")
    n = mu.kind.rank
    vals = _box_values(mu)
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
    """Both sides of one instance of the set equality, with witnesses."""

    shape: LeviShape
    mu: Coweight
    lhs_classes: frozenset[XMClass]
    rhs_classes: frozenset[XMClass]
    equal: bool
    missing_from_lhs: tuple[XMClass, ...]
    missing_from_rhs: tuple[XMClass, ...]
    witnesses: tuple[tuple[XMClass, Coweight], ...]
    property_failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.equal and not self.property_failures


def _batch_sum_range(size: int, bound: int, sector: Sector) -> range:
    if sector is not Sector.HALF:
        return range(-bound, bound + 1)
    # odd entries force the batch sum to carry the batch-size parity
    start = -bound if (bound - size) % 2 == 0 else -bound + 1
    return range(start, bound + 1, 2)


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
    in the hull.  The report records the set difference in each direction
    and one hull point witnessing each left-side class.
    """
    if shape.kind != mu.kind:
        raise MismatchError(f"kind mismatch: shape {shape.kind} vs {mu.kind}")

    points = sorted(enumerate_Pmu(mu), key=lambda c: c.entries)
    witness: dict[XMClass, Coweight] = {}
    for nu in points:
        witness.setdefault(class_of(shape, nu), nu)
    lhs = frozenset(witness)

    radius = max((abs(e) for e in mu.entries), default=0)
    rhs_set: set[XMClass] = set()
    for lift in valid_lifts(shape, mu.sector, radius):
        if same_class_XG(lift, mu) and in_hull(project(shape, lift).expand(), mu):
            rhs_set.add(XMClass(shape, lift))
    rhs = frozenset(rhs_set)

    missing_from_lhs = tuple(sorted(rhs - lhs, key=XMClass.sort_key))
    missing_from_rhs = tuple(sorted(lhs - rhs, key=XMClass.sort_key))
    return VerificationReport(
        shape=shape,
        mu=mu,
        lhs_classes=lhs,
        rhs_classes=rhs,
        equal=not missing_from_lhs and not missing_from_rhs,
        missing_from_lhs=missing_from_lhs,
        missing_from_rhs=missing_from_rhs,
        witnesses=tuple(
            sorted(witness.items(), key=lambda kv: kv[0].sort_key())
        ),
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
    if sector is Sector.HALF and kind.family is not Family.D:
        raise MismatchError("half sector requires family D")
    step = 2 if sector is Sector.HALF else 1
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
        restricted = leq_batch_ends(shape, beta, mu)
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

    Checks: batch order; positivity bounds; the result dominant, coarse
    block-dominant/minuscule, and orbit-equivalent; half-sector -1s of the
    merged vector confined to the last GL batch or the orthogonal batch;
    and the order transfer (projection of the result stays below every
    grid weight the input's projection was below, in the same class).
    """
    failures = []
    if not check_batch_order(shape, nu):
        failures.append(f"batch first-entry order fails for {nu} under {shape}")
    failures.extend(positivity_failures(shape, nu))

    res = dominant_reordering(shape, nu)
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
        s = coarse.num_gl_batches
        lo = coarse.sigma(s - 1) if s >= 1 else 0
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
    radius = max((abs(e) for e in mu.entries), default=0)
    lifts = valid_lifts(shape, mu.sector, radius + 1)
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
