"""Coweight lattices of the split classical families and their dominance orders.

Three families are modeled, each with exact integer coordinates:

* family A: general linear groups of rank n; the lattice is Z^n.
* family B: odd orthogonal groups of rank n; an element is the first half
  of the symmetric vector (a_1, ..., a_n, 0, -a_n, ..., -a_1).
* family D: even orthogonal groups modulo the central sign, rank n >= 2.
  The lattice has two sectors: integer vectors, and vectors whose entries
  all lie in Z + 1/2.  The half-integral sector is stored doubled, so its
  entries are odd integers and all arithmetic stays integral.

Everything in this module is a pure function of immutable values, safe for
unrestricted parallel use.  Arithmetic is exact (`int` and
`fractions.Fraction`); the order relations below rest on integer-gap
arguments that floating point would destroy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import le
from typing import Sequence, Union

__all__ = [
    "CapExceeded", "Coweight", "Family", "GroupKind", "MismatchError",
    "NormalizationRequired", "NotDominantError", "PreconditionError", "Sector",
    "ShapeError", "coweight", "dominant_representative", "in_hull", "is_dominant",
    "leq", "same_class_XG", "weyl_orbit_equivalent",
]

Scalar = Union[int, Fraction]
Vector = tuple[Scalar, ...]


class Family(Enum):
    """The three split classical families handled by this package."""

    A = "A"
    B = "B"
    D = "D"


class Sector(Enum):
    """Coordinate sector of a family-D coweight.

    ``HALF`` stores doubled coordinates: every entry is an odd integer and
    represents half its value.  Families A and B only have ``INTEGRAL``.
    """

    INTEGRAL = "integral"
    HALF = "half"

    @property
    def unit(self) -> int:
        """The stored value of one: 2 in the doubled half sector, else 1."""
        return 2 if self is Sector.HALF else 1


class MismatchError(ValueError):
    """Operands live in different lattices (family, rank, or sector)."""


class NotDominantError(ValueError):
    """An argument required to be dominant is not."""


class ShapeError(ValueError):
    """A Levi shape is malformed for its group kind."""


class PreconditionError(ValueError):
    """An operation's mathematical precondition does not hold."""


class NormalizationRequired(PreconditionError):
    """The batch-average projection is not dominant.

    Re-posing the input so that its projection is dominant (a Weyl change
    of basis, which also permutes the Levi shape) is left to the caller.
    """


class CapExceeded(RuntimeError):
    """An enumeration would exceed the configured size cap."""


def _check_sector(family: Family, sector: Sector) -> None:
    """Refuse the half sector outside family D, where it does not exist."""
    if sector is Sector.HALF and family is not Family.D:
        raise MismatchError("the half sector only exists for family D")


def _check_kinds(a: GroupKind, b: GroupKind) -> None:
    """Refuse operands of two groups: every relation here is within one."""
    if a != b:
        raise MismatchError(f"kind mismatch: {a} vs {b}")


@dataclass(frozen=True)
class GroupKind:
    """A split classical group: a family letter plus its rank."""

    family: Family
    rank: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be positive, got {self.rank}")
        if self.family is Family.D and self.rank < 2:
            raise ValueError("family D requires rank >= 2")

    def __str__(self) -> str:
        return f"{self.family.value}{self.rank}"


@dataclass(frozen=True)
class Coweight:
    """An exact lattice point, tagged with its group kind and sector."""

    kind: GroupKind
    entries: tuple[int, ...]
    sector: Sector = Sector.INTEGRAL

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) != self.kind.rank:
            raise MismatchError(
                f"expected {self.kind.rank} entries, got {len(self.entries)}"
            )
        if not all(isinstance(e, int) for e in self.entries):
            raise TypeError("coweight entries must be integers")
        if self.sector is Sector.HALF:
            _check_sector(self.kind.family, self.sector)
            if any(e % 2 == 0 for e in self.entries):
                raise MismatchError(
                    "half-sector entries are doubled and must all be odd"
                )

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.entries)


def coweight(
    family: Family | str,
    entries: Sequence[int],
    sector: Sector | str = Sector.INTEGRAL,
) -> Coweight:
    """Convenience constructor: ``coweight("B", (2, 1, 0))``."""
    fam = Family(family) if not isinstance(family, Family) else family
    sec = Sector(sector) if not isinstance(sector, Sector) else sector
    return Coweight(GroupKind(fam, len(entries)), tuple(entries), sec)


# ---------------------------------------------------------------------------
# Dominance and Weyl normal forms
# ---------------------------------------------------------------------------

def vec_is_dominant(family: Family, v: Sequence[Scalar]) -> bool:
    """Whether a plain vector, rational entries allowed, is dominant."""
    n = len(v)
    if any(v[i] < v[i + 1] for i in range(n - 1)):
        return False
    if family is Family.B:
        return v[-1] >= 0
    if family is Family.D:
        return v[-2] + v[-1] >= 0
    return True


def _vec_dominant_rep(family: Family, v: Sequence[Scalar]) -> Vector:
    """The unique dominant vector in the Weyl orbit of ``v``.

    Family A permutes coordinates; family B also flips any signs; family D
    flips signs in pairs, so when no entry vanishes the sign of the last
    coordinate remembers the parity of the flips.
    """
    if family is Family.A:
        return tuple(sorted(v, reverse=True))
    mags = sorted(map(abs, v), reverse=True)
    if family is Family.B:
        return tuple(mags)
    negatives = sum(1 for e in v if e < 0)
    if negatives % 2 == 1 and all(e != 0 for e in v):
        mags[-1] = -mags[-1]
    return tuple(mags)


def is_dominant(x: Coweight) -> bool:
    """Whether ``x`` lies in the closed dominant chamber of its family."""
    return vec_is_dominant(x.kind.family, x.entries)


def _check_dominant(mu: Coweight) -> None:
    """Refuse a non-dominant ``mu``: the order and hull rules read its rows."""
    if not is_dominant(mu):
        raise NotDominantError(f"mu={mu} is not dominant")


def dominant_representative(x: Coweight) -> Coweight:
    """The unique dominant element of the Weyl orbit of ``x``."""
    rep = _vec_dominant_rep(x.kind.family, x.entries)
    return Coweight(x.kind, tuple(int(e) for e in rep), x.sector)


def weyl_orbit_equivalent(x: Coweight, y: Coweight) -> bool:
    """Whether ``x`` and ``y`` lie in the same Weyl orbit: same sector and
    the same dominant representative (the orbit's unique dominant element)."""
    _check_kinds(x.kind, y.kind)
    family = x.kind.family
    return x.sector is y.sector and (
        _vec_dominant_rep(family, x.entries) == _vec_dominant_rep(family, y.entries)
    )


# ---------------------------------------------------------------------------
# The partial order and hull membership
# ---------------------------------------------------------------------------

def order_rows(
    family: Family, x: Sequence[Scalar], m: Sequence[Scalar]
) -> tuple[list[Scalar], list[Scalar]]:
    """Both sides of the order's inequality rows, row k pairing with the
    fundamental coweight omega_k: the prefix sums S_k.

    Family D pairs row n-1 with its spin weight instead, so that row reads
    S_{n-1} - x_n.  ``x <= m`` is row k of ``x`` at most row k of ``m`` for
    every k, with equality on row n in family A (the coroot span).
    """
    rows_x, rows_m = list(accumulate(x)), list(accumulate(m))
    if family is Family.D:
        rows_x[-2] -= x[-1]
        rows_m[-2] -= m[-1]
    return rows_x, rows_m


def _vec_leq(family: Family, x: Sequence[Scalar], m: Sequence[Scalar]) -> bool:
    """``x <= m`` on raw vectors, row by row (:func:`order_rows`)."""
    rows_x, rows_m = order_rows(family, x, m)
    if family is Family.A and rows_x[-1] != rows_m[-1]:
        return False
    return all(map(le, rows_x, rows_m))


def coerce_vector(x: Coweight | Sequence[Scalar], mu: Coweight) -> Vector:
    """Validate ``x`` against ``mu``'s lattice and return its raw entries."""
    if isinstance(x, Coweight):
        _check_kinds(x.kind, mu.kind)
        if x.sector is not mu.sector:
            raise MismatchError(
                f"sector mismatch: {x.sector.value} vs {mu.sector.value}"
            )
        return x.entries
    vec = tuple(x)
    if len(vec) != mu.kind.rank:
        raise MismatchError(
            f"expected {mu.kind.rank} entries, got {len(vec)}"
        )
    return vec


def leq(x: Coweight | Sequence[Scalar], mu: Coweight) -> bool:
    """The dominance-order inequalities ``x <= mu``.

    ``mu`` must be dominant.  ``x`` may be a coweight or a raw vector of
    rationals (batch averages are rational, so the order must accept
    them).  Each entry is read exactly, as ``Fraction(e)`` (so a float is
    its binary value), and the rows are compared in integers: ``den * x``
    against ``den * mu`` (:func:`_integer_target`), as :func:`in_hull`
    does without the dominant representative.  This is the real
    half-space condition only; the lattice-class condition is
    :func:`same_class_XG`.
    """
    _check_dominant(mu)
    den, scaled = _integer_target(coerce_vector(x, mu))
    return _vec_leq(mu.kind.family, scaled, [den * e for e in mu.entries])


def same_class_XG(x: Coweight, mu: Coweight) -> bool:
    """Whether ``x`` and ``mu`` agree in the quotient by the full coroot lattice.

    Family A: equal coordinate sums.  Families B and D: the sums differ by
    an even number of units (:attr:`Sector.unit`), so by a multiple of four
    in the doubled half sector.  The two sectors of D are distinct classes.
    """
    _check_kinds(x.kind, mu.kind)
    if x.sector is not mu.sector:
        return False
    diff = sum(mu.entries) - sum(x.entries)
    if x.kind.family is Family.A:
        return diff == 0
    return diff % (2 * x.sector.unit) == 0


def _integer_target(target: Sequence[Scalar]) -> tuple[int, list[int]]:
    """``(den, den * target)``: each entry read exactly, an ``int`` or
    ``Fraction`` as it is and any other as ``Fraction(e)``, and ``den``
    the lcm of their denominators."""
    ratios = [
        (e if isinstance(e, (int, Fraction)) else Fraction(e)).as_integer_ratio()
        for e in target
    ]
    den = lcm(*[q for _, q in ratios])
    return den, [p * (den // q) for p, q in ratios]


def in_hull(x: Coweight | Sequence[Scalar], mu: Coweight) -> bool:
    """Whether ``x`` lies in the convex hull of the Weyl orbit of ``mu``.

    Kostant's convexity theorem: exactly when the dominant representative
    of ``x`` is at most ``mu``.  Each entry of ``x`` is read exactly, as
    ``Fraction(e)`` (so a float is its binary value), and the check runs
    in integers: ``den * x`` against ``den * mu``, ``den`` the lcm of the
    denominators (:func:`_integer_target`).
    :func:`coweights.oracle.caratheodory_in_hull` decides the same
    membership with a certificate either way, without building the orbit.
    """
    _check_dominant(mu)
    family = mu.kind.family
    den, scaled = _integer_target(coerce_vector(x, mu))
    rep = _vec_dominant_rep(family, scaled)
    return _vec_leq(family, rep, [den * e for e in mu.entries])
