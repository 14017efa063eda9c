"""The class rules against their definition: X_M is X modulo M's coroot
lattice.

For a Levi shape, M's coroots are e_i - e_{i+1} inside each GL batch and
+-e_i +- e_k inside the orthogonal batch, plus 2e_i in family B (the
coroot of the short root e_i); the doubled half sector doubles them all.
Two points are in one class exactly when their difference lies in the
lattice those coroots span, decided here by a Hermite normal form.  A
point is M-minuscule exactly when every root of M pairs with it into
{-1, 0, 1} ({-2, 0, 2} doubled).  The package's rules (batch sums and an
orthogonal sum mod 2 or 4) are written by hand per family; these tests
hold them to the definition at ranks 2 to 10 in both D sectors.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from coweights import Coweight, Family, GroupKind, LeviShape, Sector, class_of, same_class_XG
from coweights.levi import is_M_minuscule
from coweights.oracle import _row_functionals


def _unit(n, i, scale=1):
    return tuple(scale * (j == i) for j in range(n))


def _batches(shape):
    """The coordinate ranges of the GL batches and of the orthogonal batch."""
    return [range(sl.start, sl.stop) for sl in shape.gl_slices], range(
        shape.so_slice.start, shape.kind.rank
    )


def _orthogonal_pairs(n, batch, scale):
    for i, k in combinations(batch, 2):
        for sign in (1, -1):
            yield tuple(scale * ((j == i) + sign * (j == k)) for j in range(n))


def coroots(shape, sector):
    """Generators of M's coroot lattice; each GL batch contributes its
    simple coroots, the orthogonal batch all of its coroots."""
    n, scale = shape.kind.rank, 2 if sector is Sector.HALF else 1
    gl, so = _batches(shape)
    out = [
        tuple(scale * ((j == i) - (j == i + 1)) for j in range(n))
        for batch in gl for i in batch[:-1]
    ]
    out += _orthogonal_pairs(n, so, scale)
    if shape.kind.family is Family.B:
        out += [_unit(n, i, 2 * scale) for i in so]
    return out


def roots(shape):
    """M's roots, up to sign: e_i - e_k in a GL batch; +-e_i +- e_k in the
    orthogonal batch, and e_i there in family B."""
    n = shape.kind.rank
    gl, so = _batches(shape)
    out = [
        tuple((j == i) - (j == k) for j in range(n))
        for batch in gl for i, k in combinations(batch, 2)
    ]
    out += _orthogonal_pairs(n, so, 1)
    if shape.kind.family is Family.B:
        out += [_unit(n, i) for i in so]
    return out


def hermite_basis(gens, n):
    """Row-echelon basis of the lattice spanned by ``gens``: ``(column,
    row)`` pairs with positive pivots, zero left of each pivot."""
    rows = [list(g) for g in gens if any(g)]
    basis = []
    for col in range(n):
        active = [r for r in rows if r[col]]
        rows = [r for r in rows if not r[col]]
        while len(active) > 1:  # Euclid on the column
            active.sort(key=lambda r: abs(r[col]))
            pivot, rest = active[0], []
            for r in active[1:]:
                q = r[col] // pivot[col]
                r = [a - q * b for a, b in zip(r, pivot)]
                if r[col]:
                    rest.append(r)
                elif any(r):
                    rows.append(r)
            active = [pivot, *rest]
        if active:
            pivot = active[0]
            basis.append((col, pivot if pivot[col] > 0 else [-a for a in pivot]))
    return basis


def in_lattice(v, basis):
    v = list(v)
    for col, row in basis:
        q, r = divmod(v[col], row[col])
        if r:
            return False
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def same_class(x, y, basis):
    return x.sector is y.sector and in_lattice(
        [a - b for a, b in zip(x.entries, y.entries)], basis
    )


def minuscule(shape, x):
    bound = 2 if x.sector is Sector.HALF else 1
    return all(
        abs(sum(a * b for a, b in zip(root, x.entries))) in (0, bound)
        for root in roots(shape)
    )


@st.composite
def shapes(draw):
    family = draw(st.sampled_from(list(Family)))
    rank = draw(st.integers(2, 10))
    if family is Family.A:
        so = 0
    else:
        so = draw(st.sampled_from([j for j in range(rank + 1)
                                   if not (family is Family.D and j == 1)]))
    sizes, left = [], rank - so
    while left:
        sizes.append(draw(st.integers(1, left)))
        left -= sizes[-1]
    half = family is Family.D and draw(st.booleans())
    return LeviShape(GroupKind(family, rank), tuple(sizes), so), (
        Sector.HALF if half else Sector.INTEGRAL)


@st.composite
def cases(draw):
    """A shape, its sector, x, and y: half the time x plus a random
    combination of M's coroots, otherwise drawn freely."""
    shape, sector = draw(shapes())
    n = shape.kind.rank
    entry = st.integers(-3, 2).map(lambda e: 2 * e + 1) if sector is Sector.HALF \
        else st.integers(-3, 3)
    x = draw(st.lists(entry, min_size=n, max_size=n))
    if draw(st.booleans()):
        gens = coroots(shape, sector)
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens)))
        y = [a + sum(c * g[j] for c, g in zip(coeffs, gens)) for j, a in enumerate(x)]
    else:
        y = draw(st.lists(entry, min_size=n, max_size=n))
    return shape, Coweight(shape.kind, x, sector), Coweight(shape.kind, y, sector)


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(cases())
def test_class_rules_match_the_coroot_lattice(case):
    """``class_of`` and ``same_class_XG`` decide membership of x - y in the
    coroot lattice of M and of G; each canonical lift is in x's class and
    M-minuscule, and ``is_M_minuscule`` is the root-pairing bound."""
    shape, x, y = case
    lattice = hermite_basis(coroots(shape, x.sector), shape.kind.rank)
    assert (class_of(shape, x) == class_of(shape, y)) is same_class(x, y, lattice)

    n = shape.kind.rank
    whole = LeviShape(shape.kind, (n,)) if shape.kind.family is Family.A \
        else LeviShape(shape.kind, (), n)
    group = hermite_basis(coroots(whole, x.sector), n)
    assert same_class_XG(x, y) is same_class(x, y, group)

    lift = class_of(shape, x).canonical_lift
    assert same_class(lift, x, lattice)
    assert minuscule(shape, lift)
    for z in (x, y):
        assert is_M_minuscule(shape, z) is minuscule(shape, z)


def _simple_coroots(family, n):
    out = [tuple((j == i) - (j == i + 1) for j in range(n)) for i in range(n - 1)]
    if family is Family.B:
        out.append(_unit(n, n - 1, 2))
    elif family is Family.D:
        out.append(tuple(int(j >= n - 2) for j in range(n)))
    return out


def test_row_functionals_are_fundamental_weights():
    """Row k of the order pairs with the simple coroots in a positive
    diagonal matrix: it is the k-th fundamental weight up to scale (in
    family A row n is the central sum row and pairs to zero)."""
    for family in Family:
        for n in range(2, 13):
            rows = _row_functionals(family, n)
            pairing = [
                [sum(a * b for a, b in zip(row, alpha)) for alpha in _simple_coroots(family, n)]
                for row in rows
            ]
            if family is Family.A:
                assert pairing[-1] == [0] * (n - 1)
                pairing = pairing[:-1]
            for k, line in enumerate(pairing):
                assert line[k] > 0, (family, n, k)
                assert all(v == 0 for i, v in enumerate(line) if i != k), (family, n, k)
