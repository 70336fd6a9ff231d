"""Exact rational linear algebra over ``fractions.Fraction``.

All matrices are tuples of tuples of Fractions (immutable, hashable).
Sizes here are tiny (at most a few dozen rows), but most matrices are
sparse: frames are signed permutations times a shear, and commutator and
conjugator equations touch a few entries each.  So products skip zero
entries of both factors, and all elimination runs through one step,
``_subtract``, which subtracts a multiple of a row with a unit pivot and
touches only that row's nonzero terms.  It serves Gauss-Jordan reduction
(``rref`` and everything built on it), the incremental echelon basis
(``echelon_add``, ``echelon_contains``), ``det`` and ``in_row_space``.
Skipping zero terms leaves every exact value unchanged, and the RREF is
unique, so the answers do not depend on the order of the work.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like ``"-3/2"``, and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def vec(entries: Iterable) -> Vec:
    return tuple(frac(x) for x in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def identity(n: int) -> Mat:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def zeros(n: int, m: int) -> Mat:
    return tuple((ZERO,) * m for _ in range(n))


def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: Fraction, a: Mat) -> Mat:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a: Mat, b: Mat) -> Mat:
    k, m = len(b), len(b[0]) if b else 0
    if a and len(a[0]) != k:
        raise DimensionMismatch(len(a[0]), k)
    b_terms = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc: list[Fraction | None] = [None] * m
        for x, terms in zip(row, b_terms):
            if x:
                for j, y in terms:
                    s = acc[j]
                    acc[j] = x * y if s is None else s + x * y
        out.append(tuple(ZERO if s is None else s for s in acc))
    return tuple(out)


def mat_vec(a: Mat, v: Sequence[Fraction]) -> Vec:
    if a and len(a[0]) != len(v):
        raise DimensionMismatch(len(a[0]), len(v))
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise DimensionMismatch(len(u), len(v))
    return sum(x * y for x, y in zip(u, v))


class DimensionMismatch(ValueError):
    def __init__(self, expected, got):
        super().__init__(f"dimension mismatch: expected {expected}, got {got}")


def _terms(row) -> list[tuple[int, Fraction]]:
    """The nonzero entries of a row as (column, value) pairs, in column order."""
    return [(j, x) for j, x in enumerate(row) if x]


def _subtract(w: list, f: Fraction, terms) -> None:
    """w -= f * row for a row given by its nonzero terms: the elimination step."""
    for j, y in terms:
        w[j] -= f * y


def _rref_inplace(rows: list[list[Fraction]]) -> list[int]:
    """Reduce ``rows`` to reduced row echelon form; return pivot columns."""
    pivots: list[int] = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        terms = _terms(rows[r])
        for i in range(len(rows)):
            f = rows[i][c]
            if f and i != r:
                _subtract(rows[i], f, terms)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _echelon_reduce(echelon: list, v: Sequence[Fraction]) -> list[Fraction]:
    """v reduced against an echelon basis, a list of rows given by their terms.

    Each row's first term is a unit pivot, and the row is zero at the
    pivots of the rows before it, so reducing against the rows in order
    leaves zero exactly when v lies in their span.
    """
    w = list(v)
    for terms in echelon:
        f = w[terms[0][0]]
        if f:
            _subtract(w, f, terms)
    return w


def echelon_add(echelon: list, v: Sequence[Fraction]) -> Fraction | None:
    """Append v reduced to a unit-pivot row, unless it lies in the span.

    Returns the leading entry the reduced v was divided by, or None.
    """
    terms = _terms(_echelon_reduce(echelon, v))
    if not terms:
        return None
    lead = terms[0][1]
    inv = ONE / lead
    echelon.append([(j, x * inv) for j, x in terms])
    return lead


def echelon_contains(echelon: list, v: Sequence[Fraction]) -> bool:
    return not any(_echelon_reduce(echelon, v))


def rref(a: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form with zero rows dropped, plus pivot columns."""
    rows = [list(r) for r in a]
    pivots = _rref_inplace(rows)
    kept = tuple(tuple(r) for r in rows[: len(pivots)])
    return kept, tuple(pivots)


def rank(a: Mat) -> int:
    return len(rref(a)[1])


def row_space(a: Mat) -> Mat:
    """Canonical (RREF) basis of the row space; equal iff spaces are equal."""
    return rref(a)[0]


def in_row_space(v: Sequence[Fraction], basis_rref: Mat) -> bool:
    """Membership test against an RREF basis (its rows have unit pivots)."""
    return echelon_contains([_terms(row) for row in basis_rref], v)


def solve_affine(a: Mat, b: Sequence[Fraction]) -> Vec | None:
    """One exact solution of ``a x = b`` or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    n = len(a)
    m = len(a[0]) if a else 0
    rows = [list(a[i]) + [frac(b[i])] for i in range(n)]
    pivots = _rref_inplace(rows)
    for i in range(len(pivots), n):
        if rows[i] and rows[i][m] != 0:
            return None
    # pivot columns that landed on the RHS mean inconsistency
    if pivots and pivots[-1] == m:
        return None
    x = [ZERO] * m
    for r, c in enumerate(pivots):
        x[c] = rows[r][m]
    return tuple(x)


def nullspace(a: Mat, ncols: int | None = None) -> Mat:
    """Basis (rows) of the right nullspace of ``a``."""
    m = ncols if ncols is not None else (len(a[0]) if a else 0)
    if not a:
        return identity(m)
    rows = [list(r) for r in a]
    pivots = _rref_inplace(rows)
    pivset = set(pivots)
    basis = []
    for free in range(m):
        if free in pivset:
            continue
        v = [ZERO] * m
        v[free] = ONE
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        basis.append(tuple(v))
    return tuple(basis)


def det(a: Mat) -> Fraction:
    """Signed product of the leading entries met while building an echelon
    basis of the rows: a row loses only multiples of earlier rows, and the
    unit-pivot rows, ordered by pivot column, are unit upper triangular."""
    echelon: list = []
    prod = ONE
    for row in a:
        lead = echelon_add(echelon, row)
        if lead is None:
            return ZERO
        prod *= lead
    pivots = [terms[0][0] for terms in echelon]
    inversions = sum(p > q for k, p in enumerate(pivots) for q in pivots[k + 1 :])
    return -prod if inversions % 2 else prod


def inverse(a: Mat) -> Mat:
    n = len(a)
    rows = [list(a[i]) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    pivots = _rref_inplace(rows)
    if tuple(pivots[:n]) != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def trace(a: Mat) -> Fraction:
    return sum(a[i][i] for i in range(len(a)))


def is_symmetric(a: Mat) -> bool:
    return all(a[i][j] == a[j][i] for i in range(len(a)) for j in range(len(a)))


def is_positive_definite(a: Mat) -> bool:
    """Sylvester criterion with exact leading principal minors."""
    n = len(a)
    return all(det(tuple(row[: k + 1] for row in a[: k + 1])) > 0 for k in range(n))


def primitive_direction(v: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector.

    The positive scaling factor is unique, so the direction is preserved.
    """
    fr = [frac(x) for x in v]
    if all(x == 0 for x in fr):
        raise ValueError("zero vector has no primitive direction")
    denom = lcm(*(x.denominator for x in fr))
    ints = [int(x * denom) for x in fr]
    g = gcd(*ints)
    return tuple(x // g for x in ints)
