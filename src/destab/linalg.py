"""Exact rational linear algebra over ``fractions.Fraction``.

All matrices are tuples of tuples of Fractions (immutable, hashable).
Sizes here are tiny (at most a few dozen rows), but most matrices are
sparse: frames are signed permutations times a shear, and commutator and
conjugator equations touch a few entries each.  So products skip zero
entries of both factors.

Inside the library a matrix may also be held as one ``_Scaled`` value:
integer rows over one positive scale.  A Fraction matrix is scaled by the
lcm of its denominators (``_Scaled.of``), values multiply as integer
matrices with their scales multiplied, compare equal when they hold the
same rational matrix, and turn back into Fractions once
(``_Scaled.fractions``).  No other module multiplies, adds or scales
Fraction matrices: ``mat_mul``, ``mat_add``, ``mat_sub``, ``mat_scale``
and ``zeros`` serve callers outside the library.  Callers that multiply
the same matrices again and again keep the values between products, and
a repeated right factor's terms (``_Scaled.factor``).  A matrix
conjugated again and again by one pair keeps the pair's conjugation
operator (``_conjugation_operator``): the integer terms of h -> left h
right over the entries of h, so a move is one pass over h's nonzero
entries.

Elimination runs on integer rows.  Each incoming row is scaled by the lcm
of its denominators, and one fraction-free step, ``_eliminate``, replaces
w by (p/g) w - (f/g) row, where p is the row's pivot, f the entry of w
below it and g = gcd(p, f), touching only the row's nonzero terms; a row
that was scaled is made primitive again, so entries grow only with the
pivots (fraction-free elimination after Bareiss, Math. Comp. 22, 1968).
One Gauss-Jordan loop, ``_reduce``, reduces integer rows, and each kind of
answer has one reader over it: ``_basis`` gives the RREF rows as primitive
integer rows, ``_rref`` divides each pivot row by its pivot once,
``_solve`` gives one solution as integers over one denominator, and
``_kernel`` one integer kernel vector per free column over its
denominator.  ``row_space``, ``nullspace`` and the solver ``_solve_terms``
are built on them, and the callers in other modules read them directly.
``rank`` counts the pivots, and ``det`` and the inverse read the factor
``_reduce`` puts on the determinant (``_Scaled.reduced``); the same step
grows the incremental echelon basis through one integer core,
``echelon_reduce`` and ``_echelon_append`` on rows that are already
integer: ``echelon_add``, ``echelon_contains`` and ``in_row_space`` scale
their rational rows into it.  The inverse of a scaled value is read off one
reduction of [rows | scale I] as its canonical scaled value
(``_Scaled.inverse``), with no Fraction built; ``inverse`` divides it into
Fractions once.  Every integer row is a positive multiple of the row that
unit-pivot elimination over Fractions would hold, and the RREF is unique,
so every answer is the same exact value.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

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
    """The product a b, taken on the scaled values of the factors."""
    return (_Scaled.of(a) @ _Scaled.of(b)).fractions()


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
    """The nonzero (column, entry) terms of a row."""
    return [(j, x) for j, x in enumerate(row) if x]


def _integer_terms(terms, n: int) -> tuple[list[int], int]:
    """The integer row of length n whose nonzero entries are the given
    (column, rational) terms scaled by the lcm of their denominators, and
    that lcm."""
    den = lcm(*[x.denominator for _, x in terms])
    w = [0] * n
    for j, x in terms:
        w[j] = x.numerator * (den // x.denominator)
    return w, den


def _integer_row(row) -> list[int]:
    """A rational row scaled by the lcm of its denominators."""
    return _integer_terms(_terms(row), len(row))[0]


class _Scaled(NamedTuple):
    """A rational matrix held as integer rows over one positive scale: the
    matrix is rows / scale.

    ``of`` builds the canonical value of a matrix; a product carries the
    product of its factors' scales.  Two values are equal when they hold
    the same rational matrix, whatever their scales, and then hash alike.
    """

    rows: tuple[tuple[int, ...], ...]
    scale: int

    @staticmethod
    def of(a) -> "_Scaled":
        """A matrix of Fractions or ints scaled by the lcm of its
        denominators, which is unique, so equal matrices give equal
        rows and scales."""
        den = lcm(*[x.denominator for row in a for x in row])
        if den == 1:
            return _Scaled(tuple([tuple([x.numerator for x in row]) for row in a]), 1)
        return _Scaled(tuple([tuple([x.numerator * (den // x.denominator) for x in row]) for row in a]), den)

    def __matmul__(self, other: "_Scaled") -> "_Scaled":
        return self.times(other.factor())

    def factor(self) -> tuple:
        """The nonzero row terms, width and scale that ``times`` reads."""
        return [[(j, y) for j, y in enumerate(row) if y] for row in self.rows], len(self.rows[0]) if self.rows else 0, self.scale

    def times(self, factor: tuple) -> "_Scaled":
        """The product with a right factor, skipping zero entries of both."""
        b_terms, m, scale = factor
        if self.rows and len(self.rows[0]) != len(b_terms):
            raise DimensionMismatch(len(self.rows[0]), len(b_terms))
        out = []
        for row in self.rows:
            acc = [0] * m
            for x, terms in zip(row, b_terms):
                if x:
                    for j, y in terms:
                        acc[j] += x * y
            out.append(tuple(acc))
        return _Scaled(tuple(out), self.scale * scale)

    def __eq__(self, other) -> bool:
        """x / s = y / t, tested as x t = y s."""
        if not isinstance(other, _Scaled):
            return NotImplemented
        s, t = self.scale, other.scale
        if s == t:
            return self.rows == other.rows
        return len(self.rows) == len(other.rows) and all(
            len(rx) == len(ry) and all(p * t == q * s for p, q in zip(rx, ry))
            for rx, ry in zip(self.rows, other.rows)
        )

    def __ne__(self, other) -> bool:  # tuple's own != would compare the fields
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self) -> int:
        # the hash of the value with no common factor of scale and entries,
        # which equal values share
        g = gcd(self.scale, *chain.from_iterable(self.rows))
        if g == 1:
            return tuple.__hash__(self)
        return hash((tuple(tuple(x // g for x in row) for row in self.rows), self.scale // g))

    def fractions(self) -> Mat:
        """The matrix as Fractions, each entry divided by the scale once."""
        s = self.scale
        return tuple([tuple([Fraction(x, s) if x else ZERO for x in row]) for row in self.rows])

    def inverse(self) -> tuple["_Scaled | None", Fraction]:
        """The inverse of a square value as its canonical value (None when
        it is singular), and its determinant, from one reduction of
        [rows | scale I], which ends [D | rows of the inverse times D] with
        D the diagonal of the positive pivots.

        Row i of the inverse is the right half r of row i over its pivot p,
        which in lowest terms has denominators of lcm q = p / gcd(p, r); the
        inverse's scale is the lcm S of those q, and its row i is r S / p,
        so the value is the one ``of`` gives the inverse's Fractions.
        """
        rows, d = self.reduced(True)
        if not d:
            return None, ZERO
        n = len(rows)
        reduced = []
        for i, row in enumerate(rows):
            g = gcd(row[i], *row[n:])
            reduced.append((row[i] // g, [x // g for x in row[n:]]))
        scale = lcm(*[q for q, _ in reduced])
        return _Scaled(tuple([tuple([x * (scale // q) for x in r]) for q, r in reduced]), scale), d

    def reduced(self, augment: bool) -> tuple[list[list[int]], Fraction]:
        """The integer rows of a square value, or [rows | scale I] when
        augment is set, reduced by ``_reduce``, and the determinant.

        ``_reduce`` reports the factor num / den of its row operations on
        the determinant of the first n columns.  When they are invertible
        they end diagonal with the positive pivots p on them, so the rows
        have determinant prod p den / num, and the matrix that over
        scale ** n.
        """
        n, s = len(self.rows), self.scale
        if augment:
            rows = [[*row, *[s if j == i else 0 for j in range(n)]] for i, row in enumerate(self.rows)]
        else:
            rows = [list(row) for row in self.rows]
        pivots, num, den = _reduce(rows)
        if pivots[:n] != list(range(n)):
            return rows, ZERO
        prod = 1
        for i in range(n):
            prod *= rows[i][i]
        return rows, Fraction(prod * den, num * s**n)

    def homogeneous(self, rows, degree: int) -> "_Scaled":
        """The matrix of forms of the given degree in this matrix's
        entries, given by their values at its integer rows: their values at
        its rational entries are those over scale ** degree."""
        return _Scaled(rows, self.scale**degree)


class _Conjugation(NamedTuple):
    """h -> left h right for m x m matrices h, on the flattened integer rows
    of h: per entry (k, l) of h, the nonzero terms (i m + j, left_ik
    right_lj), column (k, l) of the Kronecker product of left and right^T,
    and the product of the two scales (``_conjugation_operator``)."""

    columns: tuple
    scale: int

    def moved(self, terms) -> list[int]:
        """The flattened integer rows of left h right, for an integer h
        given by its nonzero (k m + l, entry) terms, in one pass over them;
        their scale is ``scale`` times h's."""
        acc = [0] * len(self.columns)
        for kl, x in terms:
            for ij, c in self.columns[kl]:
                acc[ij] += c * x
        return acc


def _conjugation_operator(left: _Scaled, right: _Scaled) -> _Conjugation:
    """The ``_Conjugation`` h -> left h right of two m x m scaled values:
    moving h by it gives the rows and scale of left @ h @ right."""
    m = len(left.rows)
    columns = tuple(
        tuple((i * m + j, a * b) for i, row in enumerate(left.rows) if (a := row[k]) for j, b in enumerate(right.rows[l]) if b)
        for k in range(m)
        for l in range(m)
    )
    return _Conjugation(columns, left.scale * right.scale)


def _line(v: Sequence[int]) -> tuple[int, ...]:
    """The primitive integer vector on the line of a nonzero integer vector
    whose first nonzero entry is positive."""
    g = gcd(*v)
    if next(x for x in v if x) < 0:
        g = -g
    return tuple(v) if g == 1 else tuple(x // g for x in v)


def _pivot_terms(w: list[int]) -> list[tuple[int, int]]:
    """A nonzero integer row as its ``_line``, given by its nonzero
    (column, value) terms."""
    return [(j, x) for j, x in enumerate(_line(w)) if x]


def _eliminate(w: list[int], f: int, terms) -> tuple[list[int], int, int]:
    """The elimination step: w <- (a w - b row) / d, for a row given by its
    nonzero terms with its pivot p > 0 first, where f is the entry of w at
    the pivot column, a = p/g and b = f/g with g = gcd(p, f).  The new w is
    zero there.  When a > 1, d is the gcd of the new entries (w is made
    primitive), else d = 1.  Returns the new w, a and d.
    """
    p = terms[0][1]
    g = gcd(p, f)
    a, b = p // g, f // g
    if a != 1:
        w = [a * x for x in w]
    for j, y in terms:
        w[j] -= b * y
    d = gcd(*w) if a != 1 else 1
    if d > 1:
        return [x // d for x in w], a, d
    return w, a, 1


def _reduce(rows: list[list[int]]) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan reduction of integer rows, in place.
    Row r < len(pivots) ends with a positive pivot at column pivots[r] and
    zeros at the other pivot columns, a multiple of row r of the RREF; the
    rows after them end zero.

    Returns the pivot columns and the factor num / den by which the row
    operations multiplied the determinant of n of the columns, when there
    are n rows: a swap or a negation multiplies it by -1, the step
    w <- (a w - b row) / d by a / d.
    """
    pivots: list[int] = []
    num = den = 1
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        row = rows[piv]
        if piv != r:
            rows[piv] = rows[r]
            num = -num
        if row[c] < 0:
            row = [-x for x in row]
            num = -num
        rows[r] = row
        terms = [(j, y) for j, y in enumerate(row) if y]  # starts at column c
        for i in range(len(rows)):
            f = rows[i][c]
            if f and i != r:
                rows[i], a, d = _eliminate(rows[i], f, terms)
                num *= a
                den *= d
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots, num, den


def _basis(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """The RREF basis of the span of integer rows, with each row the
    primitive integer row on its line (``_line``), which is canonical:
    equal spans give equal tuples.  The rows are reduced in place."""
    pivots = _reduce(rows)[0]
    return tuple(_line(row) for row in rows[: len(pivots)])


def _rref(rows: list[list[int]]) -> Mat:
    """The RREF basis of the span of integer rows: each pivot row divided
    by its pivot once.  The rows are reduced in place, so the first
    len(basis) of them are positive integer multiples of its rows."""
    pivots = _reduce(rows)[0]
    return tuple(tuple(Fraction(x, row[c]) if x else ZERO for x in row) for row, c in zip(rows, pivots))


def _solve(rows: list[list[int]], m: int) -> tuple[list[int], int] | None:
    """One solution x = z / den of the integer system whose rows [A | b]
    (reduced in place) have m unknowns, or None if it is inconsistent.
    Free unknowns are zero, so the answer is deterministic, and den is the
    lcm of the denominators of x in lowest terms."""
    pivots = _reduce(rows)[0]
    # a pivot on the right-hand side means inconsistency
    if pivots and pivots[-1] == m:
        return None
    den = lcm(*[row[c] // gcd(row[c], row[m]) for row, c in zip(rows, pivots)])
    z = [0] * m
    for row, c in zip(rows, pivots):
        z[c] = row[m] * den // row[c]
    return z, den


def _kernel(rows: list[list[int]], m: int) -> list[tuple[int, list[int], int]]:
    """The right kernel of integer rows of length m (reduced in place):
    per free column f, (f, k, den) with k / den the kernel vector that is 1
    at f and 0 at the other free columns.  k is an integer vector and den
    the lcm of the pivots of the rows with a nonzero entry at f."""
    pivots = _reduce(rows)[0]
    out = []
    for f in sorted(set(range(m)) - set(pivots)):
        terms = [(c, row[f], row[c]) for row, c in zip(rows, pivots) if row[f]]
        den = lcm(*[p for _, _, p in terms])
        k = [0] * m
        k[f] = den
        for c, e, p in terms:
            k[c] = -e * (den // p)
        out.append((f, k, den))
    return out


def _echelon_reduce(echelon: list, v: Sequence[Fraction]) -> tuple[list[int], int, int]:
    """v reduced against an echelon basis: (w, s, t) with w an integer row
    equal to s/t times v minus a combination of the basis rows."""
    w, s = _integer_terms(_terms(v), len(v))
    w, a, t = echelon_reduce(echelon, w)
    return w, s * a, t


def echelon_reduce(echelon: list, w: list[int]) -> tuple[list[int], int, int]:
    """An integer row w, a list it may change, reduced against an echelon
    basis with no rescaling: (w', a, t) with w' equal to a/t times w minus a
    combination of the basis rows.  Each basis row is a primitive integer
    row given by its nonzero terms, positive pivot first, and is zero at the
    pivots of the rows before it, so w' is zero exactly when w lies in the
    span."""
    a = t = 1
    for terms in echelon:
        f = w[terms[0][0]]
        if f:
            w, b, d = _eliminate(w, f, terms)
            a *= b
            t *= d
    return w, a, t


def _echelon_append(echelon: list, w: list[int]) -> bool:
    """Append an integer row w, a list it may change, reduced against the
    basis, as the primitive integer row on its line with a positive pivot,
    unless it lies in the span; returns whether w was appended."""
    w = echelon_reduce(echelon, w)[0]
    if not any(w):
        return False
    echelon.append(_pivot_terms(w))
    return True


def echelon_add(echelon: list, v: Sequence[Fraction]) -> bool:
    """``_echelon_append`` of a rational row scaled by the lcm of its
    denominators."""
    return _echelon_append(echelon, _integer_row(v))


def echelon_contains(echelon: list, v: Sequence[Fraction]) -> bool:
    return not any(_echelon_reduce(echelon, v)[0])


def rank(a: Mat) -> int:
    return _rank_terms([_terms(row) for row in a], len(a[0]) if a else 0)


def row_space(a: Mat) -> Mat:
    """Canonical (RREF) basis of the row space; equal iff spaces are equal."""
    return _rref([_integer_row(row) for row in a])


def in_row_space(v: Sequence[Fraction], basis_rref: Mat) -> bool:
    """Membership test against an RREF basis."""
    return echelon_contains([_pivot_terms(_integer_row(row)) for row in basis_rref], v)


def _solve_terms(rows, rhs: Sequence[Fraction], m: int) -> tuple[list[int], int] | None:
    """``_solve`` for the system in m unknowns whose rows are given by their
    nonzero (column, rational) terms, with right-hand side rhs, each row
    scaled to integers first."""
    return _solve([_integer_terms([*terms, (m, b)], m + 1)[0] for terms, b in zip(rows, rhs)], m)


def _rank_terms(rows, m: int) -> int:
    """``rank`` of the rows of length m given by their nonzero terms."""
    return len(_reduce([_integer_terms(terms, m)[0] for terms in rows])[0])


def nullspace(a: Mat, ncols: int | None = None) -> Mat:
    """Basis (rows) of the right nullspace of ``a``."""
    m = ncols if ncols is not None else (len(a[0]) if a else 0)
    kernel = _kernel([_integer_row(row) for row in a], m)
    return tuple(tuple(Fraction(x, den) if x else ZERO for x in k) for _, k, den in kernel)


def det(a: Mat) -> Fraction:
    return _Scaled.of(a).reduced(False)[1]


def inverse(a: Mat) -> Mat:
    inv = _Scaled.of(a).inverse()[0]
    if inv is None:
        raise ValueError("matrix is singular")
    return inv.fractions()


def is_symmetric(a: Mat) -> bool:
    return all(a[i][j] == a[j][i] for i in range(len(a)) for j in range(len(a)))


def is_positive_definite(a: Mat) -> bool:
    """Sylvester's criterion in one fraction-free elimination without row
    swaps.  Rows are scaled and combined by positive factors only, so pivot
    k is a positive multiple of leading minor k + 1 over minor k (Bareiss,
    Math. Comp. 22, 1968): every minor is positive exactly when every pivot is."""
    rows = [_integer_row(row) for row in a]
    for k, row in enumerate(rows):
        if row[k] <= 0:
            return False
        terms = [(j, y) for j, y in enumerate(row) if y]  # zero before column k
        rows[k + 1 :] = [_eliminate(w, w[k], terms)[0] if w[k] else w for w in rows[k + 1 :]]
    return True


def primitive_direction(v: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector.

    The positive scaling factor is unique, so the direction is preserved.
    """
    ints = _integer_row([frac(x) for x in v])
    g = gcd(*ints)
    if not g:
        raise ValueError("zero vector has no primitive direction")
    return tuple(x // g for x in ints)
