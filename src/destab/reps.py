"""Weight-diagonalized rational representations and their limits.

Every supported representation carries an ordered basis on which the
standard diagonal torus acts by an explicit integer weight.  The full group
acts exactly, through each kind's structure: conjugation tuples move each
matrix as g h g^-1, a direct sum acts part by part, and a symmetric power
applies its (d+1) x (d+1) matrix.  ``act_matrix``, the action's matrix in
the basis, is read off the same action one basis vector at a time;
polynomials are composed with the action through it.  A cocharacter with a
base point is handled by transporting the point into the standard frame,
grading there, and transporting back.

A point is moved by a checked pair (g, g^-1) of ``linalg`` scaled values
(``GroupSpec._checked_pair``): a cocharacter and a search configuration
hold the pairs of their frames, so moving a point into a frame or out of
it neither checks nor inverts the frame again.  Only an element that comes
from outside (``act``, ``act_matrix``, ``support``,
``composed_with_action``) is checked where it enters.  A point keeps its
coordinates scaled to integers, with their scale, from its first move.
Each kind has one integer kernel (``_moved``) that moves integer
coordinates by the act memo's entry for the pair, built once per acting
element, and gives integer coordinates and a factor on the scale:
conjugation tuples apply the pair's ``linalg`` conjugation operator
h -> g h g^-1, one pass over each matrix's nonzero entries; other kinds
apply the integer rows of the action matrix; a direct sum puts its parts
over the lcm of their scales.  ``act`` is that kernel and one division.
The integer coordinates of a point in a frame have one reader,
``_frame_ints``: the support and the instability code read the integers
alone, and the grading and the limit build Fractions only for the points
they return.

The closed enumeration of kinds (conjugation tuples, symmetric powers of
the standard 2-dimensional module, adjoint, direct sums) is the documented
extension point: a new kind supplies basis weights and its action, the memo
entry ``_action`` builds for a checked pair, and its own ``_moved`` unless
that entry is the integer rows of the action matrix.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from . import linalg
from .errors import DimensionError, DomainError
from .groups import Character, Cocharacter, GroupSpec, _field_state, _identity_frame, pairing_vec
from .linalg import ZERO, Mat, Vec, frac

Monomial = tuple[tuple[int, int], ...]  # sorted ((coordinate index, exponent), ...)


class Representation:
    """Common interface: ``group``, ``dim``, ``weights``, ``act_matrix``.

    ``act`` and ``act_matrix`` check the acting element on every call, so a
    non-member is always rejected, and act by its checked pair.  The act
    memo keeps what the kind's action needs (``_action``), keyed by the
    pair's first value: the conjugation operator for conjugation tuples,
    the action matrix for any other kind, the parts' data for a direct
    sum.  Each kind's kernel ``_moved`` applies an entry to integer
    coordinates, and ``_kernel`` looks the entry up and applies it.  The
    memo stays out of equality, hash, repr and pickles.
    """

    group: GroupSpec
    dim: int
    weights: tuple[Character, ...]

    __getstate__ = _field_state

    def act_matrix(self, g: Mat) -> Mat:
        """The matrix of g's action in the basis: column j is the kernel's
        image of the j-th basis vector."""
        pair = self.group._checked_pair(linalg.mat(g), "acting element")
        n = self.dim
        columns = []
        for j in range(n):
            moved, s = self._kernel(pair, [int(i == j) for i in range(n)])
            columns.append([Fraction(x, s) if x else ZERO for x in moved])
        return tuple(zip(*columns))

    def act(self, g: Mat, point: "Point") -> "Point":
        return self._act(self.group._checked_pair(linalg.mat(g), "acting element"), point)

    def _act(self, pair: tuple, point: "Point") -> "Point":
        """``act`` by a checked pair (g, g^-1): the kernel on the point's
        integer coordinates and one division; the identity returns the
        point itself."""
        if point.rep != self:
            raise DimensionError("point belongs to a different representation")
        w, u = point._ints
        moved, s = self._kernel(pair, w)
        return point if moved is w else _point(self, moved, s * u)

    def _kernel(self, pair: tuple, w) -> tuple:
        """Integer coordinates w moved by a checked pair (g, g^-1), through
        the act memo's entry for g (None for the identity): the moved
        integer coordinates and the factor on w's scale, or w itself and 1
        for the identity."""
        memo = self.__dict__.setdefault("_act_memo", {})
        g = pair[0]
        try:
            data = memo[g]
        except KeyError:
            data = memo[g] = None if g == _identity_frame(self.group.dimension)[1][0] else self._action(*pair)
        return (w, 1) if data is None else self._moved(data, w)

    def _moved(self, data: linalg._Scaled, w) -> tuple[list[int], int]:
        """The kernel: integer coordinates w moved by a memo entry, and the
        factor on their scale."""
        return [sum(map(mul, row, w)) for row in data.rows], data.scale

    def zero(self) -> "Point":
        return Point(self, (Fraction(0),) * self.dim)


@dataclass(frozen=True, eq=True)
class ConjugationTuples(Representation):
    """Tuples of m x m matrices under simultaneous conjugation."""

    group: GroupSpec
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise DomainError("tuple length must be >= 1")

    @property
    def m(self) -> int:
        return self.group.dimension

    @property
    def dim(self) -> int:
        return self.count * self.m * self.m

    @property
    def weights(self) -> tuple[Character, ...]:
        return _conjugation_weights(self.m, self.count)

    def _action(self, g: linalg._Scaled, inverse: linalg._Scaled) -> linalg._Conjugation:
        return linalg._conjugation_operator(g, inverse)

    def _moved(self, data: linalg._Conjugation, w) -> tuple[list[int], int]:
        n = self.m * self.m
        blocks = (data.moved([(kl, x) for kl, x in enumerate(w[t : t + n]) if x]) for t in range(0, len(w), n))
        return list(itertools.chain.from_iterable(blocks)), data.scale

    def point(self, matrices) -> "Point":
        mats = [linalg.mat(h) for h in matrices]
        if len(mats) != self.count:
            raise DimensionError(f"expected {self.count} matrices, got {len(mats)}")
        for h in mats:
            if len(h) != self.m or any(len(r) != self.m for r in h):
                raise DimensionError("matrix size mismatch")
        return Point(self, tuple(itertools.chain.from_iterable(map(_flatten, mats))))

    def matrices(self, point: "Point") -> tuple[Mat, ...]:
        n = self.m * self.m
        return tuple(_unflatten(point.coords[t : t + n], self.m) for t in range(0, self.dim, n))


def _flatten(x) -> list:
    """The entries of a matrix given by its rows, row by row: the layout of
    a matrix in a conjugation tuple's coordinates."""
    return list(itertools.chain.from_iterable(x))


def _unflatten(v, m: int) -> tuple:
    """The m x m matrix whose entries, row by row, are v (``_flatten``)."""
    return tuple(tuple(v[i : i + m]) for i in range(0, m * m, m))


@lru_cache(maxsize=None)
def _conjugation_weights(m: int, count: int) -> tuple[Character, ...]:
    out = []
    for _t in range(count):
        for i in range(m):
            for j in range(m):
                w = [0] * m
                w[i] += 1
                w[j] -= 1
                out.append(Character(tuple(w)))
    return tuple(out)


def adjoint(group: GroupSpec) -> ConjugationTuples:
    """The adjoint module: single matrices under conjugation."""
    return ConjugationTuples(group, 1)


@dataclass(frozen=True, eq=True)
class SymPower(Representation):
    """Sym^d of the standard module of a rank-2 single factor (GL_2/SL_2).

    Basis is x^{d-j} y^j for j = 0..d where (x, y) is the standard basis;
    the torus diag(a1, a2) scales the j-th vector by a1^{d-j} a2^j.
    """

    group: GroupSpec
    degree: int

    def __post_init__(self):
        if self.group.dimension != 2 or len(self.group.factors) != 1:
            raise DomainError("symmetric powers are supported for a single rank-2 factor")
        if self.degree < 1:
            raise DomainError("degree must be >= 1")

    @property
    def dim(self) -> int:
        return self.degree + 1

    @property
    def weights(self) -> tuple[Character, ...]:
        return _sym_weights(self.degree)

    def _action(self, g: linalg._Scaled, inverse: linalg._Scaled) -> linalg._Scaled:
        """The action matrix, whose entries are forms of degree d in g."""
        # g.x = g00 x + g10 y, g.y = g01 x + g11 y; expand (g.x)^{d-j} (g.y)^j.
        (a, b), (c, e) = g.rows
        d = self.degree
        cols = []
        for j in range(d + 1):
            col = [0] * (d + 1)
            for k1, c1 in enumerate(_binom_expand(a, c, d - j)):
                for k2, c2 in enumerate(_binom_expand(b, e, j)):
                    col[k1 + k2] += c1 * c2
            cols.append(col)
        return g.homogeneous(tuple(zip(*cols)), d)

    def monomial(self, j: int, coeff=1) -> "Point":
        coords = [Fraction(0)] * self.dim
        coords[j] = frac(coeff)
        return Point(self, tuple(coords))


@lru_cache(maxsize=None)
def _sym_weights(degree: int) -> tuple[Character, ...]:
    return tuple(Character((degree - j, j)) for j in range(degree + 1))


def _binom_expand(a: int, b: int, n: int) -> list[int]:
    """Coefficients of (a x + b y)^n in y-degree order."""
    from math import comb

    return [comb(n, k) * a ** (n - k) * b**k for k in range(n + 1)]


@dataclass(frozen=True, eq=True)
class DirectSum(Representation):
    parts: tuple[Representation, ...]

    def __post_init__(self):
        if not self.parts:
            raise DomainError("direct sum needs at least one part")
        g = self.parts[0].group
        if any(p.group != g for p in self.parts):
            raise DomainError("direct sum parts must share the group")

    @property
    def group(self) -> GroupSpec:
        return self.parts[0].group

    @property
    def dim(self) -> int:
        return sum(p.dim for p in self.parts)

    @property
    def weights(self) -> tuple[Character, ...]:
        return tuple(w for p in self.parts for w in p.weights)

    def _action(self, g: linalg._Scaled, inverse: linalg._Scaled) -> tuple:
        return tuple(p._action(g, inverse) for p in self.parts)

    def _moved(self, data: tuple, w) -> tuple[list[int], int]:
        """Each part moved by its own kernel, put over the lcm of the parts'
        scales."""
        starts = itertools.accumulate((p.dim for p in self.parts), initial=0)
        parts = [p._moved(part_data, w[k : k + p.dim]) for p, part_data, k in zip(self.parts, data, starts)]
        scale = lcm(*[s for _, s in parts])
        return [x * (scale // s) for moved, s in parts for x in moved], scale


@dataclass(frozen=True)
class Point:
    rep: Representation
    coords: Vec

    def __post_init__(self):
        object.__setattr__(self, "coords", linalg.vec(self.coords))
        if len(self.coords) != self.rep.dim:
            raise DimensionError("coordinate length must equal the basis size")

    def __add__(self, other: "Point") -> "Point":
        if self.rep != other.rep:
            raise DimensionError("points live in different representations")
        return Point(self.rep, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Point") -> "Point":
        if self.rep != other.rep:
            raise DimensionError("points live in different representations")
        return Point(self.rep, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    # The integer coordinates below are computed once per instance and kept
    # in its __dict__, outside the dataclass fields, so equality, hash and
    # repr do not see them; ``__getstate__`` leaves them out of pickles.

    @functools.cached_property
    def _ints(self) -> tuple[tuple[int, ...], int]:
        """The coordinates scaled by the lcm of their denominators, and that
        lcm."""
        w, u = linalg._integer_terms(linalg._terms(self.coords), self.rep.dim)
        return tuple(w), u

    __getstate__ = _field_state


def _point(rep: Representation, w, den: int) -> Point:
    """The point of integer coordinates w over den."""
    return Point(rep, tuple([Fraction(x, den) if x else ZERO for x in w]))


@dataclass(frozen=True)
class Grading:
    """Exact decomposition of a point into weight levels along a cocharacter."""

    point: Point
    cocharacter: Cocharacter
    components: dict[int, Point]

    def reconstruct(self) -> Point:
        total = self.point.rep.zero()
        for part in self.components.values():
            total = total + part
        return total

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(sorted(self.components))


def support(v: Point, frame: Mat | None = None) -> frozenset[Character]:
    """Torus weights with nonzero component after moving v into the frame.

    ``frame`` is the base of a cocharacter; None means the standard frame.
    """
    pair = None if frame is None else v.rep.group._checked_pair(linalg.mat(frame), "acting element")
    return frozenset(chi for chi, c in zip(v.rep.weights, _frame_ints(v, pair)[0]) if c)


def _frame_ints(v: Point, pair: tuple | None) -> tuple:
    """The integer coordinates of v moved into the frame of a checked pair
    (base, base^-1), base^-1 . v, or of v itself when the pair is None, and
    their scale."""
    w, u = v._ints
    if pair is None:
        return w, u
    moved, s = v.rep._kernel(pair[::-1], w)
    return moved, s * u


def _frame_levels(v: Point, lam: Cocharacter) -> tuple:
    """The nonzero integer coordinates of v in lambda's frame as (index,
    level, coordinate) triples, in order, and their scale."""
    if lam.group != v.rep.group:
        raise DimensionError("cocharacter and representation have different groups")
    w, u = _frame_ints(v, lam._frame)
    d = lam.torus.exponents
    return ((idx, pairing_vec(d, chi), c) for idx, (chi, c) in enumerate(zip(v.rep.weights, w)) if c), u


def _point_from_frame(rep: Representation, lam: Cocharacter, w, u: int) -> Point:
    """The point base . (w / u), for lambda's base and integer coordinates w
    in its frame."""
    moved, s = rep._kernel(lam._frame, w)
    return _point(rep, moved, s * u)


def grade(v: Point, lam: Cocharacter) -> Grading:
    """Split v into components on which lambda acts by a fixed power."""
    levels, u = _frame_levels(v, lam)
    buckets: dict[int, list[int]] = {}
    for idx, n, c in levels:
        buckets.setdefault(n, [0] * v.rep.dim)[idx] = c
    return Grading(v, lam, {n: _point_from_frame(v.rep, lam, w, u) for n, w in buckets.items()})


def limit(v: Point, lam: Cocharacter) -> Point | None:
    """lim_{a->0} lambda(a).v, or None when a negative level is present.

    v is moved into lambda's frame on its integer coordinates, the reading
    stops at the first coordinate of a negative level, and otherwise only
    the level-0 part is moved back by the same kernel and divided once.
    """
    levels, u = _frame_levels(v, lam)
    level = [0] * v.rep.dim
    for idx, n, c in levels:
        if n < 0:
            return None
        if n == 0:
            level[idx] = c
    return _point_from_frame(v.rep, lam, level, u)


# ---------------------------------------------------------------------------
# Exact polynomial functions on a representation


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in the coordinates of a representation, exact coefficients.

    Terms map a sorted monomial (tuple of (index, exponent) pairs) to a
    nonzero Fraction; the empty monomial is the constant term.
    """

    rep: Representation
    terms: tuple[tuple[Monomial, Fraction], ...]

    @staticmethod
    def from_dict(rep: Representation, d: dict) -> "Polynomial":
        cleaned = {}
        for mono, coeff in d.items():
            coeff = frac(coeff)
            if coeff == 0:
                continue
            mono = tuple(sorted((int(i), int(e)) for i, e in mono))
            for i, e in mono:
                if not (0 <= i < rep.dim) or e < 1:
                    raise DimensionError("bad monomial index or exponent")
            cleaned[mono] = cleaned.get(mono, Fraction(0)) + coeff
        return Polynomial(rep, tuple(sorted((m, c) for m, c in cleaned.items() if c != 0)))

    @staticmethod
    def coordinate(rep: Representation, index: int) -> "Polynomial":
        return Polynomial.from_dict(rep, {((index, 1),): 1})

    @staticmethod
    def constant(rep: Representation, c) -> "Polynomial":
        c = frac(c)
        return Polynomial(rep, (((), c),) if c != 0 else ())

    def __add__(self, other: "Polynomial") -> "Polynomial":
        d = dict(self.terms)
        for mono, coeff in other.terms:
            d[mono] = d.get(mono, Fraction(0)) + coeff
        return Polynomial(self.rep, tuple(sorted((m, c) for m, c in d.items() if c != 0)))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scaled(-1)

    def scaled(self, c) -> "Polynomial":
        c = frac(c)
        if c == 0:
            return Polynomial(self.rep, ())
        return Polynomial(self.rep, tuple((m, c * k) for m, k in self.terms))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        d: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                merged: dict[int, int] = {}
                for i, e in itertools.chain(m1, m2):
                    merged[i] = merged.get(i, 0) + e
                mono = tuple(sorted(merged.items()))
                d[mono] = d.get(mono, Fraction(0)) + c1 * c2
        return Polynomial(self.rep, tuple(sorted((m, c) for m, c in d.items() if c != 0)))

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, v: Point) -> Fraction:
        if v.rep != self.rep:
            raise DimensionError("point belongs to a different representation")
        coords = v.coords
        total = ZERO
        for mono, coeff in self.terms:
            val = coeff
            for i, e in mono:
                x = coords[i]
                if not x:
                    break  # the term is zero
                val *= x if e == 1 else x**e
            else:
                total += val
        return total

    def weight_of_monomial(self, mono: Monomial) -> Character:
        total = Character(tuple([0] * self.rep.group.dimension))
        for i, e in mono:
            total = total + self.rep.weights[i].scaled(e)
        return total

    def isotypic(self) -> dict[Character, "Polynomial"]:
        """Group terms by total monomial weight; the parts sum back exactly."""
        buckets: dict[Character, dict] = {}
        for mono, coeff in self.terms:
            chi = self.weight_of_monomial(mono)
            buckets.setdefault(chi, {})[mono] = coeff
        return {chi: Polynomial.from_dict(self.rep, d) for chi, d in buckets.items()}

    def substitute_linear(self, a: Mat) -> "Polynomial":
        """The polynomial v -> self(a v), expanded exactly."""
        rows = {}

        def row_poly(i: int) -> "Polynomial":
            if i not in rows:
                rows[i] = Polynomial.from_dict(
                    self.rep,
                    {((j, 1),): a[i][j] for j in range(self.rep.dim) if a[i][j] != 0},
                )
            return rows[i]

        out = Polynomial(self.rep, ())
        for mono, coeff in self.terms:
            term = Polynomial.constant(self.rep, coeff)
            for i, e in mono:
                for _ in range(e):
                    term = term * row_poly(i)
            out = out + term
        return out

    def composed_with_action(self, g: Mat) -> "Polynomial":
        """The polynomial v -> self(g . v)."""
        return _composed((self,), linalg.mat(g))[0]


def _composed(polys, g: Mat) -> tuple[Polynomial, ...]:
    """Each polynomial v -> f(g . v), for polynomials on one representation,
    through one action matrix, which checks g."""
    if not polys:
        return ()
    rep = polys[0].rep
    a = rep.act_matrix(g)
    return tuple(f.substitute_linear(a) for f in polys)


def isotypic_decompose(
    f: Polynomial, frame: Mat | None = None
) -> list[tuple[Character, Polynomial]]:
    """Decompose f (transported by ``frame`` if given) by torus weight.

    With the identity frame the components sum back to f exactly; with a
    base point g they sum to the composed polynomial v -> f(g.v).
    """
    poly = f if frame is None else f.composed_with_action(frame)
    parts = poly.isotypic()
    return sorted(parts.items(), key=lambda kv: kv[0].weights)
