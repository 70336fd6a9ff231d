"""Split classical groups: torus data, Weyl elements, cocharacters.

A group is a finite product of GL/SL factors embedded block-diagonally in
``GL_m`` with the diagonal maximal torus.  Everything is exact: group
elements are rational matrices, cocharacters are integer exponent vectors,
optionally conjugated by a rational base point.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field, fields
from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .errors import DimensionError, DomainError
from .linalg import Mat, frac

GL = "GL"
SL = "SL"


@dataclass(frozen=True)
class Factor:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in (GL, SL):
            raise DomainError(f"unknown family {self.family!r}")
        if self.rank < 1:
            raise DomainError("factor rank must be >= 1")


@dataclass(frozen=True)
class Character:
    """A weight of the standard torus: an integer vector of length m."""

    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))

    def __add__(self, other: "Character") -> "Character":
        if len(self.weights) != len(other.weights):
            raise DimensionError("character lengths differ")
        return Character(tuple(a + b for a, b in zip(self.weights, other.weights)))

    def __neg__(self) -> "Character":
        return Character(tuple(-a for a in self.weights))

    def scaled(self, k: int) -> "Character":
        return Character(tuple(k * a for a in self.weights))

    def is_zero(self) -> bool:
        return all(w == 0 for w in self.weights)


def _field_state(self) -> dict:
    """The ``__getstate__`` of a dataclass that keeps cached data in its
    __dict__: its fields alone, so pickles leave that data out."""
    return {f.name: getattr(self, f.name) for f in fields(self)}


@functools.cache
def _shape(factors: tuple[Factor, ...]) -> tuple:
    """The coordinate range of each factor block of a group shape, and the
    block of each coordinate; built once per shape."""
    starts = itertools.accumulate((f.rank for f in factors), initial=0)
    ranges = tuple(range(start, start + f.rank) for start, f in zip(starts, factors))
    return ranges, tuple(b for b, block in enumerate(ranges) for _ in block)


@functools.cache
def _identity_frame(m: int) -> tuple:
    """The m x m identity and its held pair: a member of every group of
    dimension m, and its own inverse; built once per dimension."""
    ident = linalg.identity(m)
    one = linalg._Scaled.of(ident)
    return ident, (one, one)


@dataclass(frozen=True)
class GroupSpec:
    """A product of GL/SL factors with its standard torus and norm."""

    factors: tuple[Factor, ...]
    norm: "Norm | None" = None

    def __post_init__(self):
        if not self.factors:
            raise DomainError("a group needs at least one factor")
        if self.norm is None:
            object.__setattr__(self, "norm", Norm.standard(self.dimension))
        self.norm.check_invariance(self)

    @staticmethod
    def make(*factors: tuple[str, int], gram=None) -> "GroupSpec":
        fs = tuple(Factor(fam, rk) for fam, rk in factors)
        m = sum(f.rank for f in fs)
        norm = Norm.standard(m) if gram is None else Norm(linalg.mat(gram))
        return GroupSpec(fs, norm)

    # The shape data below is computed once per instance and kept in its
    # __dict__, outside the dataclass fields, so equality, hash and repr
    # do not see it; ``__getstate__`` leaves it out of pickles.

    @functools.cached_property
    def dimension(self) -> int:
        return sum(f.rank for f in self.factors)

    @functools.cached_property
    def block_slices(self) -> tuple[range, ...]:
        return _shape(self.factors)[0]

    @functools.cached_property
    def _block_indices(self) -> tuple[int, ...]:
        """The block of each coordinate."""
        return _shape(self.factors)[1]

    def block_of(self, index: int) -> int:
        if 0 <= index < self.dimension:
            return self._block_indices[index]
        raise DimensionError(f"index {index} out of range")

    __getstate__ = _field_state

    def identity(self) -> Mat:
        return _identity_frame(self.dimension)[0]

    def _blocks(self, g):
        """The diagonal blocks of a matrix g given by its rows, or None
        unless g is m x m with zeros off its factor blocks."""
        m = self.dimension
        if len(g) != m or any(len(row) != m for row in g):
            return None
        if len(self.factors) == 1:
            return [g]
        for bi, block_i in enumerate(self.block_slices):
            for bj, block_j in enumerate(self.block_slices):
                if bi == bj:
                    continue
                if any(g[i][j] != 0 for i in block_i for j in block_j):
                    return None
        return [tuple(tuple(g[i][j] for j in block) for i in block) for block in self.block_slices]

    def contains(self, g: Mat) -> bool:
        blocks = self._blocks(g)
        return blocks is not None and all(
            _block_det_allowed(f, linalg.det(sub)) for f, sub in zip(self.factors, blocks)
        )

    def require_member(self, g: Mat, what: str = "element") -> None:
        if not self.contains(linalg.mat(g)):
            raise DomainError(f"{what} is not in the group")

    def _member_inverse(self, g: linalg._Scaled, what: str = "element") -> linalg._Scaled:
        """The inverse of the matrix of a scaled value g as its canonical
        scaled value, after the matrix is checked as ``require_member``
        checks it, with the same error: each block's determinant and
        inverse come from one reduction of its integer rows
        (``linalg._Scaled.inverse``), and the blocks' inverses are put over
        the lcm of their scales."""
        blocks = self._blocks(g.rows)
        if blocks is not None:
            parts = [linalg._Scaled(sub, g.scale).inverse() for sub in blocks]
            if all(_block_det_allowed(f, d) for f, (_, d) in zip(self.factors, parts)):
                if len(parts) == 1:
                    return parts[0][0]
                m = self.dimension
                scale = lcm(*[inv.scale for inv, _ in parts])
                rows = [[0] * m for _ in range(m)]
                for block, (inv, _) in zip(self.block_slices, parts):
                    k = scale // inv.scale
                    for i, row in zip(block, inv.rows):
                        rows[i][block.start : block.stop] = [x * k for x in row]
                return linalg._Scaled(tuple(map(tuple, rows)), scale)
        raise DomainError(f"{what} is not in the group")

    def _checked_pair(self, g: Mat, what: str = "element") -> tuple:
        """The checked pair (g, g^-1) of an exact matrix g as scaled values:
        g is scaled once, and ``_member_inverse`` checks and inverts it on
        those integer rows.  Code that holds the pair moves points and
        matrices by g or g^-1 without checking or inverting g again."""
        scaled = linalg._Scaled.of(g)
        return scaled, self._member_inverse(scaled, what)

    # The frame tables below depend on the factors alone: each is built on
    # first use per group shape and kept in a module-level cache, so every
    # instance of one shape shares it, and equality, hash and pickles do
    # not see it.

    def weyl_representatives(self) -> tuple[Mat, ...]:
        """One rational representative per Weyl group element.

        Permutation matrices blockwise; inside SL factors a column is negated
        when needed to keep determinant one.
        """
        return _weyl_table(self.factors)[0]

    @property
    def _weyl_pairs(self) -> tuple:
        """The held pair of each Weyl representative, in closed form: a
        signed permutation is orthogonal, so its inverse is its transpose."""
        return _weyl_table(self.factors)[1]

    def shears(self, values=(-2, -1, 1, 2)) -> tuple[Mat, ...]:
        """Elementary shears I + c*E_ij inside factor blocks, built once per
        group shape and sequence of values."""
        return self._shear_table(values)[0]

    def _shear_table(self, values) -> tuple:
        """``shears`` of the values, their held pairs and the block of each
        (``_shear_table_of``)."""
        return _shear_table_of(self.factors, tuple(map(frac, values)))


@functools.cache
def _weyl_table(factors: tuple[Factor, ...]) -> tuple:
    """The Weyl representatives of a group shape and their held pairs."""
    per_block = [
        [(block, perm, f.family) for perm in itertools.permutations(range(f.rank))]
        for block, f in zip(_shape(factors)[0], factors)
    ]
    m = sum(f.rank for f in factors)
    out = []
    for combo in itertools.product(*per_block):
        g = [[Fraction(0)] * m for _ in range(m)]
        for block, perm, family in combo:
            negate_col = None
            # the sign of a permutation is the determinant of its matrix
            if family == SL and linalg.det([[int(p == j) for j in range(len(perm))] for p in perm]) < 0:
                negate_col = next(i for i, p in enumerate(perm) if p != i)
            for i, p in enumerate(perm):
                val = Fraction(-1 if i == negate_col else 1)
                g[block[p]][block[i]] = val
        out.append(tuple(tuple(row) for row in g))
    weyl = map(linalg._Scaled.of, out)
    return tuple(out), tuple((w, linalg._Scaled(tuple(zip(*w.rows)), 1)) for w in weyl)


@functools.cache
def _shear_table_of(factors: tuple[Factor, ...], values: tuple[Fraction, ...]) -> tuple:
    """The shears of a group shape and exact values, their held pairs and
    the block of each.

    The pairs are in closed form: for c = p / s in lowest terms, I + c E_ij
    is the rows s I + p E_ij over s, and for i != j its inverse I - c E_ij
    is s I - p E_ij over the same s; both are the canonical values
    ``linalg._Scaled.of`` gives.
    """
    m = sum(f.rank for f in factors)
    ident = linalg.identity(m)
    # s I for each scale s of the values
    scaled = {c.denominator: tuple(tuple(c.denominator * (a == k) for k in range(m)) for a in range(m)) for c in values}
    out = []
    for b, block in enumerate(_shape(factors)[0]):
        for i, j in itertools.permutations(block, 2):
            for c in values:
                if c != 0:
                    rows, s = scaled[c.denominator], c.denominator
                    pair = (linalg._Scaled(_with_entry(rows, i, j, c.numerator), s),
                            linalg._Scaled(_with_entry(rows, i, j, -c.numerator), s))
                    out.append((_with_entry(ident, i, j, c), pair, b))
    return tuple(zip(*out)) or ((), (), ())


def _with_entry(rows: tuple, i: int, j: int, x) -> tuple:
    """The matrix rows with entry (i, j) replaced by x; the other rows are
    shared."""
    row = list(rows[i])
    row[j] = x
    return (*rows[:i], tuple(row), *rows[i + 1 :])


def _block_det_allowed(f: Factor, d: Fraction) -> bool:
    """Whether a block of factor f with determinant d is in the factor."""
    return d != 0 and (f.family == GL or d == 1)


@dataclass(frozen=True)
class TorusCocharacter:
    """An integer exponent vector d: a -> diag(a^{d_1}, ..., a^{d_m})."""

    group: GroupSpec
    exponents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(int(d) for d in self.exponents))
        if len(self.exponents) != self.group.dimension:
            raise DimensionError("exponent vector length must equal the matrix dimension")
        for f, block in zip(self.group.factors, self.group.block_slices):
            if f.family == SL and sum(self.exponents[i] for i in block) != 0:
                raise DomainError("SL factor exponents must sum to zero")

    @staticmethod
    def _held(group: GroupSpec, exponents: tuple[int, ...]) -> "TorusCocharacter":
        """The torus cocharacter of a tuple of ints already known to be
        exponents of the group, not checked again."""
        torus = object.__new__(TorusCocharacter)
        vars(torus).update(group=group, exponents=exponents)
        return torus

    @property
    def is_zero(self) -> bool:
        return all(d == 0 for d in self.exponents)

    @property
    def is_primitive(self) -> bool:
        return gcd(*self.exponents) == 1

    def primitive(self) -> "TorusCocharacter":
        if self.is_zero:
            return self
        g = gcd(*self.exponents)
        return TorusCocharacter(self.group, tuple(d // g for d in self.exponents))

    def scaled(self, k: int) -> "TorusCocharacter":
        return TorusCocharacter(self.group, tuple(k * d for d in self.exponents))

    def __add__(self, other: "TorusCocharacter") -> "TorusCocharacter":
        return TorusCocharacter(
            self.group, tuple(a + b for a, b in zip(self.exponents, other.exponents))
        )

    def evaluate(self, a: Fraction) -> Mat:
        """The diagonal matrix of the torus point at parameter ``a``."""
        a = frac(a)
        if a == 0:
            raise DomainError("parameter must be invertible")
        m = len(self.exponents)
        return tuple(
            tuple(a ** self.exponents[i] if i == j else linalg.ZERO for j in range(m))
            for i in range(m)
        )


@dataclass(frozen=True)
class Cocharacter:
    """A conjugated torus cocharacter g . lambda_d . g^{-1}.

    The base is checked and inverted once, and kept as its checked pair
    (``GroupSpec._checked_pair``).
    """

    base: Mat
    torus: TorusCocharacter
    _frame: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        base = linalg.mat(self.base)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "_frame", self.group._checked_pair(base, "cocharacter base"))

    @property
    def group(self) -> GroupSpec:
        return self.torus.group

    @property
    def base_inverse(self) -> Mat:
        return self._frame[1].fractions()

    @property
    def is_zero(self) -> bool:
        return self.torus.is_zero

    @staticmethod
    def standard(group: GroupSpec, exponents) -> "Cocharacter":
        return Cocharacter._on_frame(group, *_identity_frame(group.dimension), exponents)

    @staticmethod
    def based(group: GroupSpec, base, exponents) -> "Cocharacter":
        return Cocharacter(linalg.mat(base), TorusCocharacter(group, tuple(exponents)))

    @staticmethod
    def _on_frame(group: GroupSpec, frame: Mat, pair: tuple, exponents) -> "Cocharacter":
        """``based`` on a frame given with its checked pair."""
        return Cocharacter._held(frame, pair, TorusCocharacter(group, tuple(exponents)))

    @staticmethod
    def _held(frame: Mat, pair: tuple, torus: TorusCocharacter) -> "Cocharacter":
        """The cocharacter of a torus cocharacter on a frame given with its
        checked pair; nothing is checked again."""
        lam = object.__new__(Cocharacter)
        vars(lam).update(base=frame, torus=torus, _frame=pair)
        return lam

    def conjugated_by(self, g: Mat) -> "Cocharacter":
        """The cocharacter g . self (left action on one-parameter subgroups),
        on the frame g . base: g is checked and inverted once, and the
        frame's pair is (g base, base^-1 g^-1)."""
        return self._conjugated_by_pair(self.group._checked_pair(linalg.mat(g), "conjugator"))

    def _conjugated_by_pair(self, pair: tuple) -> "Cocharacter":
        """``conjugated_by`` for a conjugator given by its checked pair
        (``GroupSpec._checked_pair``), which is not checked again."""
        base, inverse = self._frame
        frame = (pair[0] @ base, inverse @ pair[1])
        return Cocharacter._on_frame(self.group, frame[0].fractions(), frame, self.torus.exponents)

    def evaluate(self, a) -> Mat:
        return self._from_frame(linalg._Scaled.of(self.torus.evaluate(a)))

    def _to_frame(self, g: Mat) -> linalg._Scaled:
        """base^-1 g base: g moved into the frame of the base, as a scaled
        value."""
        base, inverse = self._frame
        return inverse @ linalg._Scaled.of(g) @ base

    def _from_frame(self, x: linalg._Scaled) -> Mat:
        """base x base^-1: a scaled value x moved out of the frame of the
        base."""
        base, inverse = self._frame
        return (base @ x @ inverse).fractions()


@dataclass(frozen=True)
class Norm:
    """An invariant norm: an integer Gram matrix on the exponent lattice.

    The Gram matrix must be symmetric positive definite and invariant under
    all coordinate permutations inside factor blocks, so the induced norm is
    Weyl-invariant and extends to a conjugation-invariant norm on all
    cocharacters (the norm of a based cocharacter reads off its torus part).
    """

    gram: Mat
    _int_gram: tuple = field(init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        # agrees with equality: equal Grams have equal integer Grams, and
        # an int hashes as the equal Fraction does
        return hash(self._int_gram)

    def __post_init__(self):
        g = linalg.mat(self.gram)
        object.__setattr__(self, "gram", g)
        if any(len(row) != len(g) for row in g):
            raise DimensionError("Gram matrix must be square")
        if any(x.denominator != 1 for row in g for x in row):
            raise DomainError("Gram matrix must be integer-valued")
        object.__setattr__(self, "_int_gram", tuple(tuple(map(int, row)) for row in g))
        if not linalg.is_symmetric(g):
            raise DomainError("Gram matrix must be symmetric")
        if not linalg.is_positive_definite(g):
            raise DomainError("Gram matrix must be positive definite")

    @staticmethod
    def standard(m: int) -> "Norm":
        return Norm(linalg.identity(m))

    def check_invariance(self, group: GroupSpec) -> None:
        """Reject Gram matrices moved by an in-block transposition.  These
        generate each block's permutations, so the Gram is invariant exactly
        when G_ij depends only on the block of i, the block of j and whether
        i = j."""
        if len(self.gram) != group.dimension:
            raise DimensionError("Gram matrix size must equal the matrix dimension")
        blocks, orbit = group._block_indices, {}
        for i, row in enumerate(self._int_gram):
            for j, x in enumerate(row):
                if orbit.setdefault((blocks[i], blocks[j], i == j), x) != x:
                    raise DomainError("Gram matrix is not invariant under block permutations")

    # The inverse below is computed once per instance and kept in its
    # __dict__, outside the dataclass fields, so equality, hash and repr do
    # not see it; ``__getstate__`` leaves it out of pickles.

    @functools.cached_property
    def _inverse(self) -> linalg._Scaled:
        """G^-1 as an integer matrix over a positive scale, which the QP
        kernel reads (``instability._kkt_solve``)."""
        return linalg._Scaled(self._int_gram, 1).inverse()[0]

    __getstate__ = _field_state

    def value_sq(self, d: tuple[int, ...]) -> Fraction:
        """d^T G d, summed in integers since G is integer-valued."""
        if len(d) != len(self._int_gram):
            raise linalg.DimensionMismatch(len(self._int_gram), len(d))
        return Fraction(self._int_value_sq(d))

    def _int_value_sq(self, d: tuple[int, ...]) -> int:
        """``value_sq`` of an integer vector of the right length, as an int."""
        return sum(x * sum(map(operator.mul, row, d)) for x, row in zip(d, self._int_gram) if x)


def pairing(lam: TorusCocharacter, chi: Character) -> int:
    """Integer pairing <lambda, chi> = sum_i d_i chi_i."""
    return pairing_vec(lam.exponents, chi)


def pairing_vec(exponents, chi: Character) -> int:
    if len(exponents) != len(chi.weights):
        raise DimensionError("cocharacter and character lengths differ")
    return sum(d * w for d, w in zip(exponents, chi.weights))


def norm_sq(lam: TorusCocharacter | Cocharacter) -> Fraction:
    """Squared norm; depends only on the torus part by construction."""
    torus = lam.torus if isinstance(lam, Cocharacter) else lam
    return torus.group.norm.value_sq(torus.exponents)


def fold_permutation_base(lam: Cocharacter) -> Cocharacter:
    """Rewrite a cocharacter with a signed-permutation base in standard form.

    Conjugating a diagonal cocharacter by a signed permutation matrix just
    permutes the exponents, so the standard-torus representative is the
    canonical way to report it.  Other bases are returned unchanged.  On the
    held pair's rows, each column of a signed permutation has one nonzero entry, +-scale.
    """
    rows, scale = lam._frame[0]
    m = len(rows)
    perm = [0] * m
    for j, column in enumerate(zip(*rows)):
        nonzero = [i for i, x in enumerate(column) if x]
        if len(nonzero) != 1 or abs(column[nonzero[0]]) != scale:
            return lam
        perm[j] = nonzero[0]
    exps = [0] * m
    for j in range(m):
        exps[perm[j]] = lam.torus.exponents[j]
    return Cocharacter.standard(lam.group, exps)


def weyl_conjugate(w, lam: TorusCocharacter) -> TorusCocharacter:
    """Apply a block permutation: new exponents satisfy d'[w(i)] = d[i]."""
    perm = tuple(int(i) for i in w)
    m = len(lam.exponents)
    if sorted(perm) != list(range(m)):
        raise DomainError("w must be a permutation of 0..m-1")
    for i, p in enumerate(perm):
        if lam.group.block_of(i) != lam.group.block_of(p):
            raise DomainError("permutation crosses factor blocks")
    out = [0] * m
    for i, p in enumerate(perm):
        out[p] = lam.exponents[i]
    return TorusCocharacter(lam.group, tuple(out))
