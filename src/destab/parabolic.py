"""R-parabolic subgroups attached to cocharacters.

For a diagonal exponent vector d, conjugation by lambda(a) scales the
matrix entry (i, j) by a^(d_i - d_j), so membership in P_lambda, the Levi
L_lambda, and the unipotent radical R_u(P_lambda) are pure zero-pattern
conditions.  A based cocharacter is handled by moving the element into its
frame as a scaled value (``Cocharacter._to_frame``): the patterns are read
on its integer rows, with its scale as the unit on the diagonal.

A descriptor holds P_lambda as the RREF bases of its flags, of which it is
the stabilizer: conjugation moves the flags' integer rows, and membership
is conjugation that fixes them.

The conjugator solver exploits that u h u^{-1} = h' is equivalent to the
linear equation u h = h' u once u is constrained to the affine subspace
defining R_u(P_lambda) (identity on diagonal blocks, zero below them), so
existence over the rationals reduces to exact affine feasibility, solved
on integer rows (``linalg._solve``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import mul

from . import linalg
from .errors import (
    DimensionError,
    DomainError,
    InvariantViolation,
    PreconditionError,
    UnsupportedRepresentationError,
)
from .groups import Cocharacter, GroupSpec, pairing_vec
from .linalg import Mat
from .reps import ConjugationTuples, Point


class MembershipClass(enum.Enum):
    IN_RU = "InRu"
    IN_LEVI = "InL"
    IN_P_NOT_LEVI_NOT_RU = "InPnotLnotRu"
    NOT_IN_P = "NotInP"

    @property
    def in_parabolic(self) -> bool:
        return self is not MembershipClass.NOT_IN_P


def _classify_pattern(gt: Mat, d: tuple[int, ...], unit) -> MembershipClass:
    """Where gt, in the frame of d, sits relative to P_d, with ``unit`` the
    diagonal entry of the radical's elements: the scale for a group
    element's integer rows, 0 for a Lie element."""
    if _outside(gt, d):
        return MembershipClass.NOT_IN_P
    m = len(d)
    diag_part_is_unit = all(
        gt[i][j] == (unit if i == j else 0) for i in range(m) for j in range(m) if d[i] == d[j]
    )
    if diag_part_is_unit:
        return MembershipClass.IN_RU
    strictly_above = any(
        gt[i][j] != 0 for i in range(m) for j in range(m) if d[i] > d[j]
    )
    if not strictly_above:
        return MembershipClass.IN_LEVI
    return MembershipClass.IN_P_NOT_LEVI_NOT_RU


def _outside(gt: Mat, d: tuple[int, ...]) -> bool:
    """Whether gt, in the frame of d, has a nonzero entry (i, j) with
    d_i < d_j, where P_d has none."""
    m = len(d)
    return any(gt[i][j] != 0 for i in range(m) for j in range(m) if d[i] < d[j])


def classify(g: Mat, lam: Cocharacter) -> MembershipClass:
    """Where the group element sits relative to P_lambda.

    The identity is the single overlap of the radical and the Levi; it is
    reported as IN_RU so that conjugators returned by the solver always
    classify into the radical.
    """
    g = linalg.mat(g)
    lam.group.require_member(g)
    return _classify_member(linalg._Scaled.of(g), lam)


def _classify_member(g: linalg._Scaled, lam: Cocharacter) -> MembershipClass:
    """``classify`` for a member given by its scaled value, which is not
    checked again."""
    base, inverse = lam._frame
    gt = inverse @ g @ base
    return _classify_pattern(gt.rows, lam.torus.exponents, gt.scale)


def lie_classify(x: Mat, lam: Cocharacter) -> MembershipClass:
    """Lie algebra version: the limit must be 0 for the radical's algebra."""
    x = linalg.mat(x)
    _require_lie_element(lam.group, x)
    return _classify_pattern(lam._to_frame(x).rows, lam.torus.exponents, 0)


def _require_lie_element(group: GroupSpec, x: Mat) -> None:
    m = group.dimension
    if len(x) != m or any(len(r) != m for r in x):
        raise DimensionError("matrix size must equal the group dimension")
    blocks = group._blocks(x)
    if blocks is None:
        raise DomainError("Lie algebra elements are block-diagonal")
    for f, sub in zip(group.factors, blocks):
        if f.family == "SL" and sum(row[i] for i, row in enumerate(sub)) != 0:
            raise DomainError("SL factor requires trace zero")


def _limit_pattern(gt: Mat, d: tuple[int, ...]) -> Mat:
    """The entries of gt where d_i = d_j, the others the int 0, so integer
    rows stay integer."""
    m = len(gt)
    return tuple(tuple(gt[i][j] if d[i] == d[j] else 0 for j in range(m)) for i in range(m))


def _levi_projection(g, lam: Cocharacter, container: str):
    single = _looks_like_matrix(g)
    items = [linalg.mat(g)] if single else [linalg.mat(h) for h in g]
    d = lam.torus.exponents
    out = []
    for k, h in enumerate(items):
        ht = lam._to_frame(h)
        rows = ht.rows
        if _outside(rows, d):
            where = "element" if single else f"component {k}"
            raise PreconditionError(f"{where} is not in {container}")
        out.append(lam._from_frame(ht._replace(rows=_limit_pattern(rows, d))))
    return out[0] if single else tuple(out)


def c_lambda(g, lam: Cocharacter):
    """Limit projection onto the Levi; accepts one matrix or a sequence.

    Raises PreconditionError naming the offending component when some
    component lies outside P_lambda.
    """
    return _levi_projection(g, lam, "the parabolic subgroup")


def lie_c_lambda(x, lam: Cocharacter):
    """Limit projection for Lie algebra elements (single matrix or tuple)."""
    return _levi_projection(x, lam, "the parabolic's Lie algebra")


def _looks_like_matrix(g) -> bool:
    try:
        first = g[0]
    except (TypeError, KeyError, IndexError):
        return False
    try:
        first[0][0]
    except (TypeError, IndexError, KeyError):
        return True
    return False


# ---------------------------------------------------------------------------
# Canonical descriptors


@dataclass(frozen=True)
class ParabolicDescriptor:
    """Canonical form of P_lambda: one flag of subspaces per factor.

    Each flag entry is the reduced-row-echelon basis of the span of the
    base-transported coordinate vectors with exponent >= a cut value, so
    two cocharacters defining the same subgroup produce equal descriptors.
    The empty flag denotes the whole group.
    """

    group: GroupSpec
    flags: tuple[tuple[Mat, ...], ...]

    @staticmethod
    def from_cocharacter(lam: Cocharacter) -> "ParabolicDescriptor":
        """The flags of the base columns, each space the RREF
        (``linalg._rref``) of the integer columns of the cocharacter's
        scaled base, which span what its rational columns span."""
        group = lam.group
        d = lam.torus.exponents
        columns = tuple(zip(*lam._frame[0].rows))
        flags = []
        for block in group.block_slices:
            values = sorted({d[i] for i in block}, reverse=True)
            chain = []
            for cut in values[:-1]:  # the last cut spans the whole block
                chain.append(linalg._rref([list(columns[i]) for i in block if d[i] >= cut]))
            flags.append(tuple(chain))
        return ParabolicDescriptor(group, tuple(flags))

    @property
    def is_whole_group(self) -> bool:
        return all(not chain for chain in self.flags)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Block sizes per factor: dims of successive flag quotients."""
        out = []
        for chain, block in zip(self.flags, self.group.block_slices):
            dims = [len(space) for space in chain] + [len(block)]
            sizes = [dims[0]] + [dims[k] - dims[k - 1] for k in range(1, len(dims))]
            out.append(tuple(sizes))
        return tuple(out)

    def contains(self, g: Mat) -> bool:
        """Membership of a group element: P is the stabilizer of its flags,
        so g is in P exactly when it moves them to themselves."""
        return self.conjugated_by(g) == self

    def conjugated_by(self, g: Mat) -> "ParabolicDescriptor":
        return self._conjugated_by_pair(self.group._checked_pair(linalg.mat(g)))

    def _conjugated_by_pair(self, pair: tuple) -> "ParabolicDescriptor":
        """``conjugated_by`` for an element given by its checked pair
        (``GroupSpec._checked_pair``), which is not checked again: each
        space's rows, scaled to integers, are moved by g's integer rows and
        read by ``linalg._rref``."""
        g = pair[0].rows
        flags = tuple(
            tuple(linalg._rref([[sum(map(mul, row, w)) for row in g] for w in map(linalg._integer_row, space)]) for space in chain)
            for chain in self.flags
        )
        return ParabolicDescriptor(self.group, flags)


# ---------------------------------------------------------------------------
# Conjugators inside the unipotent radical


def _exponent_record(d, blocks) -> tuple:
    """The entry pattern of exponents d, given the block of each
    coordinate, as (less, greater, levels, free, index).

    less and greater hold the bits i m + j of the pairs with d_i < d_j,
    which lambda_d forbids, and of those with d_i > d_j, which its limit
    moves: a tuple whose nonzero entries, as such bits, share none with
    less admits the limit, and the limit is the tuple exactly when they
    share none with greater.  levels holds, for each distinct exponent c but
    the smallest, largest first, the coordinate bitmask of the i with
    d_i >= c.  free holds the radical positions, the entries (i, j), row by
    row, with d_i > d_j in one block, and index their ``_conjugator_index``.
    """
    m = len(d)
    less = greater = 0
    free = []
    for i, x in enumerate(d):
        for j, y in enumerate(d):
            if x < y:
                less |= 1 << (i * m + j)
            elif x > y:
                greater |= 1 << (i * m + j)
                if blocks[i] == blocks[j]:
                    free.append((i, j))
    levels = tuple(sum(1 << i for i, x in enumerate(d) if x >= c) for c in sorted(set(d), reverse=True)[:-1])
    return less, greater, levels, tuple(free), _conjugator_index(free)


def _radical_positions(lam: Cocharacter) -> tuple[tuple[int, int], ...]:
    """Entries (i, j), row by row, left free in R_u(P_lambda) in the standard
    frame (``_exponent_record``)."""
    return _exponent_record(lam.torus.exponents, lam.group._block_indices)[3]


def _conjugator_index(free) -> tuple[dict, dict]:
    """The free entries x_ab of u by row and by column: row a -> the
    (index k, column b) of each free x_ab in it, and column b -> (k, a)."""
    in_row: dict[int, list] = {}
    in_col: dict[int, list] = {}
    for k, (a, b) in enumerate(free):
        in_row.setdefault(a, []).append((k, b))
        in_col.setdefault(b, []).append((k, a))
    return in_row, in_col


def _conjugator_system(hs, hs_prime, free, index=None) -> tuple[list, list]:
    """Rows and right-hand sides of u h = h' u over the free entries of u.

    With u = 1 + sum x_ab E_ab, the coefficient of x_ab in (u h - h' u)_ij
    is [a = i] h_bj - [b = j] h'_ia and the constant term is h_ij - h'_ij,
    so equation (i, j) involves only the free entries in row i or column j,
    which ``index``, the ``_conjugator_index`` of free, lists (built here
    when not given).  Each row is given by its nonzero (index into free,
    coefficient) terms, as the integer elimination of ``linalg`` takes it;
    identically zero equations are dropped.
    """
    in_row, in_col = _conjugator_index(free) if index is None else index
    rows = []
    rhs = []
    for h, hp in zip(hs, hs_prime):
        m = len(h)
        for i in range(m):
            for j in range(m):
                terms = {k: h[b][j] for k, b in in_row.get(i, ())}
                for k, a in in_col.get(j, ()):
                    terms[k] = terms.get(k, 0) - hp[i][a]
                terms = [(k, c) for k, c in terms.items() if c]
                if terms or h[i][j] != hp[i][j]:
                    rows.append(terms)
                    rhs.append(hp[i][j] - h[i][j])
    return rows, rhs


def _radical_conjugator(hs, hs_prime, lam: Cocharacter, radical) -> linalg._Scaled | None:
    """In the frame of lambda: u in R_u(P_lambda)(Q) with u h = h' u for
    every pair of the two tuples, as a scaled value, or None.  Each pair
    (h, h') is given as integer rows over one common scale, which cancels
    in u h = h' u.  ``radical`` is the pair (free, index) of lambda's
    ``_exponent_record``.

    u's integer rows are the solution's integer entries over its
    denominator (``linalg._solve``), and both postconditions, the radical
    pattern (the scale on the diagonal) and every product equation, are
    re-checked exactly on them before u is handed out.
    """
    free, index = radical
    solution = linalg._solve_terms(*_conjugator_system(hs, hs_prime, free, index), len(free))
    if solution is None:
        return None
    z, scale = solution
    m = lam.group.dimension
    rows = [[scale if i == j else 0 for j in range(m)] for i in range(m)]
    for (i, j), x in zip(free, z):
        rows[i][j] = x
    u = linalg._Scaled(tuple(map(tuple, rows)), scale)
    if _classify_pattern(u.rows, lam.torus.exponents, scale) is not MembershipClass.IN_RU:
        raise InvariantViolation("solved conjugator is not in the unipotent radical")
    if not _intertwines(u, [linalg._Scaled(h, 1) for h in hs], [linalg._Scaled(h, 1) for h in hs_prime]):
        raise InvariantViolation("solved conjugator does not map v to v'")
    return u


def _intertwines(u: linalg._Scaled, hs, hs_prime) -> bool:
    """u h = h' u for every pair of scaled values, that is u h u^-1 = h'
    for invertible u."""
    return all(u @ h == hp @ u for h, hp in zip(hs, hs_prime))


def find_ru_conjugator(v: Point, v_prime: Point, lam: Cocharacter) -> Mat | None:
    """Exact u in R_u(P_lambda)(Q) with u . v = v', or None.

    Only conjugation-tuple representations are supported: there the
    relations u h_i = h_i' u are linear in the entries of u, and membership
    in the radical is an affine condition, so existence is an exact
    affine-linear feasibility question over the rationals.
    """
    rep = v.rep
    if not isinstance(rep, ConjugationTuples):
        raise UnsupportedRepresentationError(
            "conjugator solving needs a conjugation-tuple representation"
        )
    if v_prime.rep != rep:
        raise DimensionError("points must belong to the given representation")
    hs = rep.matrices(v)
    hs_prime = rep.matrices(v_prime)
    # each pair moved into the frame and put over one common scale, the
    # product of the two
    pairs = [(lam._to_frame(h), lam._to_frame(hp)) for h, hp in zip(hs, hs_prime)]
    ut = _radical_conjugator(
        [tuple(tuple(x * hp.scale for x in row) for row in h.rows) for h, hp in pairs],
        [tuple(tuple(x * h.scale for x in row) for row in hp.rows) for h, hp in pairs],
        lam,
        _exponent_record(lam.torus.exponents, lam.group._block_indices)[3:],
    )
    if ut is None:
        return None
    u = lam._from_frame(ut)

    # re-check both postconditions in the input coordinates
    if classify(u, lam) is not MembershipClass.IN_RU:
        raise InvariantViolation("solved conjugator is not in the unipotent radical")
    scaled = linalg._Scaled.of
    if not _intertwines(scaled(u), list(map(scaled, hs)), list(map(scaled, hs_prime))):
        raise InvariantViolation("solved conjugator does not map v to v'")
    return u


# ---------------------------------------------------------------------------
# Commuting pairs of cocharacters


def composition_threshold(rep, lam: Cocharacter, mu: Cocharacter) -> int:
    """Explicit t0 making t*lam + mu refine lam on the module's weights.

    For t >= t0 every weight with a nonzero lam-pairing keeps its sign
    under t*lam + mu, which is what the grading-inclusion statements need.
    """
    if lam.base != mu.base:
        raise PreconditionError("cocharacters must share a frame")
    dl = lam.torus.exponents
    dm = mu.torus.exponents
    pos = [abs(pairing_vec(dl, chi)) for chi in rep.weights if pairing_vec(dl, chi) != 0]
    if not pos:
        return 1
    min_pos = min(pos)
    max_mu = max(abs(pairing_vec(dm, chi)) for chi in rep.weights)
    return 1 + (max_mu + min_pos - 1) // min_pos


def combine(lam: Cocharacter, mu: Cocharacter, t: int) -> Cocharacter:
    """The cocharacter t*lam + mu for commuting (same-frame) inputs."""
    if lam.base != mu.base:
        raise PreconditionError("cocharacters must share a frame")
    torus = lam.torus.scaled(t) + mu.torus
    return Cocharacter._on_frame(lam.group, lam.base, lam._frame, torus.exponents)
