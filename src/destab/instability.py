"""Uniform instability into a stable subvariety, and its exact optimizer.

The vanishing order of the orbit curve a -> lambda(a).x against S is read
off cancellation-free from the isotypic components of the generators of S:
each component transforms by a single character, so its curve value is a
single monomial in the parameter and orders are exact.  Consequently, for
a fixed torus frame the objective  min over components of <lambda, chi>
is a minimum of finitely many linear forms on the admissibility cone, and
maximizing it against the norm is an exact convex program over the
rationals: minimize the squared norm over the polyhedron where every
objective form is at least one.  Its minimizer is unique (the norm is
positive definite) and is found by an exact dual active-set method: one
KKT solve per step, with steps that grow with the number of forms tight at
the optimum rather than with the number of subsets of forms.  It runs on
integers end to end (``_min_qnorm``): the weights, the norm's inverse, the
minimizer, the multipliers and the step lengths; Fractions come back only
from the public wrapper ``min_qnorm_over_polyhedron``.

The built-in subvarieties, the zero locus and the identity tuple, are each
one G-fixed point p: 0, or (I, ..., I).  A frame's inverse moves x - p to
base^-1 . x - p, so the weights of S that survive at a point moved into a
frame are those of the coordinates where the moved point differs from p,
read on its integer coordinates (``_frame_forms``), and a point lies in S
when its coordinates are p's (``SubvarietySpec.contains_point``); no
polynomial is evaluated.  Both the
torus search and the value check that ``optimize`` runs on its optimum
(``vanishing_order``) read them so.  A custom subvariety, only
spot-checked for stability, composes its generators with each frame and
evaluates their isotypic components.

Weights are read as bits.  Each representation keeps its weight classes
(``_WeightClasses``), beside its act memo: its distinct weights in
first-seen order, class k read as bit 1 << k, with each coordinate's class
bit and the zero weight's bit.  A component weight of a custom subvariety
that is not a weight of the representation gets the next bit when first
seen, so no bit ever changes meaning.  A point in a frame is two class
masks, its support and its objective forms, and the points of a frame
merge into one pair by OR, the zero bit dropped from the support, which
bounds the admissibility cone (``_weight_sets``).  A torus optimum is a
function of that pair, and ``optimize`` solves each pair once per
representation: the result is kept on the representation, beside its
weight classes, and the QP gets the pair's weights decoded in class order.
The oracle sweep visits each distinct pair once per call and keeps
nothing: it reads the box vectors a chunk at a time, and each class's
pairings with a chunk are summed once from the chunk's coordinates
(``_oracle_best_value``).

Searching beyond one maximal torus uses a finite family of maximal tori,
one base frame each, and is never claimed complete; ``oracle_mode``
re-derives the optimum by brute force over an exponent box as an
independent check.

A configuration keeps one record per maximal torus (``_Torus``): its base
frame with the pair (base, base^-1) of scaled values, checked and inverted
once when given from outside (``GroupSpec._checked_pair``), in closed form
for the program's own (``SearchConfig._held``).  Both searches walk these
records; the optimizer, the value check and the closedness search move
points and tuples by the pairs, and the cocharacters they build hold them.
The closedness search reads each matrix of the tuple off the point's
integer coordinates and moves it into each torus by the record's
conjugation operator, built on first use.  Each cocharacter's entry
pattern is read off its exponent record (``parabolic._exponent_record``),
kept per group shape and box.  The entry pattern, the limit and the
conjugator equations u h = h' u are homogeneous in the pair (h, h') of one
generator, so the search reads the integer rows alone.
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import linalg
from .errors import (
    DimensionError,
    DomainError,
    InvariantViolation,
    LimitMembershipError,
    PreconditionError,
    UnsupportedError,
    UnsupportedRepresentationError,
)
from .groups import (
    Character,
    Cocharacter,
    GroupSpec,
    TorusCocharacter,
    _identity_frame,
    _shape,
    _shear_table_of,
    fold_permutation_base,
    norm_sq,
    pairing_vec,
)
from .linalg import ZERO, Mat, Vec, frac
from .parabolic import (
    MembershipClass,
    ParabolicDescriptor,
    _classify_member,
    _exponent_record,
    _limit_pattern,
    _radical_conjugator,
)
from .reps import ConjugationTuples, Point, Polynomial, Representation, _composed, _frame_ints, _point, _unflatten

# ---------------------------------------------------------------------------
# Subvarieties


class SubvarietyKind(enum.Enum):
    ZERO_LOCUS = "zero_locus"
    IDENTITY_TUPLE = "identity_tuple"
    CUSTOM = "custom"


@dataclass(frozen=True)
class SubvarietySpec:
    """A G-stable closed subvariety given by explicit polynomial generators."""

    kind: SubvarietyKind
    custom_generators: tuple[Polynomial, ...] = ()
    g_stable_asserted: bool = True

    @staticmethod
    def zero_locus() -> "SubvarietySpec":
        return SubvarietySpec(SubvarietyKind.ZERO_LOCUS)

    @staticmethod
    def identity_tuple() -> "SubvarietySpec":
        return SubvarietySpec(SubvarietyKind.IDENTITY_TUPLE)

    @staticmethod
    def custom(generators, g_stable_asserted: bool = False) -> "SubvarietySpec":
        gens = tuple(generators)
        if not gens:
            raise DomainError("a custom subvariety needs at least one generator")
        return SubvarietySpec(SubvarietyKind.CUSTOM, gens, g_stable_asserted)

    def generators(self, rep: Representation) -> tuple[Polynomial, ...]:
        cache = self.__dict__.setdefault("_gen_cache", {})
        if rep not in cache:
            cache[rep] = self._materialize(rep)
        return cache[rep]

    def _materialize(self, rep: Representation) -> tuple[Polynomial, ...]:
        p = self._fixed_point(rep)
        if p is not None:  # the coordinates of x - p
            return tuple(Polynomial.coordinate(rep, i) - Polynomial.constant(rep, c) for i, c in enumerate(p))
        for g in self.custom_generators:
            if g.rep != rep:
                raise DimensionError("custom generators are bound to a different representation")
        return self.custom_generators

    def _fixed_point(self, rep: Representation) -> tuple[int, ...] | None:
        """The coordinates of the one G-fixed point p that a built-in
        subvariety is: 0 for the zero locus, (I, ..., I) for the identity
        tuple.  None for a custom subvariety."""
        if self.kind is SubvarietyKind.CUSTOM:
            return None
        if self.kind is SubvarietyKind.ZERO_LOCUS:
            return (0,) * rep.dim
        if not isinstance(rep, ConjugationTuples):
            raise UnsupportedRepresentationError(
                "the identity-tuple subvariety needs a conjugation-tuple representation"
            )
        m = rep.m
        return tuple(int(i == j) for i in range(m) for j in range(m)) * rep.count

    def isotypic_data(
        self, rep: Representation, frame: Mat | None = None
    ) -> tuple[tuple[tuple[Character, Polynomial], ...], ...]:
        """Per generator, the weight components of the generator composed
        with the frame, or of the plain generator when the frame is None.

        Cached per representation and frame; on first computation the
        components are checked to sum back to the composed generator
        exactly.
        """
        cache = self.__dict__.setdefault("_iso_cache", {})
        key = (rep, frame)
        data = cache.get(key)
        if data is None:
            gens = self.generators(rep)
            if frame is not None and frame != rep.group.identity():
                gens = _composed(gens, linalg.mat(frame))
            parts_per_gen = []
            for composed in gens:
                parts = sorted(composed.isotypic().items(), key=lambda kv: kv[0].weights)
                total = Polynomial(rep, ())
                for _chi, part in parts:
                    total = total + part
                if total != composed:
                    raise InvariantViolation("isotypic components do not reconstruct the generator")
                parts_per_gen.append(tuple(parts))
            data = cache[key] = tuple(parts_per_gen)
        return data

    def contains_point(self, x: Point) -> bool:
        p = self._fixed_point(x.rep)
        if p is not None:
            return x.coords == p
        return all(g.evaluate(x) == 0 for g in self.generators(x.rep))

    def stable_under(self, g: Mat, rep: Representation) -> bool:
        """Spot check: composed generators stay in the linear span of the set."""
        gens = self.generators(rep)
        composed = _composed(gens, linalg.mat(g))
        monos = sorted({mono for f in (*gens, *composed) for mono, _ in f.terms})
        cols = {mono: k for k, mono in enumerate(monos)}

        def as_vector(f: Polynomial) -> Vec:
            v = [Fraction(0)] * len(cols)
            for mono, c in f.terms:
                v[cols[mono]] = c
            return tuple(v)

        echelon: list = []
        for f in gens:
            linalg.echelon_add(echelon, as_vector(f))
        return all(linalg.echelon_contains(echelon, as_vector(f)) for f in composed)


# ---------------------------------------------------------------------------
# Vanishing orders


@dataclass(frozen=True)
class VanishingOrder:
    """Order of tangency of the orbit curve with S; None encodes infinity."""

    finite: int | None

    @property
    def is_infinite(self) -> bool:
        return self.finite is None

    @property
    def is_positive(self) -> bool:
        return self.finite is None or self.finite > 0

    @staticmethod
    def infinite() -> "VanishingOrder":
        return VanishingOrder(None)


def admits_limit(x: Point, lam: Cocharacter) -> bool:
    return _admits(x.rep, _frame_ints(x, lam._frame)[0], lam.torus.exponents)


def _admits(rep: Representation, w, d) -> bool:
    """Whether a point with integer coordinates w in a cocharacter's frame
    has a limit along its exponents d: no weight of a nonzero coordinate
    pairs negatively with d."""
    return all(pairing_vec(d, chi) >= 0 for chi, c in zip(rep.weights, w) if c)


def admits_limit_set(points, lam: Cocharacter) -> bool:
    """True iff the limit exists for every point of the set."""
    return all(admits_limit(x, lam) for x in points)


def vanishing_order(x: Point, lam: Cocharacter, s: SubvarietySpec) -> VanishingOrder:
    """Exact order of the orbit curve of x against S along lambda.

    It is the least <lambda, chi> over the weights chi of the isotypic
    components of S's generators, composed with lambda's base, that do not
    vanish at x moved into the base's frame: the least pairing over the
    forms ``_frame_forms`` reads in that frame.  x is moved into the frame
    once, and both the limit check and the forms read its coordinates there.
    """
    ints = _frame_ints(x, lam._frame)
    d = lam.torus.exponents
    if not _admits(x.rep, ints[0], d):
        raise LimitMembershipError("the limit of x along lambda does not exist")
    if s.contains_point(x):
        return VanishingOrder.infinite()
    forms = _forms_reader(x.rep, s, lam._frame)(*ints)[1]
    if not forms:
        raise InvariantViolation("point outside S with identically vanishing generators")
    return VanishingOrder(min(pairing_vec(d, chi) for chi in _weight_classes(x.rep).decode(forms)))


# ---------------------------------------------------------------------------
# Exact convex kernels


def _kkt_solve(inverse, rows: list, top) -> tuple[list[int], list[int], int]:
    """(z, r, den) with q x + A^T y = top and A x = 0 for x = z/den and
    y = r/den, for q^-1 given as the integer matrix Qi over the scale s
    (``inverse``, None when q is singular) and the integer rows A.  The
    k x k Schur complement gives y: (A Qi A^T) y = A Qi top, and then
    x = Qi (top - A^T y) / s, so with y = y_num / y_den it returns
    z = Qi (y_den top - A^T y_num), r = s y_num and den = s y_den.  q is
    positive definite and the rows are independent, so the solution is
    unique; otherwise it raises.
    """
    if inverse is None:
        raise InvariantViolation("singular KKT system in the dual active-set solver")
    qi, s = inverse
    qt = [sum(map(operator.mul, row, top)) for row in qi]
    k = len(rows)
    qa = [[sum(map(operator.mul, row, a)) for row in qi] for a in rows]  # Qi a for each row a
    system = [[*(sum(map(operator.mul, a, w)) for w in qa), sum(map(operator.mul, a, qt))] for a in rows]
    solution = linalg._solve(system, k)
    # the reduced rows hold a pivot on each diagonal entry exactly when the
    # Schur complement is nonsingular
    if solution is None or not all(row[c] for c, row in enumerate(system)):
        raise InvariantViolation("singular KKT system in the dual active-set solver")
    y_num, y_den = solution
    z = [y_den * x for x in qt]
    for y, w in zip(y_num, qa):
        if y:
            z = [x - y * v for x, v in zip(z, w)]
    return z, [s * y for y in y_num], s * y_den


def _min_qnorm(inverse, n: int, rows, rhs, eqs) -> tuple[list[int], int] | None:
    """The minimizer dn / den in n unknowns of d^T q d over {g.d >= c,
    e.d = 0}, or None if the polyhedron is empty, for q^-1 as ``_kkt_solve``
    takes it, the integer rows g with integer right-hand sides c, and
    independent integer equality rows e: the integer kernel of
    ``min_qnorm_over_polyhedron``.  dn and den have no common factor, and
    den > 0."""
    active = list(eqs)
    n_eqs = len(active)
    act_idx: list[int] = []  # inequality index of active[n_eqs + k]
    # the multipliers of the active inequalities, then that of the row being
    # added, as integers over one denominator, all >= 0
    mult, m_den = [], 1
    dn, den = [0] * n, 1  # d = dn / den
    seen: set[frozenset[int]] = set()
    while True:
        slacks = [sum(map(operator.mul, g, dn)) - c * den for g, c in zip(rows, rhs)]
        p = min(range(len(rows)), key=slacks.__getitem__, default=None)  # the first minimum
        if p is None or slacks[p] >= 0:
            return dn, den
        g_p, c_p, slack = rows[p], rhs[p], slacks[p]  # the slack of p is slack / den
        mult.append(0)
        while True:
            z, r, z_den = _kkt_solve(inverse, active, g_p)
            r = r[n_eqs:]
            r.append(-z_den)  # p's multiplier grows by the step length
            # the step length is t = z_den a / b: the full step to
            # g_p.d = c_p, or the step where the first multiplier reaches
            # zero when that is shorter, the least mult_k / r_k over r_k > 0
            # with ties to the least inequality index
            drop = None
            for k, rk in enumerate(r):
                if rk > 0 and (drop is None or (mult[k] * r[drop], act_idx[k]) < (mult[drop] * rk, act_idx[drop])):
                    drop = k
            gz = sum(map(operator.mul, g_p, z))  # z^T q z / z_den > 0 when z is not 0
            full = any(z)
            if full:
                a, b = -slack, den * gz
                full = drop is None or a * m_den * r[drop] <= mult[drop] * b
            elif drop is None:
                return None
            if not full:
                a, b = mult[drop], m_den * r[drop]
            # d + t z / z_den and mult - t r / z_den, each over one
            # denominator and reduced
            dn = [x * b + a * y * den for x, y in zip(dn, z)]
            den *= b
            common = gcd(den, *dn)
            if common > 1:
                dn = [x // common for x in dn]
                den //= common
            mult = [x * b - a * y * m_den for x, y in zip(mult, r)]
            m_den *= b
            common = gcd(m_den, *mult)
            if common > 1:
                mult = [x // common for x in mult]
                m_den //= common
            if full:
                active.append(g_p)
                act_idx.append(p)
                key = frozenset(act_idx)
                if key in seen:
                    raise InvariantViolation("dual active-set solver revisited an active set")
                seen.add(key)
                break
            slack = sum(map(operator.mul, g_p, dn)) - c_p * den
            del active[n_eqs + drop], act_idx[drop], mult[drop]


def min_qnorm_over_polyhedron(
    q: Mat, ineqs: list[tuple[Vec, Fraction]], eqs: list[Vec]
) -> Vec | None:
    """Unique minimizer of d^T q d over {g.d >= c, e.d = 0}, or None if empty.

    Goldfarb-Idnani dual active-set method (Math. Programming 27, 1983) in
    exact arithmetic.  It starts at d = 0, the unconstrained minimizer (q is
    positive definite), with the equality rows active, and keeps d the
    minimizer over the affine set of the active rows with nonnegative
    multipliers on the active inequalities.  Each round adds the most
    violated inequality p: one KKT solve gives the primal direction z and
    the change r of the active multipliers, and the step either reaches
    g_p.d = c_p (full step: p becomes active) or stops where a multiplier
    reaches zero (partial step: that row is dropped and p is tried again).
    Ties go to the smallest index.  When p is a combination of the active
    rows and no multiplier can fall, no step can satisfy it and the
    polyhedron is empty.  Each full step strictly raises the dual
    objective, so no active set recurs after a full step; a recurrence is
    reported as an invariant violation rather than looping.

    This wrapper reads q and the rows [g | c] as integer rows over one
    scale each and hands them to the integer kernel ``_min_qnorm``, which
    the torus optimum calls directly.  The KKT step (``_kkt_solve``) solves
    only the k x k Schur complement of the k active rows, on q^-1 held as
    one integer matrix over a scale: a ``Norm`` keeps its own, built on
    first use, and this wrapper inverts q once per call.  d is an integer
    vector over one denominator, the multipliers integer numerators over
    another, reduced by their gcd, and the step lengths integer pairs,
    compared by cross-multiplication with positive denominators.  Scaling q
    or all the rows by a positive factor scales the steps, the multipliers
    and both sides of every comparison alike, so the same rows are added
    and dropped, ties included, and d takes the same values.
    """
    n = len(q)
    for g, _ in ineqs:
        if len(g) != n:
            raise linalg.DimensionMismatch(n, len(g))
    ineq_rows = linalg._Scaled.of(tuple((*g, c) for g, c in ineqs)).rows
    # independent equality rows, so every KKT matrix is nonsingular
    eq_rows = linalg._basis([linalg._integer_row(e) for e in eqs])
    solution = _min_qnorm(linalg._Scaled.of(q).inverse()[0], n, [w[:n] for w in ineq_rows], [w[n] for w in ineq_rows], eq_rows)
    if solution is None:
        return None
    dn, den = solution
    return tuple(Fraction(x, den) if x else ZERO for x in dn)


def nearest_point_interior(points, gram: Mat | None = None) -> Vec:
    """The unique gram-nearest point of the convex hull to the origin.

    By duality it is d / (d^T q d) for the minimizer d of d^T q d over
    {(q p_i).d >= 1}; when that polyhedron is empty, the origin lies in the
    hull (Gordan's theorem) and is the answer.
    """
    pts = [linalg.vec(p) for p in points]
    if not pts:
        raise PreconditionError("need at least one point")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise DimensionError("points must share a dimension")
    if gram is None:
        q = linalg.identity(n)
    else:
        if len(gram) != n or any(len(row) != n for row in gram):
            raise DimensionError("Gram matrix size must equal the points' dimension")
        q = linalg.mat(gram)
        if not linalg.is_symmetric(q):
            raise DomainError("Gram matrix must be symmetric")
        if not linalg.is_positive_definite(q):
            raise DomainError("Gram matrix must be positive definite")
    # q = Q / s and p_i = P_i / u, so (q p_i).d >= 1 is (Q P_i).d >= s u
    scaled = linalg._Scaled.of(q)
    (qs, s), (ps, u) = scaled, linalg._Scaled.of(pts)
    rows = [[sum(map(operator.mul, row, p)) for row in qs] for p in ps]
    solution = _min_qnorm(scaled.inverse()[0], n, rows, [s * u] * len(rows), ())
    if solution is None:
        return (Fraction(0),) * n
    # d = dn / den, so d / (d^T q d) = dn s den / (dn^T Q dn)
    dn, den = solution
    value = sum(x * sum(map(operator.mul, row, dn)) for x, row in zip(dn, qs))
    return tuple(Fraction(x * s * den, value) for x in dn)


# ---------------------------------------------------------------------------
# Torus optimization


@dataclass(frozen=True)
class TorusOptimum:
    """A torus-frame optimum; zero exponents with value None is the trivial class."""

    exponents: tuple[int, ...]
    value_sq: Fraction | None
    active_objective: tuple[Character, ...]
    active_cone: tuple[Character, ...]

    @property
    def trivial(self) -> bool:
        return self.value_sq is None


class _WeightClasses:
    """The weight classes of a representation: its distinct weights in
    first-seen order, class k read as bit 1 << k (``characters``), each
    coordinate's class bit (``coordinate_bits``), and the zero weight's
    bit, 0 when the zero weight is not a weight of the representation
    (``zero``).  ``bit`` gives a weight's bit; a weight not seen before, a
    component weight of a custom subvariety that is not a weight of the
    representation, gets the next one, so a bit never changes meaning and
    masks kept from earlier calls stay valid."""

    def __init__(self, rep: Representation):
        self.characters: list[Character] = []
        self._bit_of: dict = {}
        self.coordinate_bits = tuple(map(self.bit, rep.weights))
        self.zero = self._bit_of.get(Character((0,) * rep.group.dimension), 0)

    def bit(self, chi: Character) -> int:
        b = self._bit_of.get(chi)
        if b is None:
            # append, then read the first index: two threads that add one
            # weight agree on its bit, and two weights never share one
            self.characters.append(chi)
            b = self._bit_of.setdefault(chi, 1 << self.characters.index(chi))
        return b

    def decode(self, mask: int) -> tuple[Character, ...]:
        """The weights of the classes set in a mask, in class order."""
        return tuple(self.characters[k] for k in _bits(mask))


def _weight_classes(rep: Representation) -> _WeightClasses:
    """The representation's ``_WeightClasses``, built on first use and kept
    in its __dict__ beside its act memo, out of equality, hash, repr and
    pickles."""
    classes = rep.__dict__.get("_weight_classes")
    if classes is None:
        classes = rep.__dict__.setdefault("_weight_classes", _WeightClasses(rep))
    return classes


def _mask(bits) -> int:
    """The OR of the bits."""
    return functools.reduce(operator.or_, bits, 0)


def _bits(mask: int) -> list[int]:
    """The indices k of the bits 1 << k set in a mask, in order."""
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def _frame_forms(points, s: SubvarietySpec, frame: tuple | None) -> list[tuple[int, int]]:
    """Per point moved into the frame of a checked pair (base, base^-1), or
    left in the standard frame when it is None, two class masks of the
    representation's ``_WeightClasses``: that of its support weights, and
    that of the weights of the isotypic components of S's generators that
    do not vanish on it.

    A built-in subvariety is one G-fixed point p (``_fixed_point``), and
    its generators are the coordinates of x - p, each a single isotypic
    component with the weight of its coordinate.  Since base^-1 fixes p,
    the moved point minus p is base^-1 . (x - p), so the forms are the
    class bits of the integer coordinates c of the moved point
    (``_frame_ints``) with c != p_i times their scale, with no point built
    and no polynomial evaluated; for the zero locus they are the support.
    A custom subvariety is only spot-checked for stability, so its
    generators are composed with each frame and their components evaluated
    at the moved point.
    """
    forms = _forms_reader(points[0].rep, s, frame)
    return [forms(*_frame_ints(x, frame)) for x in points]


def _forms_reader(rep: Representation, s: SubvarietySpec, frame: tuple | None):
    """The function that takes the integer coordinates w over u of a point
    moved into the frame to its two ``_frame_forms`` masks."""
    classes = _weight_classes(rep)
    bits = classes.coordinate_bits
    p = s._fixed_point(rep)
    if p is None:
        iso = s.isotypic_data(rep, None if frame is None else frame[0].fractions())

    def forms(w, u) -> tuple[int, int]:
        support = _mask(itertools.compress(bits, w))
        if p is None:
            moved = _point(rep, w, u)
            return support, _mask(classes.bit(chi) for parts in iso for chi, component in parts if component.evaluate(moved) != 0)
        if any(p):
            return support, _mask(itertools.compress(bits, [c - pc * u for c, pc in zip(w, p)]))
        return support, support

    return forms


def _weight_sets(per_point, zero: int) -> tuple[int, int]:
    """The ``_frame_forms`` of the points in one frame merged: the mask of
    the nonzero support weights, which bound the admissibility cone, with
    the zero weight's bit ``zero`` dropped, and the mask of the objective
    forms."""
    cone = forms = 0
    for support, point_forms in per_point:
        cone |= support
        forms |= point_forms
    return cone & ~zero, forms


def optimize_torus(points, s: SubvarietySpec, frame: Mat | None = None) -> TorusOptimum | None:
    """Exact maximizer of (min objective pairing) / norm within one torus.

    Returns None when no cocharacter of this torus frame moves every point
    into S, i.e. the maximum is not strictly positive.  When the whole set
    already lies in S the trivial optimum (zero cocharacter) is returned
    with value None by ``optimize``; this function reports it as None too
    since no direction is strictly positive.
    """
    points = list(points)
    if not points:
        raise PreconditionError("the point set must be nonempty")
    rep = points[0].rep
    pair = None if frame is None else rep.group._checked_pair(linalg.mat(frame), "acting element")
    classes = _weight_classes(rep)
    cone, objective = _weight_sets(_frame_forms(points, s, pair), classes.zero)
    return _torus_optimum(classes.decode(cone), classes.decode(objective), rep.group)


@functools.cache
def _sl_rows(factors: tuple) -> tuple[tuple[int, ...], ...]:
    """The indicator rows of the SL blocks of a group shape: e.d = 0 for
    each says that d sums to zero on its block.  The blocks are disjoint,
    so the rows are independent.  Kept per shape."""
    m = sum(f.rank for f in factors)
    return tuple(tuple(int(i in block) for i in range(m)) for f, block in zip(factors, _shape(factors)[0]) if f.family == "SL")


def _torus_optimum(cone, objective, group: GroupSpec) -> TorusOptimum | None:
    """``optimize_torus`` on the weights of the points in one frame, the
    nonzero support weights and the objective forms (``_weight_sets``,
    decoded): a function of the two sets of weights and the group alone."""
    if not objective:  # every point already lies in S
        return TorusOptimum((0,) * group.dimension, None, (), ())
    if any(chi.is_zero() for chi in objective):
        return None
    bounds = [chi for chi in cone if chi not in objective]
    rows = [chi.weights for chi in (*objective, *bounds)]
    rhs = [1] * len(objective) + [0] * len(bounds)
    solution = _min_qnorm(group.norm._inverse, group.dimension, rows, rhs, _sl_rows(group.factors))
    if solution is None:
        return None
    dn = solution[0]  # the minimizer is dn / den with den > 0: its direction is dn's
    g = gcd(*dn)
    exps = tuple(x // g for x in dn)
    pairings = {chi: pairing_vec(exps, chi) for chi in objective}
    a = min(pairings.values())
    if a <= 0:
        raise InvariantViolation("optimizer produced a non-destabilizing direction")
    value_sq = Fraction(a * a) / group.norm.value_sq(exps)
    active_obj = tuple(sorted((c for c, p in pairings.items() if p == a), key=lambda c: c.weights))
    active_cone = tuple(
        sorted(
            (c for c in bounds if pairing_vec(exps, c) == 0),
            key=lambda c: c.weights,
        )
    )
    return TorusOptimum(exps, value_sq, active_obj, active_cone)


# ---------------------------------------------------------------------------
# Search configuration and global optimization


def _torus_key(frame: linalg._Scaled) -> frozenset:
    """The lines of the columns of an invertible frame, given by its scaled
    value, in integers: two frames span one maximal torus exactly when
    their keys are equal."""
    return frozenset(map(linalg._line, zip(*frame.rows)))


class _Torus:
    """One maximal torus f T f^-1 of a configuration, T the diagonal torus:
    the base frame f, its held pair (f, f^-1) of scaled values and its
    ``_torus_key``.  On first use it builds and keeps the operator h -> f^-1
    h f and, per coordinate bitmask, the span of f's columns there (``flag``).
    These depend on f alone, so configurations may share a record; none of
    their equality, hash, repr, echo or fingerprint reads them."""

    def __init__(self, frame: Mat, pair: tuple):
        self.frame, self.pair = frame, pair
        self.key = _torus_key(pair[0])
        self._spaces: dict = {}  # coordinate bitmask -> its _column_space

    @functools.cached_property
    def operator(self) -> linalg._Conjugation:
        base, inverse = self.pair
        return linalg._conjugation_operator(inverse, base)

    def flag(self, levels: tuple[int, ...]) -> tuple:
        """The flag in the whole space of a cocharacter on this torus with
        level sets given as coordinate bitmasks (``_exponent_record``'s): for
        each distinct exponent c but the smallest, largest first, the span
        of the base columns i with d_i >= c; equal flags, one parabolic."""
        spaces = self._spaces
        return tuple([spaces[k] if k in spaces else spaces.setdefault(k, _column_space(self.pair[0], k)) for k in levels])


@functools.cache
def _default_tori(factors: tuple, values: tuple) -> tuple[_Torus, ...]:
    """``SearchConfig.default``'s records, built once per group shape and
    exact shear values: the identity, then per factor block its shears of
    the values, closed under negation on an SL block."""
    tori = [_Torus(*_identity_frame(sum(f.rank for f in factors)))]
    for b, f in enumerate(factors):
        closed = values + tuple(-c for c in values if -c not in values) if f.family == "SL" else values
        tori += [_Torus(g, pair) for g, pair, block in zip(*_shear_table_of(factors, closed)) if block == b]
    return tuple(tori)


@dataclass(frozen=True)
class SearchConfig:
    """Bounded search parameters: exponent box and conjugation family.

    The search runs torus by torus, as Kempf's optimum is taken: every
    cocharacter lies in a maximal torus, and a frame f spans the torus
    f T f^-1 of the diagonal torus T.  The family is kept as one base frame
    per maximal torus, the first frame of the given family that spans it,
    with its record (``_Torus``, in ``_tori``); the identity is put first
    when the family lacks it.  Another frame of a torus is f . P with P
    monomial, and admissibility, the weak orderings, the norm and the
    exponent box are all invariant under the permutation of coordinates P
    makes (``Norm.check_invariance``), so such a frame adds no cocharacter
    and no value that its base lacks.  Two invertible frames span one
    torus exactly when their ``_torus_key`` agree.  Every frame and every
    normalizer sample given to the constructor is checked to be in the
    group once, and each sample is kept as its checked pair too
    (``_samples``).  The program's own frames, the shears of ``default``
    and the products of held pairs the corpus builds, come with their
    inverses in closed form and are not checked again (``_held``).
    """

    group: GroupSpec
    exponent_box: int = 4
    conjugation_family: tuple[Mat, ...] = ()
    oracle_mode: bool = False
    normalizer_samples: tuple[Mat, ...] = ()
    _tori: tuple[_Torus, ...] = field(init=False, repr=False, compare=False)
    _samples: tuple[tuple, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check = self.group._checked_pair
        self._hold(
            (_Torus(g, check(g, "conjugation family element")) for g in map(linalg.mat, self.conjugation_family)),
            ((g, check(g, "normalizer sample")) for g in map(linalg.mat, self.normalizer_samples)),
        )

    @staticmethod
    def _held(group, exponent_box, family, oracle_mode=False, samples=()) -> "SearchConfig":
        """The configuration of ``_Torus`` records and (matrix, held pair)
        normalizer samples, which are not checked again."""
        cfg = object.__new__(SearchConfig)
        vars(cfg).update(group=group, exponent_box=exponent_box, oracle_mode=oracle_mode)
        cfg._hold(family, samples)
        return cfg

    def _hold(self, family, samples) -> None:
        """Keeps the first of the family's records per maximal torus, in
        first-seen order, the identity first when the family lacks it, and
        the samples; both are read after the exponent box is checked."""
        if self.exponent_box < 1:
            raise DomainError("exponent box must be >= 1")
        family = list(family)
        identity = _identity_frame(self.group.dimension)
        if identity[0] not in [t.frame for t in family]:
            family.insert(0, _Torus(*identity))
        first: dict = {}
        for t in family:
            first.setdefault(t.key, t)
        tori, samples = tuple(first.values()), tuple(samples)
        vars(self).update(conjugation_family=tuple(t.frame for t in tori), _tori=tori)
        vars(self).update(normalizer_samples=tuple(g for g, _ in samples), _samples=tuple(pair for _, pair in samples))

    @staticmethod
    def default(
        group: GroupSpec,
        exponent_box: int = 4,
        shear_values=(),
        oracle_mode: bool = False,
        normalizer_samples=(),
    ) -> "SearchConfig":
        """The standard torus, then its conjugates by the elementary shears
        I + c E_ij inside each factor block.

        These are the maximal tori of the Weyl representatives composed
        with those shears: w . sh spans the torus of w sh w^-1, which is
        again an elementary shear, with c negated when w negates a column,
        as odd Weyl representatives on SL do.  So a GL block takes the
        given values and an SL block those values closed under negation.
        The shears come with their held pairs in closed form, and their
        records are built once per group shape and values
        (``_default_tori``); only the normalizer samples are checked.
        """
        tori = _default_tori(group.factors, tuple(map(frac, shear_values)))
        samples = ((g, group._checked_pair(g, "normalizer sample")) for g in map(linalg.mat, normalizer_samples))
        return SearchConfig._held(group, exponent_box, tori, oracle_mode, samples)


@dataclass(frozen=True)
class FrameOutcome:
    frame_index: int
    exponents: tuple[int, ...] | None
    value_sq: Fraction | None


@dataclass(frozen=True)
class SearchCertificate:
    """Search trace: what was examined and what was active at the optimum.

    The norm's Gram matrix is recorded because the optimum is only known
    to be well-defined relative to the configured norm.
    """

    frames: tuple[FrameOutcome, ...]
    active_objective: tuple[Character, ...]
    active_cone: tuple[Character, ...]
    oracle_value_sq: Fraction | None = None
    oracle_box: int | None = None
    norm_gram: Mat | None = None


OPTIMAL = "optimal"
TRIVIAL = "trivial"
NOT_WITNESSED = "uniformly-S-unstable-not-witnessed"


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of the bounded Kempf optimization.

    ``status`` is ``optimal`` (a strictly positive optimum was found),
    ``trivial`` (the whole set already lies in S: zero cocharacter, whole
    group), or ``uniformly-S-unstable-not-witnessed`` (the bounded search
    produced no destabilizing direction; this is a result, not an error).
    """

    status: str
    cocharacter: Cocharacter | None
    value_sq: Fraction | None
    parabolic: ParabolicDescriptor | None
    certificate: SearchCertificate
    global_verified: bool = False

    @property
    def witnessed(self) -> bool:
        return self.status == OPTIMAL


def _whole_group_descriptor(group: GroupSpec) -> ParabolicDescriptor:
    return ParabolicDescriptor.from_cocharacter(
        Cocharacter.standard(group, (0,) * group.dimension)
    )


def _check_custom_stability(s: SubvarietySpec, rep: Representation, cfg: SearchConfig) -> None:
    if s.kind is not SubvarietyKind.CUSTOM:
        return
    for g in cfg.conjugation_family:
        if not s.stable_under(g, rep):
            raise InvariantViolation(
                "custom subvariety generators are not span-stable under the "
                "conjugation family; the stability assertion looks wrong"
            )


def optimize(points, s: SubvarietySpec, cfg: SearchConfig) -> OptimizationResult:
    """Best torus optimum over the tori of the conjugation family, with
    runtime checks.

    Each torus contributes its exact optimum in its base frame, one
    ``FrameOutcome`` per torus.  The returned parabolic is asserted
    independent of which tied maximizer is canonicalized; every supplied
    normalizer sample that fixes the input is asserted to lie in it; and
    the reported value is recomputed from vanishing orders.  In oracle mode
    an exhaustive exponent-box sweep over every torus cross-checks the
    optimum and sets ``global_verified``; a sweep estimated above
    ``_ORACLE_SWEEP_LIMIT`` box vectors is refused before it starts.
    """
    points = tuple(points)
    if not points:
        raise PreconditionError("the point set must be nonempty")
    rep = points[0].rep
    if any(x.rep != rep for x in points):
        raise DimensionError("points must share one representation")
    if not s.g_stable_asserted:
        raise PreconditionError("the subvariety must be asserted G-stable")
    group = cfg.group
    if rep.group != group:
        raise DimensionError("configuration group differs from the representation group")
    if cfg.oracle_mode:
        _check_oracle_sweep(cfg)
    _check_custom_stability(s, rep, cfg)

    if all(s.contains_point(x) for x in points):
        zero = Cocharacter.standard(group, (0,) * group.dimension)
        cert = SearchCertificate((), (), (), norm_gram=group.norm.gram)
        return OptimizationResult(TRIVIAL, zero, None, _whole_group_descriptor(group), cert, cfg.oracle_mode)

    tori = cfg._tori
    classes = _weight_classes(rep)
    weight_sets = [_weight_sets(_frame_forms(points, s, t.pair), classes.zero) for t in tori]
    # one torus optimum per mask pair and representation
    memo = rep.__dict__.setdefault("_torus_memo", {})
    outcomes = []
    candidates = []
    for idx, key in enumerate(weight_sets):
        if key not in memo:
            memo[key] = _torus_optimum(*map(classes.decode, key), group)
        opt = memo[key]
        if opt is None or opt.trivial:
            outcomes.append(FrameOutcome(idx, None, None))
        else:
            outcomes.append(FrameOutcome(idx, opt.exponents, opt.value_sq))
            candidates.append((opt, idx))

    oracle_value, oracle_box = (None, None)
    if cfg.oracle_mode:
        oracle_value = _oracle_best_value(weight_sets, classes, group, cfg.exponent_box)
        oracle_box = cfg.exponent_box

    if not candidates:
        cert = SearchCertificate(tuple(outcomes), (), (), oracle_value, oracle_box, group.norm.gram)
        if oracle_value is not None:
            raise InvariantViolation("oracle found a destabilizing direction the optimizer missed")
        return OptimizationResult(NOT_WITNESSED, None, None, None, cert)

    best_value = max(opt.value_sq for opt, _ in candidates)
    ident = group.identity()
    tied = []
    for opt_c, idx in candidates:
        if opt_c.value_sq == best_value:
            lam_c = Cocharacter._on_frame(group, tori[idx].frame, tori[idx].pair, opt_c.exponents)
            tied.append((fold_permutation_base(lam_c), opt_c))
    # standard-torus representatives first, then lexicographically smallest
    # exponents, then family order
    tied.sort(key=lambda t: (t[0].base != ident, t[0].torus.exponents))
    lam, opt = tied[0]
    parabolic = ParabolicDescriptor.from_cocharacter(lam)
    for other_lam, _other_opt in tied[1:]:
        if ParabolicDescriptor.from_cocharacter(other_lam) != parabolic:
            raise InvariantViolation(
                "tied maximizers define different parabolic subgroups; "
                "the bounded search did not reach the true optimum"
            )

    orders = [vanishing_order(x, lam, s) for x in points]
    if not all(o.is_positive for o in orders):
        raise InvariantViolation("an optimal limit does not land in S")
    finite = [o.finite for o in orders if o.finite is not None]
    if finite:
        a = min(finite)
        recomputed = Fraction(a * a) / norm_sq(lam)
        if recomputed != best_value:
            raise InvariantViolation("value recomputation from vanishing orders disagrees")

    for g, pair in zip(cfg.normalizer_samples, cfg._samples):
        if not _fixes_input(g, pair, points, s):
            continue
        if _classify_member(pair[0], lam) is MembershipClass.NOT_IN_P:
            raise InvariantViolation(
                "a normalizer sample falls outside the optimal parabolic; "
                "the bounded search did not reach the true optimum"
            )

    global_verified = False
    if cfg.oracle_mode:
        if oracle_value is not None and oracle_value > best_value:
            raise InvariantViolation("oracle exceeded the exact torus optimum")
        global_verified = oracle_value == best_value

    cert = SearchCertificate(
        tuple(outcomes),
        opt.active_objective,
        opt.active_cone,
        oracle_value,
        oracle_box,
        group.norm.gram,
    )
    return OptimizationResult(OPTIMAL, lam, best_value, parabolic, cert, global_verified)


def _fixes_input(g: Mat, pair: tuple, points, s: SubvarietySpec) -> bool:
    """Whether the sample g, given with its checked pair, fixes the point
    set and, for a custom subvariety, S."""
    rep = points[0].rep
    if set(rep._act(pair, x) for x in points) != set(points):
        return False
    if s.kind is SubvarietyKind.CUSTOM and not s.stable_under(g, rep):
        return False
    return True


# The oracle sweep visits about tori * (2b+1)^m box vectors.  The largest
# oracle run of the tests, the demos and the benchmark documents estimates
# 2,401, far below this limit; a GL_3 sweep over the 970,299 vectors of box
# 49 takes about 1 s on a 2-vCPU machine, and the 64 million of box 200
# would take over a minute.
_ORACLE_SWEEP_LIMIT = 1_000_000
# The sweep reads the box vectors this many at a time, so what it holds
# does not grow with the box.
_ORACLE_CHUNK = 4096


def _check_oracle_sweep(cfg: SearchConfig) -> None:
    """Refuse an oracle sweep estimated above ``_ORACLE_SWEEP_LIMIT``."""
    tori = len(cfg.conjugation_family)
    estimate = tori * (2 * cfg.exponent_box + 1) ** cfg.group.dimension
    if estimate > _ORACLE_SWEEP_LIMIT:
        raise UnsupportedError(
            f"the oracle sweep would visit about {estimate} box vectors, {tori} tori times "
            f"(2 * {cfg.exponent_box} + 1) ** {cfg.group.dimension}; the limit is {_ORACLE_SWEEP_LIMIT}"
        )


def _oracle_best_value(weight_sets, classes: _WeightClasses, group: GroupSpec, box: int) -> Fraction | None:
    """Exhaustive maximum of a^2/|d|^2 over the box and the frames' mask
    pairs (``_weight_sets``), each distinct pair swept once.

    A box vector d admits every point's limit iff no nonzero support
    weight of any point pairs negatively with it, and a, the least pairing
    over each point's forms minimized over the points outside S, is the
    least pairing over the objective's classes.  A cone class that is also
    a form needs no check of its own, as pairing negatively there makes a
    negative; so the cone is read at its other classes, and only for a d
    that beats the best a^2/|d|^2 so far.  The vectors are read in chunks
    of ``_ORACLE_CHUNK``, and a class's pairings with a chunk are summed
    from the chunk's coordinate lists (``_combination``).
    """
    # an empty objective: every point is in S, of infinite order
    pairs = dict.fromkeys((cone & ~objective, objective) for cone, objective in weight_sets if objective)
    used = _mask(bounds | objective for bounds, objective in pairs)
    norm = group.norm._int_value_sq
    best_num, best_den = 0, 1  # the best a^2 / |d|^2 so far, 0 for none
    vectors = _box_vectors(group, box)
    while pairs and (chunk := list(itertools.islice(vectors, _ORACLE_CHUNK))):
        coordinates = list(zip(*chunk))
        pairings = {k: _combination(coordinates, classes.characters[k].weights) for k in _bits(used)}
        for bounds, objective in pairs:
            least = list(map(min, zip(*(pairings[k] for k in _bits(objective)))))
            bound_pairings = [pairings[k] for k in _bits(bounds)]
            for i in itertools.compress(itertools.count(), map(operator.lt, itertools.repeat(0), least)):
                a_sq, n = least[i] ** 2, norm(chunk[i])
                if a_sq * best_den > best_num * n and all(column[i] >= 0 for column in bound_pairings):
                    best_num, best_den = a_sq, n
    return Fraction(best_num, best_den) if best_num else None


def _combination(columns, w) -> list[int]:
    """The entrywise sum of w_j times the list columns[j]."""
    terms = [columns[j] if x == 1 else [x * y for y in columns[j]] for j, x in enumerate(w) if x]
    return functools.reduce(lambda a, b: list(map(operator.add, a, b)), terms, [0] * len(columns[0]))


def _box_vectors(group: GroupSpec, box: int):
    """Primitive integer exponent vectors in the box, SL sums zero, in
    lexicographic order: the product of the blocks' lexicographic lists,
    the first block's read as it is made, so that a one-block box is never
    held whole."""
    first, *others = (_block_vectors(f.family, len(b), box) for f, b in zip(group.factors, group.block_slices))
    tails = [sum(combo, ()) for combo in itertools.product(*others)]
    for head in first:
        for tail in tails:
            d = head + tail
            if gcd(*d) == 1:
                yield d


# ---------------------------------------------------------------------------
# Cocharacter-closedness (bounded semi-decision)


@dataclass(frozen=True)
class CocharClosedVerdict:
    """Outcome of the bounded closedness search.

    ``closed`` means closed-within-bound: every admissible cocharacter in
    the searched family admitted an exact radical conjugator.  A negative
    verdict carries a checkable witness.
    """

    closed: bool
    witness: Cocharacter | None
    witness_limit: tuple[Mat, ...] | None
    examined: tuple[Cocharacter, ...]
    box: int


def is_cochar_closed(v: Point, cfg: SearchConfig) -> CocharClosedVerdict:
    """Semi-decide closedness of the rational orbit of a matrix tuple.

    Enumerates cocharacters torus by torus, in each torus's base frame.
    Each torus is judged by one entry mask of the tuple moved into its
    base frame, bit i m + j set when entry (i, j) of some moved matrix is
    nonzero (``_torus_moves``): the cocharacters it admits, one per
    signature, and whether the limit along each moves the tuple are read
    off their exponent records (``_Representatives.admissible``).  A failed
    conjugator search is a sound witness: rational conjugacy of the limit
    would force a radical conjugator.  The moved matrices are built only
    for a torus that admits a cocharacter, and the limit only for a
    cocharacter whose conjugator system is solved.

    The conjugator system is solved in the base frame that already holds
    the tuple and its limit, once per flag of lambda in the whole space
    (``_Torus.flag``).  Whether the limit is R_u(P_lambda)(Q)-conjugate to the
    tuple depends on the parabolic alone: two cocharacters with one flag
    have one parabolic and interleave their levels alike, so their Levi
    subgroups are conjugate by some u0 in R_u(P)(Q), and u0 carries one
    limit onto the other (Borel, Linear Algebraic Groups, section 20).  A
    cocharacter whose flag already received a conjugator is only recorded
    in ``examined``.  The flag is taken in the whole space, not per factor:
    with an entry between two blocks, two cocharacters with the same
    per-factor flags may order the levels of the two blocks differently,
    and then their limits differ.  The search stops at its first failure,
    and a skipped cocharacter has a conjugator, so this changes neither
    the verdict nor ``examined``.

    What depends on the configuration alone is built once: each torus
    record's conjugation operator and flag spaces (``_Torus``), and the
    exponent records per group shape and box (``_Representatives``).  The
    examined cocharacters are built on the record's frame and held pair
    from the table's exponents, which are not checked again.  Nothing keyed
    by the input is kept between calls.
    """
    rep = v.rep
    if not isinstance(rep, ConjugationTuples):
        raise UnsupportedRepresentationError(
            "cocharacter-closedness needs a conjugation-tuple representation"
        )
    group = cfg.group
    if rep.group != group:
        raise DimensionError("configuration group differs from the representation group")
    table = _representatives(group.factors, cfg.exponent_box)
    examined: list[Cocharacter] = []
    solved: set = set()  # the flag of each cocharacter with a conjugator
    held: dict = {}  # exponents -> their torus cocharacter, shared by the tori
    for torus, flat, bits in _torus_moves(v, cfg):
        entries = table.admissible(bits)
        if not entries:
            continue
        moved = [linalg._Scaled(_unflatten(acc, group.dimension), s) for acc, s in flat]
        for d, _, greater, levels, free, index in entries:
            if d not in held:
                held[d] = TorusCocharacter._held(group, d)
            lam = Cocharacter._held(torus.frame, torus.pair, held[d])
            examined.append(lam)
            if not bits & greater:
                continue  # the limit is the tuple: the identity conjugator works
            key = torus.flag(levels)
            if key in solved:
                continue
            tmats = [t.rows for t in moved]
            limit_t = [_limit_pattern(h, d) for h in tmats]
            if _radical_conjugator(tmats, limit_t, lam, (free, index)) is None:
                # each limit on its moved matrix's scale, out of the frame
                limit_mats = tuple(lam._from_frame(t._replace(rows=h)) for t, h in zip(moved, limit_t))
                return CocharClosedVerdict(
                    False,
                    fold_permutation_base(lam),
                    limit_mats,
                    tuple(examined),
                    cfg.exponent_box,
                )
            solved.add(key)
    return CocharClosedVerdict(True, None, None, tuple(examined), cfg.exponent_box)


def _entry_pattern(mats) -> set[tuple[int, int]]:
    """Off-diagonal positions (i, j) where some matrix of the tuple is nonzero."""
    return {
        (i, j)
        for h in mats
        for i, row in enumerate(h)
        for j, x in enumerate(row)
        if i != j and x != 0
    }


def _torus_moves(v: Point, cfg: SearchConfig):
    """Per torus record, in order, the record, the point's tuple moved into
    its base frame, base^-1 h base for each matrix h, as the flat integer
    rows and scale of each matrix, and its entry mask: bit i m + j is set
    when entry (i, j) of some moved matrix is nonzero.

    Matrix t is read off the point's integer coordinates w over u
    (``Point._ints``) as w_t and u divided by gcd(u, w_t), the rows and
    scale that ``linalg._Scaled.of`` gives it.  The record's conjugation
    operator moves it in one pass over its nonzero entries, to the rows
    and scale of inverse @ h @ base.
    """
    w, u = v._ints
    n = cfg.group.dimension ** 2
    flat = []
    for t in range(0, len(w), n):
        block = w[t : t + n]
        g = gcd(u, *block)
        flat.append(([(kl, x // g) for kl, x in enumerate(block) if x], u // g))
    powers = [1 << k for k in range(n)]
    for torus in cfg._tori:
        moved = [(torus.operator.moved(terms), torus.operator.scale * s) for terms, s in flat]
        bits = 0
        for acc, _ in moved:
            bits |= sum(itertools.compress(powers, acc))
        yield torus, moved, bits


def _column_space(frame: linalg._Scaled, mask: int) -> tuple:
    """The span of the columns of a scaled frame at the set bits of mask,
    as its canonical basis (``linalg._basis``)."""
    return linalg._basis([[row[i] for row in frame.rows] for i in range(len(frame.rows)) if mask >> i & 1])


def admissible_exponents(group: GroupSpec, box: int, pattern) -> list[tuple[int, ...]]:
    """Primitive exponent vectors in the box admissible for a zero pattern,
    ``pattern`` holding pairs (i, j) that force d_i >= d_j: the exponents of
    the records ``_Representatives.admissible`` gives for the pattern's
    pairs as bits i m + j, in its order."""
    m = group.dimension
    bits = 0
    for i, j in pattern:
        bits |= 1 << (i * m + j)
    return [r[0] for r in _representatives(group.factors, box).admissible(bits)]


class _Representatives:
    """The exponent records of one group shape and box: ``record`` gives
    exponents d as (d, *``parabolic._exponent_record(d)``), built on first
    use and kept here, and ``records`` holds those of the combined block
    representatives, in order.  ``crossing`` holds the bits i m + j of the
    pairs between blocks."""

    def __init__(self, factors: tuple, box: int):
        self._factors, self._box = factors, box
        self._blocks = _shape(factors)[1]
        m = len(self._blocks)
        self.crossing = sum(1 << (i * m + j) for i in range(m) for j in range(m) if self._blocks[i] != self._blocks[j])
        self._records: dict = {}
        combos = itertools.product(*(_block_representatives(f.family, f.rank, box) for f in factors))
        self.records = tuple(self.record(sum(combo, ())) for combo in combos if any(map(any, combo)))

    def record(self, d: tuple[int, ...]) -> tuple:
        """(d, *``_exponent_record(d)``), kept per exponent vector."""
        record = self._records.get(d)
        if record is None:
            record = self._records[d] = (d, *_exponent_record(d, self._blocks))
        return record

    def admissible(self, bits: int) -> list[tuple]:
        """The records admissible for an entry mask, bit i m + j for entry
        (i, j); diagonal bits constrain nothing.

        Limits, radical membership and conjugator existence depend only on
        the weak ordering within each factor block and on which entries
        between two blocks have d_i = d_j, so one record per such signature
        loses nothing; all blocks constant and all such entries equal is
        skipped.  Without an entry between blocks each combination of block
        representatives (``records``) is its own signature, and those whose
        less mask the bits miss are kept.  With one, each block runs through
        its box vectors that keep its own entries, and the first of each
        signature is kept, made primitive.  Blocks combine in block order,
        the last varying fastest, each in lexicographic order of rank
        vectors."""
        if not bits & self.crossing:
            return [r for r in self.records if not r[1] & bits]
        m = len(self._blocks)
        pattern = [divmod(k, m) for k in range(m * m) if bits >> k & 1]
        crossing = [(i, j) for i, j in pattern if self._blocks[i] != self._blocks[j]]
        per_block, start = [], 0
        for b, f in enumerate(self._factors):
            local = [(i - start, j - start) for i, j in pattern if self._blocks[i] == self._blocks[j] == b]
            per_block.append([d for d in _block_vectors(f.family, f.rank, self._box) if all(d[i] >= d[j] for i, j in local)])
            start += f.rank
        out = {}
        for combo in itertools.product(*per_block):
            d = sum(combo, ())
            if any(d[i] < d[j] for i, j in crossing):
                continue
            key = (tuple(map(_ranks, combo)), tuple(d[i] == d[j] for i, j in crossing))
            if any(map(any, key[0])) or not all(key[1]):  # something moves
                out.setdefault(key, tuple(x // gcd(*d) for x in d))
        return [self.record(d) for d in out.values()]


@functools.cache
def _representatives(factors: tuple, box: int) -> _Representatives:
    return _Representatives(factors, box)


@functools.cache
def _block_representatives(family: str, m: int, box: int):
    """Per weak ordering of one block of size m, in lexicographic order of
    rank vectors (constant first, as zero), its representative in the box:
    its centred levels (GL) or m * level - total (SL), made primitive, and
    past the box the first primitive block vector in the box with that
    ordering, or none when the box has none."""
    out = []
    for ranks in _weak_orderings(m):
        k = max(ranks) + 1
        levels = [k - 1 - r for r in ranks]
        if family == "GL":
            d = [lv - (k - 1) // 2 for lv in levels]  # centred to fit a small box
        else:
            total = sum(levels)
            d = [m * lv - total for lv in levels]
        g = gcd(*d)
        if g > 1:
            d = [x // g for x in d]
        if any(abs(x) > box for x in d):
            d = _first_block_vectors(family, m, box).get(ranks, d)
        if all(abs(x) <= box for x in d):
            out.append(tuple(d))
    return tuple(out)


@functools.cache
def _first_block_vectors(family: str, m: int, box: int) -> dict:
    """The first primitive block vector in the box with each rank vector."""
    first: dict = {}
    for d in _block_vectors(family, m, box):
        if gcd(*d) == 1:
            first.setdefault(_ranks(d), d)
    return first


def _block_vectors(family: str, m: int, box: int):
    """Integer vectors of one block in the box, SL sums zero, in
    lexicographic order."""
    for d in itertools.product(range(-box, box + 1), repeat=m):
        if family == "GL" or sum(d) == 0:
            yield d


def _ranks(d) -> tuple[int, ...]:
    """The rank vector of the weak ordering of d, rank 0 the largest."""
    levels = sorted(set(d), reverse=True)
    return tuple(levels.index(x) for x in d)


def _weak_orderings(m: int):
    """Rank vectors (ranks 0..k-1, each used) of the weak orderings of m
    coordinates in lexicographic order, built coordinate by coordinate."""

    def extend(prefix: tuple[int, ...], used: frozenset[int]):
        if len(prefix) == m:
            yield prefix
            return
        for r in range(m):
            now = used | {r}
            # the ranks skipped so far must fit in the coordinates left
            if max(now) + 1 - len(now) <= m - 1 - len(prefix):
                yield from extend(prefix + (r,), now)

    return extend((), frozenset())
