"""Complete reducibility of matrix subgroups and Lie subalgebras.

Two independent routes are provided and cross-validated on GL factors:
the enveloping-algebra semisimplicity oracle (characteristic zero: the
radical is the kernel of the trace form), and the bounded geometric
search for a destabilizing cocharacter whose limit admits no rational
radical conjugator.  Subgroups are presented by topological generators;
the generator tuple is a generic tuple, so it stands in for the subgroup
in all orbit computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import (
    DomainError,
    InvariantViolation,
    ModeError,
    PreconditionError,
    UnsupportedGroupError,
)
from .groups import Cocharacter, GroupSpec
from .instability import (
    OPTIMAL,
    OptimizationResult,
    SearchConfig,
    SubvarietySpec,
    _at_two,
    _frame_cocharacters,
    is_cochar_closed,
    optimize,
)
from .linalg import Mat, Vec
from .parabolic import (
    MembershipClass,
    ParabolicDescriptor,
    _limit_pattern,
    _require_lie_element,
    classify,
)
from .reps import ConjugationTuples, Point


@dataclass(frozen=True)
class SubgroupPresentation:
    """A subgroup given by a tuple of invertible rational generators."""

    group: GroupSpec
    generators: tuple[Mat, ...]

    def __post_init__(self):
        gens = tuple(linalg.mat(g) for g in self.generators)
        if not gens:
            raise DomainError("a subgroup presentation needs at least one generator")
        for g in gens:
            self.group.require_member(g, "generator")
        object.__setattr__(self, "generators", gens)

    @staticmethod
    def make(group: GroupSpec, generators) -> "SubgroupPresentation":
        return SubgroupPresentation(group, tuple(linalg.mat(g) for g in generators))

    def tuple_rep(self) -> ConjugationTuples:
        return ConjugationTuples(self.group, len(self.generators))

    def tuple_point(self) -> Point:
        return self.tuple_rep().point(self.generators)

    def is_trivial(self) -> bool:
        ident = self.group.identity()
        return all(g == ident for g in self.generators)


@dataclass(frozen=True)
class EnvelopingAlgebra:
    """Basis of the associative matrix algebra spanned by the subgroup."""

    group: GroupSpec
    basis: tuple[Mat, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def _echelon(self) -> list:
        cached = self.__dict__.get("_rows")
        if cached is None:
            cached = []
            for b in self.basis:
                _echelon_add(cached, _flatten(b))
            self.__dict__["_rows"] = cached
        return cached

    def contains(self, x: Mat) -> bool:
        return not any(_echelon_reduce(self._echelon(), _flatten(linalg.mat(x))))


def _flatten(x: Mat) -> Vec:
    return tuple(entry for row in x for entry in row)


def _unflatten(v: Vec, m: int) -> Mat:
    return tuple(tuple(v[i * m + j] for j in range(m)) for i in range(m))


def _echelon_reduce(echelon, v) -> list[Fraction]:
    """v reduced against sparse echelon rows (pivot, nonzero terms).

    Each row has a unit pivot and zeros at the pivots of the rows before
    it, so reducing against the rows in order leaves zero exactly when v
    lies in their span.
    """
    w = list(v)
    for pivot, terms in echelon:
        f = w[pivot]
        if f:
            for j, y in terms:
                w[j] -= f * y
    return w


def _echelon_add(echelon, v) -> bool:
    """Append the reduced v as a new row unless it lies in the span."""
    w = _echelon_reduce(echelon, v)
    pivot = next((j for j, c in enumerate(w) if c), None)
    if pivot is None:
        return False
    scale = 1 / w[pivot]
    echelon.append((pivot, [(j, c * scale) for j, c in enumerate(w) if c]))
    return True


def _span_closure(group: GroupSpec, seeds: list[Mat], multipliers: list[Mat]) -> tuple[Mat, ...]:
    """Smallest span containing seeds and closed under right multiplication.

    The accepted matrices are kept as sparse echelon rows of their
    flattened entries, so each candidate costs one reduction.
    """
    echelon: list[tuple[int, list[tuple[int, Fraction]]]] = []
    basis_mats: list[Mat] = []

    def try_add(x: Mat) -> bool:
        if not _echelon_add(echelon, _flatten(x)):
            return False
        basis_mats.append(x)
        return True

    for s in seeds:
        try_add(s)
    frontier = list(basis_mats)
    while frontier:
        fresh = []
        for b in frontier:
            for g in multipliers:
                candidate = linalg.mat_mul(b, g)
                if try_add(candidate):
                    fresh.append(candidate)
        frontier = fresh
    return tuple(basis_mats)


def enveloping_algebra(h: SubgroupPresentation) -> EnvelopingAlgebra:
    """Span closure of words in the generators, seeded with the identity.

    Each round strictly increases the dimension (bounded by m^2), so the
    closure terminates; inverses land in the algebra automatically because
    the minimal polynomial of an invertible matrix has nonzero constant
    term.  Closure is checked on all n^2 products of basis elements, each
    reduced against the algebra's echelon rows.
    """
    algebra = algebra_of_tuple(h.group, h.generators)
    for x in algebra.basis:
        for y in algebra.basis:
            if not algebra.contains(linalg.mat_mul(x, y)):
                raise InvariantViolation("algebra basis is not multiplicatively closed")
    return algebra


def algebra_of_tuple(group: GroupSpec, mats) -> EnvelopingAlgebra:
    """Associative algebra generated by a tuple, seeded with the identity."""
    basis = _span_closure(group, [group.identity()], [linalg.mat(x) for x in mats])
    return EnvelopingAlgebra(group, basis)


def is_generic_tuple(tup, h: SubgroupPresentation) -> bool:
    """Does the tuple generate the full enveloping algebra of the subgroup?"""
    mats = [linalg.mat(x) for x in tup]
    ambient = enveloping_algebra(h)
    for x in mats:
        if not ambient.contains(x):
            raise PreconditionError("tuple component lies outside the subgroup's algebra")
    return algebra_of_tuple(h.group, mats).dimension == ambient.dimension


def radical_dim(a: EnvelopingAlgebra) -> int:
    """Dimension of the trace-form kernel, the radical in characteristic zero."""
    return len(radical_basis(a))


def radical_basis(a: EnvelopingAlgebra) -> tuple[Mat, ...]:
    n = a.dimension
    gram = [[None] * n for _ in range(n)]
    for i, x in enumerate(a.basis):
        for j in range(i, n):  # tr(xy) = tr(yx) = sum of x_kl y_lk
            y = a.basis[j]
            gram[i][j] = gram[j][i] = sum(
                (x[k][l] * y[l][k] for k in range(len(x)) for l in range(len(x)) if x[k][l] and y[l][k]),
                linalg.ZERO,
            )
    gram = tuple(map(tuple, gram))
    flat = tuple(_flatten(b) for b in a.basis)
    combos = linalg.mat_mul(linalg.nullspace(gram, n), flat)
    return tuple(_unflatten(v, a.group.dimension) for v in combos)


COMPLETELY_REDUCIBLE = "completely_reducible"
NOT_COMPLETELY_REDUCIBLE = "not_completely_reducible"


@dataclass(frozen=True)
class GcrVerdict:
    """Verdict with a checkable witness on the negative side.

    ``witness_cocharacter`` destabilizes with no rational radical
    conjugator; ``witness_radical`` spans the algebra radical.  Bounded
    verdicts record the search box, the tuple length, and the norm they
    are relative to (independence from those choices is not assumed).
    """

    status: str
    witness_cocharacter: Cocharacter | None = None
    witness_radical: tuple[Mat, ...] | None = None
    bounded_box: int | None = None
    examined: tuple[Cocharacter, ...] = ()
    tuple_length: int | None = None
    norm_gram: Mat | None = None

    @property
    def is_completely_reducible(self) -> bool:
        return self.status == COMPLETELY_REDUCIBLE


def is_gcr_algebra(h: SubgroupPresentation) -> GcrVerdict:
    """Semisimplicity oracle on a single GL factor, characteristic zero."""
    if len(h.group.factors) != 1 or h.group.factors[0].family != "GL":
        raise UnsupportedGroupError(
            "the algebra criterion applies to a single GL factor; use the search"
        )
    radical = radical_basis(enveloping_algebra(h))
    if not radical:
        return GcrVerdict(COMPLETELY_REDUCIBLE)
    return GcrVerdict(NOT_COMPLETELY_REDUCIBLE, witness_radical=radical)


def _search_verdict(point: Point, length: int, cfg: SearchConfig) -> GcrVerdict:
    verdict = is_cochar_closed(point, cfg)
    extras = {
        "bounded_box": verdict.box,
        "examined": verdict.examined,
        "tuple_length": length,
        "norm_gram": point.rep.group.norm.gram,
    }
    if verdict.closed:
        return GcrVerdict(COMPLETELY_REDUCIBLE, **extras)
    return GcrVerdict(
        NOT_COMPLETELY_REDUCIBLE, witness_cocharacter=verdict.witness, **extras
    )


def is_gcr_search(h: SubgroupPresentation, cfg: SearchConfig) -> GcrVerdict:
    """Bounded geometric criterion via closedness of the generator tuple orbit."""
    return _search_verdict(h.tuple_point(), len(h.generators), cfg)


def centralizer_dim(group: GroupSpec, mats) -> int:
    """Dimension of the centralizer of a tuple inside the group's Lie algebra.

    The commutation equations are linear; intersecting with the tangent
    constraints (block diagonality, trace zero on SL blocks) gives the
    group centralizer dimension because the invertible locus is dense.
    """
    mats = [linalg.mat(x) for x in mats]
    m = group.dimension
    rows: list[Vec] = []
    for h in mats:
        # (x h - h x)_{ij} = 0, unknowns x_{kl}
        for i in range(m):
            for j in range(m):
                row = [Fraction(0)] * (m * m)
                for k in range(m):
                    row[i * m + k] += h[k][j]
                    row[k * m + j] -= h[i][k]
                if any(row):
                    rows.append(tuple(row))
    for bi, block_i in enumerate(group.block_slices):
        for bj, block_j in enumerate(group.block_slices):
            if bi == bj:
                continue
            for i in block_i:
                for j in block_j:
                    row = [Fraction(0)] * (m * m)
                    row[i * m + j] = Fraction(1)
                    rows.append(tuple(row))
    for f, block in zip(group.factors, group.block_slices):
        if f.family == "SL":
            row = [Fraction(0)] * (m * m)
            for i in block:
                row[i * m + i] = Fraction(1)
            rows.append(tuple(row))
    return len(linalg.nullspace(tuple(rows), m * m))


def reduce_to_gcr(
    h: SubgroupPresentation, cfg: SearchConfig
) -> tuple[tuple[Cocharacter, ...], SubgroupPresentation]:
    """Greedy descent to a completely reducible quotient.

    Repeatedly finds a searched proper parabolic containing the current
    generators whose Levi projection strictly enlarges the centralizer (a
    projection with equal centralizer dimension is conjugate to the input
    and would only shuffle the presentation), and replaces the generators
    by that projection.  The quotient's conjugacy class is independent of
    the descent path when a genuinely minimal parabolic is reached; on a
    single GL factor the algebra oracle certifies the outcome.

    Each projection is taken in the frame that already holds the
    generators, and its centralizer dimension is measured there: the frame
    is a group element, and conjugating by one preserves that dimension.
    The projection depends on lambda alone, and lambda(2) determines
    lambda, so within one descent step a cocharacter met again in another
    frame is not measured again; only the accepted projection is moved back
    to input coordinates.  The walk and the accepted cocharacter are the
    same as projecting every entry in input coordinates.
    """
    group = h.group
    chain: list[Cocharacter] = []
    current = h
    current_dim = centralizer_dim(group, current.generators)
    max_dim = group.dimension ** 2
    while True:
        step = None
        measured: set[Mat] = set()  # lambda(2) of each projection measured in this step
        at_two: dict = {}
        for lam, tmats, torus_key in _frame_cocharacters(current.generators, cfg):
            limit_t = [_limit_pattern(h, lam.torus.exponents) for h in tmats]
            if limit_t == tmats:
                continue
            key = _at_two(at_two, lam, torus_key)
            if key in measured:
                continue
            measured.add(key)
            image_dim = centralizer_dim(group, limit_t)
            if image_dim > current_dim:
                step = (lam, limit_t, image_dim)
                break
        if step is None:
            break
        lam, limit_t, current_dim = step
        chain.append(lam)
        image = tuple(
            linalg.mat_mul(linalg.mat_mul(lam.base, h), lam.base_inverse) for h in limit_t
        )
        current = SubgroupPresentation(group, image)
        if len(chain) > max_dim:
            raise InvariantViolation("descent did not stabilize within the step bound")
    if len(group.factors) == 1 and group.factors[0].family == "GL":
        if not is_gcr_algebra(current).is_completely_reducible:
            raise InvariantViolation(
                "descent stalled on a non-semisimple quotient; enlarge the search family"
            )
    return tuple(chain), current


UNIPOTENT_IDENTITY = "unipotent_identity"


def _is_unipotent(group: GroupSpec, g: Mat) -> bool:
    m = group.dimension
    n = linalg.mat_sub(g, linalg.identity(m))
    power = n
    for _ in range(m - 1):
        power = linalg.mat_mul(power, n)
    return all(x == 0 for row in power for x in row)


def optimal_parabolic_subgroup(
    h: SubgroupPresentation,
    cfg: SearchConfig,
    mode: str = UNIPOTENT_IDENTITY,
    subvariety: SubvarietySpec | None = None,
) -> OptimizationResult:
    """Optimal destabilizing parabolic attached to a subgroup.

    In ``unipotent_identity`` mode all generators must be unipotent; the
    target is then the identity tuple, which is exact and automatic.  For
    any other quotient the caller must supply equations for a closed
    stable set containing the orbit closure of the quotient's tuples.
    """
    if mode == UNIPOTENT_IDENTITY:
        for k, g in enumerate(h.generators):
            if not _is_unipotent(h.group, g):
                raise ModeError(f"generator {k} is not unipotent")
        s = SubvarietySpec.identity_tuple()
    else:
        if subvariety is None:
            raise ModeError("custom mode needs an explicit subvariety")
        s = subvariety
    result = optimize([h.tuple_point()], s, cfg)
    if result.status == OPTIMAL:
        lam = result.cocharacter
        for k, g in enumerate(h.generators):
            cls = classify(g, lam)
            if cls is MembershipClass.NOT_IN_P:
                raise InvariantViolation(f"generator {k} escapes the optimal parabolic")
            if mode == UNIPOTENT_IDENTITY and cls is not MembershipClass.IN_RU:
                raise InvariantViolation(
                    f"generator {k} is not in the unipotent radical of the optimal parabolic"
                )
    return result


@dataclass(frozen=True)
class CentreSimplex:
    """The fixed centre: the simplex of the optimal destabilizing parabolic.

    ``parabolic`` is None exactly when the subgroup is completely reducible
    within the bound (no centre; the optimization is trivial or absent).
    """

    parabolic: ParabolicDescriptor | None
    cocharacter: Cocharacter | None
    blocks: tuple[tuple[int, ...], ...] | None
    stabilizing_samples: tuple[Mat, ...]

    @property
    def has_centre(self) -> bool:
        return self.parabolic is not None


def building_centre(
    h: SubgroupPresentation,
    cfg: SearchConfig,
    subvariety: SubvarietySpec | None = None,
) -> CentreSimplex:
    """Centre simplex fixed by everything stabilizing the fixed-point set.

    Unipotent generator sets are handled exactly; other subgroups need a
    user-supplied target subvariety for their reducible quotient.
    """
    all_unipotent = all(_is_unipotent(h.group, g) for g in h.generators)
    if not all_unipotent and subvariety is None:
        raise ModeError(
            "non-unipotent generators need a custom subvariety for the centre"
        )
    mode = UNIPOTENT_IDENTITY if all_unipotent else "custom"
    result = optimal_parabolic_subgroup(h, cfg, mode, subvariety)
    if result.status != OPTIMAL:
        return CentreSimplex(None, None, None, ())
    verified = []
    for g in cfg.normalizer_samples:
        conj = result.parabolic.conjugated_by(g)
        if conj == result.parabolic:
            verified.append(g)
    return CentreSimplex(
        result.parabolic, result.cocharacter, result.parabolic.blocks, tuple(verified)
    )


# ---------------------------------------------------------------------------
# Lie algebra counterparts


@dataclass(frozen=True)
class LieSubalgebra:
    """A Lie subalgebra given by a commutator-closed basis of matrices."""

    group: GroupSpec
    basis: tuple[Mat, ...]

    def __post_init__(self):
        basis = tuple(linalg.mat(x) for x in self.basis)
        if not basis:
            raise DomainError("a Lie subalgebra needs at least one basis element")
        object.__setattr__(self, "basis", basis)
        for x in basis:
            _require_lie_element(self.group, x)
        rows = linalg.row_space(tuple(_flatten(x) for x in basis))
        if len(rows) != len(basis):
            raise DomainError("basis elements are linearly dependent")
        for x in basis:
            for y in basis:
                bracket = linalg.mat_sub(linalg.mat_mul(x, y), linalg.mat_mul(y, x))
                if not linalg.in_row_space(_flatten(bracket), rows):
                    raise DomainError("basis is not closed under the commutator")

    def tuple_point(self) -> Point:
        rep = ConjugationTuples(self.group, len(self.basis))
        return rep.point(self.basis)


def lie_is_gcr(h: LieSubalgebra, cfg: SearchConfig) -> GcrVerdict:
    """Closedness of the adjoint orbit of the basis tuple, bounded search.

    The basis tuple generates the subalgebra, and limits in the adjoint
    module follow the same entry pattern as for group elements, so the
    group-side machinery applies verbatim; conjugator equations stay
    linear.
    """
    return _search_verdict(h.tuple_point(), len(h.basis), cfg)
