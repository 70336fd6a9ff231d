"""Complete reducibility of matrix subgroups and Lie subalgebras.

Two independent routes are provided and cross-validated.  The exact route
is the enveloping-algebra semisimplicity oracle: on a product of GL/SL
factors in characteristic zero, a subgroup is completely reducible exactly
when the module V is semisimple, that is when the radical J of the algebra
(the kernel of the trace form) is zero.  Otherwise the radical filtration
V > JV > J^2 V > ... gives a destabilizing cocharacter whose limit is
semisimple and admits no rational radical conjugator.  The bounded route
searches the configured tori for such a cocharacter.  Subgroups are
presented by topological generators; the generator tuple is a generic
tuple, so it stands in for the subgroup in all orbit computations.

The algebra route runs on integer rows: the span closure keeps its words
as scaled values, and its span tests, closure certificate and integer
trace form read their rows, whose lines a positive scale does not move.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import mul

from . import linalg
from .errors import DomainError, InvariantViolation, ModeError, PreconditionError
from .groups import SL, Cocharacter, GroupSpec, TorusCocharacter, _identity_frame, fold_permutation_base
from .instability import (
    OPTIMAL,
    OptimizationResult,
    SearchConfig,
    SubvarietySpec,
    is_cochar_closed,
    optimize,
)
from .linalg import Mat, Vec
from .parabolic import (
    MembershipClass,
    ParabolicDescriptor,
    _classify_member,
    _conjugator_system,
    _require_lie_element,
    c_lambda,
    classify,
)
from .reps import ConjugationTuples, Point, _flatten, _unflatten


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

    def tuple_rep(self) -> ConjugationTuples:
        return ConjugationTuples(self.group, len(self.generators))

    def tuple_point(self) -> Point:
        return self.tuple_rep().point(self.generators)


@dataclass(frozen=True)
class EnvelopingAlgebra:
    """Basis of the associative matrix algebra spanned by the subgroup."""

    group: GroupSpec
    basis: tuple[Mat, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @functools.cached_property
    def _echelon(self) -> list:
        echelon: list = []
        for b in self.basis:
            linalg.echelon_add(echelon, _flatten(b))
        return echelon

    @functools.cached_property
    def _scaled(self) -> tuple:
        return tuple(map(linalg._Scaled.of, self.basis))

    def contains(self, x: Mat) -> bool:
        return linalg.echelon_contains(self._echelon, _flatten(linalg.mat(x)))


def _span_closure(group: GroupSpec, seeds: list, steps: list) -> EnvelopingAlgebra:
    """Smallest span containing seeds and closed under right multiplication,
    as an algebra that keeps the echelon basis and the scaled words built
    here, taken breadth first.  Seeds are scaled values and multipliers
    their ``factor()``s, so each candidate costs one product on integer
    rows and one reduction of those rows.  A span of dimension m^2 is all
    of M_m, so the closure ends there.
    """
    echelon: list = []
    words: list = []

    def try_add(x) -> None:
        if linalg._echelon_append(echelon, _flatten(x.rows)):
            words.append(x)

    for seed in seeds:
        try_add(seed)
    for b, g in ((b, g) for b in words for g in steps):  # the words appended below join the queue
        if len(echelon) == group.dimension**2:
            break
        try_add(b.times(g))
    algebra = EnvelopingAlgebra(group, tuple(x.fractions() for x in words))
    # the cached properties, already built
    object.__setattr__(algebra, "_echelon", echelon)
    object.__setattr__(algebra, "_scaled", tuple(words))
    return algebra


def enveloping_algebra(h: SubgroupPresentation) -> EnvelopingAlgebra:
    """Span closure of words in the generators, seeded with the identity.

    Each round strictly increases the dimension (bounded by m^2), so the
    closure terminates; inverses land in the algebra automatically because
    the minimal polynomial of an invertible matrix has nonzero constant
    term.  Closure is certified on the n k products b g of a basis element
    and a generator: the first basis element is I, each later one equals
    an earlier one times a generator, and every b g lies in the span S.
    So S is spanned by words, and S g in S for every generator g gives
    S w in S for every word w, hence S S in S.  The products are taken on
    the algebra's scaled basis.  If S has dimension m^2, it is M_m and
    holds every b g, so the products stop once every word is matched.
    """
    gens = [linalg._Scaled.of(g).factor() for g in h.generators]
    algebra = _span_closure(h.group, [_identity_frame(h.group.dimension)[1][0]], gens)
    basis = algebra._scaled
    full = len(algebra._echelon) == h.group.dimension**2
    words = 1  # basis[:words] are checked to be words in the generators
    for k, b in enumerate(basis):
        if full and words == len(basis):
            break
        for g in gens:
            x = b.times(g)
            if k < words < len(basis) and x == basis[words]:
                words += 1
            elif not full and any(linalg.echelon_reduce(algebra._echelon, _flatten(x.rows))[0]):
                raise InvariantViolation("algebra basis is not multiplicatively closed")
    if algebra.basis[0] != h.group.identity() or words < len(basis):
        raise InvariantViolation("algebra basis is not spanned by words in the generators")
    return algebra


def algebra_of_tuple(group: GroupSpec, mats) -> EnvelopingAlgebra:
    """Associative algebra generated by a tuple, seeded with the identity."""
    steps = [linalg._Scaled.of(linalg.mat(x)).factor() for x in mats]
    return _span_closure(group, [_identity_frame(group.dimension)[1][0]], steps)


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
    return len(_radical(a))


def radical_basis(a: EnvelopingAlgebra) -> tuple[Mat, ...]:
    """The kernel of the trace form, one element per free Gram column."""
    return tuple(x.fractions() for x in _radical(a))


def _radical(a: EnvelopingAlgebra) -> list:
    """``radical_basis`` as scaled values, from G_ij = tr(r_i r_j) on the
    integer rows r_i = s_i x_i of the basis.  The trace form's Gram matrix
    is D^-1 G D^-1 with D = diag(s): c is in its kernel exactly when
    k = D^-1 c is in ker G, and sum c_j x_j = sum k_j r_j.  M_m(Q) is
    simple, so a full matrix algebra has no radical."""
    m = a.group.dimension
    if len(a._echelon) == m * m:
        return []
    flats = [_flatten(x.rows) for x in a._scaled]
    transposed = [_flatten(zip(*x.rows)) for x in a._scaled]
    gram = [[sum(map(mul, r, t)) for t in transposed] for r in flats]
    radical = []
    for f, k, den in linalg._kernel(gram, len(flats)):
        v = [0] * (m * m)
        for c, x in enumerate(k):
            if x:
                v = [y + x * z for y, z in zip(v, flats[c])]
        radical.append(linalg._Scaled(_unflatten(v, m), den * a._scaled[f].scale))
    return radical


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


def _radical_filtration(h: SubgroupPresentation):
    """The radical J of the generators' algebra, the nonzero layers J^k V
    for k >= 1 (RREF bases), and a cocharacter lambda adapted to them, or
    None when J = 0.

    The generators are block-diagonal, so each layer is the sum of its
    parts in the factor blocks.  Per block, the frame lists a basis of the
    deepest layer first and completes it layer by layer, unit vectors last.
    Then lambda is constant on each layer and highest on the deepest (m k -
    total on an SL block of rank m, whose frame is scaled to determinant 1),
    and the stable flag of layers puts every generator in P_lambda.

    Each layer is built on integer rows and read by ``linalg._rref``, which
    leaves the next layer's integer rows in place.
    """
    scaled = _radical(enveloping_algebra(h))
    radical = tuple(x.fractions() for x in scaled)
    if not radical:
        return radical, (), None
    group = h.group
    layers: list[Mat] = []
    layer = [[int(i == j) for j in range(group.dimension)] for i in range(group.dimension)]
    while True:
        # J^k V spanned by the images of J^(k-1) V's integer rows under the
        # radical's integer rows, which the scales do not change
        rows = [[sum(map(mul, row, w)) for row in x.rows] for x in scaled for w in layer]
        space = linalg._rref(rows)
        if not space:
            break
        layer = rows[: len(space)]
        layers.append(space)
    echelon: list = []
    per_block: list[list] = [[] for _ in group.factors]  # (vector, depth) pairs
    for depth, basis in reversed(list(enumerate([group.identity()] + layers))):
        for v in basis:
            if linalg.echelon_add(echelon, v):
                per_block[group.block_of(next(i for i, x in enumerate(v) if x))].append((v, depth))
    columns: list[Vec] = []
    exponents: list[int] = []
    for f, block, pairs in zip(group.factors, group.block_slices, per_block):
        vectors, depths = map(list, zip(*pairs))
        if f.family == SL:
            total = sum(depths)
            depths = [f.rank * depth - total for depth in depths]
            scale = 1 / linalg.det(tuple(tuple(v[i] for i in block) for v in vectors))
            vectors[0] = tuple(scale * x for x in vectors[0])
        columns += vectors
        exponents += depths
    lam = Cocharacter(linalg.transpose(columns), TorusCocharacter(group, exponents).primitive())
    return radical, tuple(layers), fold_permutation_base(lam)


def is_gcr_algebra(h: SubgroupPresentation) -> GcrVerdict:
    """Semisimplicity oracle on products of GL/SL factors, characteristic 0.

    Completely reducible exactly when V is a semisimple module, that is when
    the algebra radical is zero.  Otherwise the witnesses are the radical
    and the lambda of its filtration: the generators lie in P_lambda, and
    their limit acts on the semisimple layers, so no element of
    R_u(P_lambda) conjugates them to it.
    """
    radical, _, lam = _radical_filtration(h)
    if lam is None:
        return GcrVerdict(COMPLETELY_REDUCIBLE)
    return GcrVerdict(NOT_COMPLETELY_REDUCIBLE, witness_cocharacter=lam, witness_radical=radical)


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

    The commutation equations x h = h x are the conjugator equations of the
    tuple with itself, over the entries of x inside the diagonal blocks;
    adding trace zero on SL blocks gives the group centralizer dimension
    because the invertible locus is dense.  The equations are homogeneous
    in h, so each matrix enters as its integer rows (``linalg._Scaled``),
    its scale dropped.
    """
    mats = [linalg._Scaled.of(linalg.mat(x)).rows for x in mats]
    free = [(i, j) for block in group.block_slices for i in block for j in block]
    rows, _ = _conjugator_system(mats, mats, free)
    for f, block in zip(group.factors, group.block_slices):
        if f.family == "SL":
            rows.append([(k, 1) for k, (a, b) in enumerate(free) if a == b and a in block])
    return len(free) - linalg._rank_terms(rows, len(free))


def reduce_to_gcr(h: SubgroupPresentation) -> tuple[tuple[Cocharacter, ...], SubgroupPresentation]:
    """A completely reducible quotient, in one exact step.

    A completely reducible subgroup comes back unchanged with an empty
    chain.  Otherwise the chain is the cocharacter lambda of the radical
    filtration (see ``is_gcr_algebra``) and the quotient is c_lambda(h),
    which acts on the graded layers: the semisimplification of V, unique up
    to conjugacy, which the algebra oracle certifies.
    """
    verdict = is_gcr_algebra(h)
    if verdict.is_completely_reducible:
        return (), h
    lam = verdict.witness_cocharacter
    quotient = SubgroupPresentation(h.group, c_lambda(h.generators, lam))
    if not is_gcr_algebra(quotient).is_completely_reducible:
        raise InvariantViolation("the graded quotient of the radical filtration is not semisimple")
    return (lam,), quotient


UNIPOTENT_IDENTITY = "unipotent_identity"


def _nilpotent_powers(group: GroupSpec, g: Mat) -> tuple[list[linalg._Scaled], int]:
    """The integer powers N, N^2, ..., N^m of N = s g - s I, for the scale s
    of g and m the group's dimension, each over scale 1, and s: g is
    unipotent exactly when N^m = 0."""
    x = linalg._Scaled.of(g)
    n = linalg._Scaled(tuple(tuple(y - x.scale * (i == j) for j, y in enumerate(row)) for i, row in enumerate(x.rows)), 1)
    powers, step = [n], n.factor()
    for _ in range(group.dimension - 1):
        powers.append(powers[-1].times(step))
    return powers, x.scale


def _is_unipotent(group: GroupSpec, g: Mat) -> bool:
    return not any(map(any, _nilpotent_powers(group, g)[0][-1].rows))


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
    # a parabolic subgroup is its own normalizer: g fixes P_lambda exactly
    # when g is in it; the samples were checked with the configuration
    samples = zip(cfg.normalizer_samples, cfg._samples)
    verified = tuple(g for g, pair in samples if _classify_member(pair[0], result.cocharacter).in_parabolic)
    return CentreSimplex(result.parabolic, result.cocharacter, result.parabolic.blocks, verified)


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
        echelon: list = []
        if not all(linalg.echelon_add(echelon, _flatten(x)) for x in basis):
            raise DomainError("basis elements are linearly dependent")
        scaled = [linalg._Scaled.of(x) for x in basis]
        for i, x in enumerate(scaled):  # [x, x] = 0 and [y, x] = -[x, y]
            for y in scaled[i + 1 :]:
                # x y and y x share their scale
                bracket = [p - q for u, v in zip((x @ y).rows, (y @ x).rows) for p, q in zip(u, v)]
                if any(linalg.echelon_reduce(echelon, bracket)[0]):
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
