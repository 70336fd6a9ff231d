"""Seeded corpora and the property profiles that check them.

Each profile in ``PROFILES`` is a pair: a case stream ``cases(seed, size)``,
which makes every draw from one ``random.Random(seed)`` in a fixed order,
and a pure ``check(case) -> record``.  ``run_profile`` draws the cases once
and maps the check over them, serially or in worker processes, so the
records are the same either way.  Every record has an ``ok`` flag and enough
of its inputs to read the verdict, and a failure replays from
(profile, seed, case index) alone.  The subgroup profiles share the stream
``subgroup_corpus``; their verdicts are relative to ``corpus_config``.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

from . import linalg
from .errors import DestabError, InvariantViolation
from .gcr import (
    LieSubalgebra,
    SubgroupPresentation,
    _nilpotent_powers,
    centralizer_dim,
    is_gcr_algebra,
    is_gcr_search,
    lie_is_gcr,
)
from .groups import Cocharacter, GroupSpec, _identity_frame, pairing_vec
from .instability import (
    OPTIMAL,
    SearchConfig,
    SubvarietySpec,
    _Torus,
    _entry_pattern,
    admissible_exponents,
    optimize,
)
from .linalg import Mat
from .parabolic import (
    _radical_positions,
    c_lambda,
    combine,
    composition_threshold,
    find_ru_conjugator,
)
from .reps import ConjugationTuples, Point, Representation, SymPower, _flatten, _unflatten, grade, limit


# ---------------------------------------------------------------------------
# Random builders


def _rand_fraction(rng: random.Random, span: int = 3) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.choice((1, 1, 2, 3))
    return Fraction(num, den)


def _rand_nonzero_fraction(rng: random.Random, span: int = 3) -> Fraction:
    while True:
        x = _rand_fraction(rng, span)
        if x != 0:
            return x


def random_exponents(rng: random.Random, group: GroupSpec, box: int = 3) -> tuple[int, ...]:
    """A nonzero exponent vector respecting SL sum constraints."""
    while True:
        d = []
        for f, block in zip(group.factors, group.block_slices):
            vals = [rng.randint(-box, box) for _ in block]
            if f.family == "SL":
                vals[-1] -= sum(vals)
                if any(abs(v) > 2 * box for v in vals):
                    continue
            d.extend(vals)
        if len(d) == group.dimension and any(v != 0 for v in d):
            return tuple(d)


def random_frame(rng: random.Random, group: GroupSpec) -> Mat:
    """A unimodular frame: a Weyl representative times a couple of shears."""
    return _random_frame_pair(rng, group)[0].fractions()


def _random_frame_pair(rng: random.Random, group: GroupSpec) -> tuple:
    """``random_frame``'s draws, as the frame's held pair: the product of
    the held pairs of its factors (``GroupSpec._weyl_pairs``,
    ``GroupSpec._shear_table``)."""
    g, inverse = rng.choice(group._weyl_pairs)
    shears = group._shear_table((-2, -1, 1, 2))[1]
    for _ in range(rng.randint(0, 2)):
        s, s_inverse = rng.choice(shears)
        g, inverse = g @ s, s_inverse @ inverse
    return g, inverse


def family_frame(rng: random.Random, group: GroupSpec, shear_values=(-2, -1, 1, 2)) -> tuple:
    """A Weyl representative, times one shear four times in five: the held
    pair of a frame spanning a torus of the default search family."""
    g, inverse = rng.choice(group._weyl_pairs)
    if rng.random() < 0.8:
        s, s_inverse = rng.choice(group._shear_table(shear_values)[1])
        g, inverse = g @ s, s_inverse @ inverse
    return g, inverse


def random_cocharacter(rng: random.Random, group: GroupSpec, box: int = 3) -> Cocharacter:
    pair = _random_frame_pair(rng, group)
    return Cocharacter._on_frame(group, pair[0].fractions(), pair, random_exponents(rng, group, box))


def random_parabolic_element(rng: random.Random, lam: Cocharacter) -> Mat:
    """A random rational element of P_lambda (Levi part times radical part)."""
    group = lam.group
    d = lam.torus.exponents
    m = group.dimension
    levi = [[Fraction(0)] * m for _ in range(m)]
    for f, block in zip(group.factors, group.block_slices):
        levels = sorted({d[i] for i in block}, reverse=True)
        for level in levels:
            idx = [i for i in block if d[i] == level]
            while True:
                sub = [[_rand_fraction(rng) for _ in idx] for _ in idx]
                if linalg.det(linalg.mat(sub)) != 0:
                    break
            for a, i in enumerate(idx):
                for b, j in enumerate(idx):
                    levi[i][j] = sub[a][b]
        if f.family == "SL":
            sub = linalg.mat(tuple(tuple(levi[i][j] for j in block) for i in block))
            det = linalg.det(sub)
            first = block[0]
            for j in block:
                levi[first][j] /= det
    return lam._from_frame(linalg._Scaled.of(levi) @ _radical_draw(rng, lam))


def random_radical_element(rng: random.Random, lam: Cocharacter) -> Mat:
    return lam._from_frame(_radical_draw(rng, lam))


def _radical_draw(rng: random.Random, lam: Cocharacter) -> linalg._Scaled:
    """A random element of R_u(P_lambda) in the standard frame of lambda,
    as a scaled value."""
    u = [list(row) for row in linalg.identity(lam.group.dimension)]
    for i, j in _radical_positions(lam):
        u[i][j] = _rand_fraction(rng)
    return linalg._Scaled.of(u)


def random_point_with_limit(
    rng: random.Random, rep: Representation, lam: Cocharacter, strict_ok: bool = True
) -> Point:
    """A point supported on nonnegative levels in the frame of lambda."""
    d = lam.torus.exponents
    coords = []
    for chi in rep.weights:
        n = pairing_vec(d, chi)
        if n < 0 or (n > 0 and not strict_ok):
            coords.append(Fraction(0))
        else:
            coords.append(_rand_fraction(rng) if rng.random() < 0.7 else Fraction(0))
    return rep._act(lam._frame, Point(rep, tuple(coords)))


def random_point(rng: random.Random, rep: Representation) -> Point:
    return Point(
        rep,
        tuple(
            _rand_fraction(rng) if rng.random() < 0.6 else Fraction(0)
            for _ in range(rep.dim)
        ),
    )


def _suite_reps() -> list[Representation]:
    group2 = GroupSpec.make(("GL", 2))
    group3 = GroupSpec.make(("GL", 3))
    return [
        ConjugationTuples(group2, 1),
        ConjugationTuples(group2, 2),
        ConjugationTuples(group3, 1),
        SymPower(group2, 3),
        SymPower(group2, 4),
    ]


def _rep_cases(draw, seed: int, size: int) -> list:
    """Cases cycling through ``_suite_reps``, all drawn from one rng.

    ``draw(rng, case, rep)`` makes one case's draws.
    """
    rng = random.Random(seed)
    reps = _suite_reps()
    return [draw(rng, case, reps[case % len(reps)]) for case in range(size)]


# ---------------------------------------------------------------------------
# Profiles over the small representations


def _ruconj_draw(rng: random.Random, case: int, rep: Representation):
    lam = random_cocharacter(rng, rep.group)
    u = random_radical_element(rng, lam)
    if case % 2 == 0:
        fixed = random_point_with_limit(rng, rep, lam, strict_ok=False)
        return lam, u, rep._act(rep.group._checked_pair(u, "acting element")[::-1], fixed)
    return lam, u, random_point(rng, rep)


def _ruconj_check(case) -> dict:
    """Both directions of the radical-conjugacy criterion for limits.

    For u in the radical of P_lambda: the limit of v exists and equals u.v
    exactly when the u-conjugated cocharacter fixes v.  Even cases are
    constructed so the criterion holds, odd ones are random.
    """
    lam, u, v = case
    pair = v.rep.group._checked_pair(u, "acting element")
    lim = limit(v, lam)
    lhs = lim is not None and lim == v.rep._act(pair, v)
    graded = grade(v, lam._conjugated_by_pair(pair[::-1]))
    rhs = set(graded.components) <= {0}
    return {"ok": lhs == rhs, "holds": lhs, "detail": {"exponents": list(lam.torus.exponents)}}


def _equivariance_draw(rng: random.Random, case: int, rep: Representation):
    lam = random_cocharacter(rng, rep.group)
    x = random_parabolic_element(rng, lam)
    return lam, x, random_point_with_limit(rng, rep, lam)


def _equivariance_check(case) -> dict:
    """Limits commute with the parabolic action through the Levi projection."""
    lam, x, v = case
    rep = v.rep
    lim_moved = limit(rep.act(x, v), lam)
    expected = rep.act(c_lambda(x, lam), limit(v, lam))
    ok = lim_moved is not None and lim_moved == expected
    return {"ok": ok, "detail": {"exponents": list(lam.torus.exponents)}}


def _dblecochar_draw(rng: random.Random, case: int, rep: Representation):
    """Two cocharacters and, per threshold, a point with a limit along both."""
    group = rep.group
    lam = Cocharacter.standard(group, random_exponents(rng, group))
    mu = Cocharacter.standard(group, random_exponents(rng, group))
    good = []
    for chi in rep.weights:
        pl = pairing_vec(lam.torus.exponents, chi)
        pm = pairing_vec(mu.torus.exponents, chi)
        good.append(pl > 0 or (pl == 0 and pm >= 0))
    points = []
    for _ in range(2):
        coords = (_rand_fraction(rng) if g and rng.random() < 0.8 else Fraction(0) for g in good)
        points.append(Point(rep, tuple(coords)))
    return lam, mu, points


def _dblecochar_check(case) -> dict:
    """Grading inclusions and limit composition for commuting pairs."""
    lam, mu, points = case
    rep = points[0].rep
    t0 = composition_threshold(rep, lam, mu)
    ok = True
    for t, v in zip((t0, t0 + 3), points):
        combined = combine(lam, mu, t)
        for chi in rep.weights:
            pl = pairing_vec(lam.torus.exponents, chi)
            pm = pairing_vec(mu.torus.exponents, chi)
            pc = pairing_vec(combined.torus.exponents, chi)
            if pc >= 0 and not pl >= 0:
                ok = False
            if pl > 0 and not pc > 0:
                ok = False
            if (pc == 0) != (pl == 0 and pm == 0):
                ok = False
        v1 = limit(v, lam)
        assert v1 is not None
        v2 = limit(v1, mu)
        assert v2 is not None
        direct = limit(v, combined)
        if direct is None or direct != v2:
            ok = False
    return {
        "ok": ok,
        "detail": {"lam": list(lam.torus.exponents), "mu": list(mu.torus.exponents), "t0": t0},
    }


# ---------------------------------------------------------------------------
# Subgroup corpus (GL_2 / GL_3, small integer generators)


def _rand_int_matrix(rng: random.Random, m: int, lo: int = -2, hi: int = 2) -> list[list[int]]:
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(m)]


def _structured_generator(rng: random.Random, m: int) -> list[list[int]]:
    kind = rng.choice(("diagonal", "unipotent", "triangular", "generic", "permutation"))
    if kind == "diagonal":
        return [
            [rng.choice((-2, -1, 1, 2)) if i == j else 0 for j in range(m)] for i in range(m)
        ]
    if kind == "unipotent":
        g = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                g[i][j] = rng.randint(-2, 2)
        return g
    if kind == "triangular":
        g = [[0] * m for _ in range(m)]
        for i in range(m):
            g[i][i] = rng.choice((-2, -1, 1, 2))
            for j in range(i + 1, m):
                g[i][j] = rng.randint(-2, 2)
        return g
    if kind == "permutation":
        perm = list(range(m))
        rng.shuffle(perm)
        return [[1 if perm[i] == j else 0 for j in range(m)] for i in range(m)]
    while True:
        g = _rand_int_matrix(rng, m)
        if linalg.det(linalg.mat(g)) != 0:
            return g


def subgroup_corpus(seed: int, size: int = 50) -> list[SubgroupPresentation]:
    """Seeded subgroups of GL_2 and GL_3 with 1-3 small-integer generators.

    Most generator sets are conjugated by one element of the Weyl-times-
    shear family; unstructured draws are included as well.  Conjugation
    does not keep every invariant flag within the search family's reach:
    case 162 of ``subgroup_corpus(2, 200)`` fixes the line <(1,1,1)>, to
    which no searched torus is adapted, so ``is_gcr_search`` calls it
    completely reducible; the exact route finds that line as JV.
    """
    rng = random.Random(seed)
    groups = {2: GroupSpec.make(("GL", 2)), 3: GroupSpec.make(("GL", 3))}
    out = []
    while len(out) < size:
        m = rng.choice((2, 2, 3))
        group = groups[m]
        count = rng.randint(1, 3)
        gens = [_structured_generator(rng, m) for _ in range(count)]
        if rng.random() < 0.8:
            frame, inverse = family_frame(rng, group)
            gens = [(frame @ linalg._Scaled.of(g) @ inverse).fractions() for g in gens]
        try:
            out.append(SubgroupPresentation(group, tuple(linalg.mat(g) for g in gens)))
        except DestabError:
            continue
    return out


@functools.cache
def corpus_config(group: GroupSpec) -> SearchConfig:
    """The search bound every corpus verdict is relative to (built once per group)."""
    return SearchConfig.default(group, exponent_box=4, shear_values=(-2, -1, 1, 2))


def _oracle_agreement_check(h: SubgroupPresentation) -> dict:
    """Algebra semisimplicity vs bounded geometric search."""
    cfg = corpus_config(h.group)
    algebraic = is_gcr_algebra(h)
    searched = is_gcr_search(h, cfg)
    ok = algebraic.status == searched.status
    if ok and not searched.is_completely_reducible:
        lam = searched.witness_cocharacter
        v = h.tuple_point()
        v_prime = limit(v, lam)
        ok = v_prime is not None and find_ru_conjugator(v, v_prime, lam) is None
    return {
        "ok": ok,
        "algebra": algebraic.status,
        "search": searched.status,
        "detail": {
            "generators": [[[str(x) for x in row] for row in g] for g in h.generators],
            "box": cfg.exponent_box,
        },
    }


def _centralizer_check(h: SubgroupPresentation) -> dict:
    """Centralizer dimension never drops under Levi projection; equality
    happens exactly when a radical conjugator exists."""
    group = h.group
    rep = h.tuple_rep()
    v = h.tuple_point()
    base_dim = centralizer_dim(group, h.generators)
    ok = True
    checked = 0
    for exps in admissible_exponents(group, 4, _entry_pattern(h.generators)):
        lam = Cocharacter.standard(group, exps)
        projected = c_lambda(h.generators, lam)
        proj_dim = centralizer_dim(group, projected)
        if proj_dim < base_dim:
            ok = False
            break
        v_prime = rep.point(projected)
        u = find_ru_conjugator(v, v_prime, lam)
        if (proj_dim == base_dim) != (u is not None):
            ok = False
            break
        checked += 1
    return {"ok": ok, "admissible_checked": checked}


# ---------------------------------------------------------------------------
# Kempf equivariance instances


KEMPF_CONJUGATORS = 5


@dataclass(frozen=True)
class KempfInstance:
    group: GroupSpec
    points: tuple[Point, ...]
    normalizer_samples: tuple[Mat, ...]
    extra_frame: Mat
    conjugators: tuple[Mat, ...]


def _kempf_cases(seed: int, size: int) -> list[KempfInstance]:
    rng = random.Random(seed)
    return [_kempf_instance(rng, case) for case in range(size)]


def _kempf_instance(rng: random.Random, case: int) -> KempfInstance:
    """An unstable instance whose identity-torus optimum is provably global.

    Each point is supported on a single off-diagonal weight chi, so the
    optimal value is the squared length of chi (Cauchy-Schwarz) and the
    identity frame attains it; tied maximizers across frames then all sit
    in the true optimal class.  Each sample g satisfies g.X = X on the
    nose, exercising the optimizer's normalizer containment check.  The
    instance carries its frames: one extra family frame and the
    ``KEMPF_CONJUGATORS`` conjugators, all drawn even when a check stops
    early, so later cases never depend on where an earlier one failed.
    """
    flavor = case % 3
    if flavor == 0:
        group = GroupSpec.make(("GL", 2))
        c = _rand_nonzero_fraction(rng)
        pt = ConjugationTuples(group, 1).point([[[0, c], [0, 0]]])
        samples = (linalg.mat([[1, rng.randint(1, 2)], [0, 1]]),)  # commutes with e_12
    elif flavor == 1:
        group = GroupSpec.make(("GL", 3))
        c = _rand_nonzero_fraction(rng)
        pt = ConjugationTuples(group, 1).point([[[0, 0, c], [0, 0, 0], [0, 0, 0]]])
        torus = linalg.mat([[2, 0, 0], [0, 3, 0], [0, 0, 2]])  # equal corner entries fix e_13
        shear = linalg.mat([[1, rng.randint(1, 2), 0], [0, 1, 0], [0, 0, 1]])
        samples = (torus, shear)
    else:
        group = GroupSpec.make(("SL", 2))
        c = _rand_nonzero_fraction(rng)
        pt = SymPower(group, 4).monomial(1, c)  # x^3 y: triple root aligned with the torus
        samples = (linalg.mat([[-1, 0], [0, -1]]),)  # acts trivially on Sym^4
    extra = random_frame(rng, group)
    conjugators = tuple(random_frame(rng, group) for _ in range(KEMPF_CONJUGATORS))
    return KempfInstance(group, (pt,), samples, extra, conjugators)


def _kempf_check(inst: KempfInstance) -> dict:
    """Conjugating the input conjugates the optimum, exactly.

    For each conjugator g the two searches run over families F and g.F
    with F chosen to contain both the identity and g^{-1}, so the torus
    subproblems correspond one to one; the optimal values must then tie
    exactly and the optimal parabolics must be conjugate.  Normalizer
    samples are checked by the optimizer itself (it raises if one escapes
    the parabolic).  Each conjugator is checked once, and the extra frame
    and the samples once per instance.
    """
    group = inst.group
    rep = inst.points[0].rep
    s = SubvarietySpec.zero_locus()
    extra = linalg.mat(inst.extra_frame)
    e, e_inverse = group._checked_pair(extra, "conjugation family element")
    fixed = [_Torus(*_identity_frame(group.dimension)), _Torus(extra, (e, e_inverse))]
    samples = [(x, group._checked_pair(x, "normalizer sample")) for x in map(linalg.mat, inst.normalizer_samples)]
    for g in map(linalg.mat, inst.conjugators):
        pair = group._checked_pair(g, "conjugator")
        # the other frames are products a b of held pairs, with inverse b^-1 a^-1
        g_inv_e, g_e = pair[1] @ e, pair[0] @ e
        inverses = [_Torus(pair[1].fractions(), pair[::-1]), _Torus(g_inv_e.fractions(), (g_inv_e, e_inverse @ pair[0]))]
        cfg = SearchConfig._held(group, 4, fixed + inverses, samples=samples)
        # g times the family above: g g^-1 = I and g g^-1 extra = extra
        moved_cfg = SearchConfig._held(group, 4, [_Torus(g, pair), _Torus(g_e.fractions(), (g_e, e_inverse @ pair[1])), *fixed])
        try:
            result = optimize(inst.points, s, cfg)
        except InvariantViolation as exc:
            return {"ok": False, "detail": str(exc)}
        moved = tuple(rep._act(pair, x) for x in inst.points)
        moved_result = optimize(moved, s, moved_cfg)
        if result.status != OPTIMAL or moved_result.status != OPTIMAL:
            return {"ok": False, "detail": "optimum not witnessed"}
        if moved_result.value_sq != result.value_sq:
            return {"ok": False, "detail": "values differ"}
        if moved_result.parabolic != result.parabolic._conjugated_by_pair(pair):
            return {"ok": False, "detail": "parabolic is not conjugate"}
    return {"ok": True, "detail": None}


def _divisors(n: int) -> list[int]:
    """The positive divisors of a nonzero integer, by trial division up to its square root."""
    n = abs(n)
    low = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return low + [n // d for d in low if d * d != n]


def _generator_tangents(group: GroupSpec, g: Mat) -> list[list[int]] | None:
    """Flat integer rows spanning the tangent directions of an invertible
    generator, or None when it is neither unipotent nor diagonalizable over
    the rationals.

    For N = s g - s I, s the scale of g (``_nilpotent_powers``), a unipotent
    g has the logarithm sum (-1)^(k+1) N^k / (k s^k), kept times
    lcm(1, ..., m - 1) s^(m-1).  Else one kernel of the flat powers I, A,
    ..., A^m of A = s g gives A's minimal polynomial, monic with integer
    coefficients c_i, so s^deg times g's is mu = sum c_i s^i x^i.  g is
    diagonalizable exactly when mu has deg mu rational roots p/q, p | mu(0)
    and q | the leading coefficient of mu over its content, and then I, ...,
    A^(deg mu - 1) span its eigenprojections.
    """
    m = group.dimension
    powers, s = _nilpotent_powers(group, g)
    if not any(map(any, powers[-1].rows)):
        factor = lcm(*range(1, m)) * s ** (m - 1)
        log = [0] * (m * m)
        for k, power in enumerate(powers[:-1], 1):
            c = (-1) ** (k + 1) * (factor // (k * s**k))
            for i, x in enumerate(_flatten(power.rows)):
                log[i] += c * x
        return [log]
    a = linalg._Scaled(linalg._Scaled.of(g).rows, 1)
    krylov, step = [a], a.factor()
    for _ in range(m - 1):
        krylov.append(krylov[-1].times(step))
    flat = [[int(i == j) for i in range(m) for j in range(m)]]
    flat += [_flatten(p.rows) for p in krylov]
    degree, k, den = linalg._kernel([list(column) for column in zip(*flat)], m + 1)[0]
    mu = [c // den * s**i for i, c in enumerate(k[: degree + 1])]
    content = gcd(*mu)
    candidates = [(r, q) for q in _divisors(mu[-1] // content) for p in _divisors(mu[0] // content) if gcd(p, q) == 1 for r in (p, -p)]
    roots = [(r, q) for r, q in candidates if sum(c * r**i * q ** (degree - i) for i, c in enumerate(mu)) == 0]
    return flat[:degree] if len(roots) == degree else None


def _tangent_span(h: SubgroupPresentation):
    """Tangent directions of a generator set, when exactly computable: the
    span of each generator's (``_generator_tangents``), or None when some
    generator has none or the span is not closed under the commutator."""
    group = h.group
    rows: list[list[int]] = []
    for g in h.generators:
        tangents = _generator_tangents(group, g)
        if tangents is None:
            return None
        rows += tangents
    basis = [_unflatten(v, group.dimension) for v in linalg._rref(rows)]
    if not basis:
        return None
    try:
        return LieSubalgebra(group, tuple(basis))
    except DestabError:
        return None


def _group_lie_check(h: SubgroupPresentation) -> dict:
    """Reducible subgroups have reducible tangent algebras.

    On corpus inputs whose generators are all unipotent or all diagonal,
    a completely reducible verdict for the subgroup must be matched by the
    Lie-side search on the tangent span; other inputs are skipped (the
    span is only meaningful when it is commutator-closed).
    """
    lie = _tangent_span(h)
    if lie is None:
        return {"ok": True, "skipped": True}
    cfg = corpus_config(h.group)
    group_verdict = is_gcr_search(h, cfg)
    lie_verdict = lie_is_gcr(lie, cfg)
    ok = lie_verdict.is_completely_reducible or not group_verdict.is_completely_reducible
    return {"ok": ok, "skipped": False, "group": group_verdict.status, "lie": lie_verdict.status}


# ---------------------------------------------------------------------------
# Profiles and their runner

PROFILES = {
    "ruconj": (functools.partial(_rep_cases, _ruconj_draw), _ruconj_check),
    "equivariance": (functools.partial(_rep_cases, _equivariance_draw), _equivariance_check),
    "dblecochar": (functools.partial(_rep_cases, _dblecochar_draw), _dblecochar_check),
    "oracle-agreement": (subgroup_corpus, _oracle_agreement_check),
    "centralizer": (subgroup_corpus, _centralizer_check),
    "kempf-equivariance": (_kempf_cases, _kempf_check),
    "group-lie-consistency": (subgroup_corpus, _group_lie_check),
}


def run_profile(profile: str, seed: int, size: int, workers: int = 1) -> list[dict]:
    """One record per case of a profile, in case order.

    The cases are drawn once, here.  With ``workers`` > 1 they are checked
    in that many worker processes (at most one per case); the records do
    not depend on the worker count.  Each record carries its case index and
    the (profile, seed, case) triple that replays it.
    """
    cases, check = PROFILES[profile]
    batch = cases(seed, size)
    workers = min(workers, len(batch))
    if workers > 1:
        import concurrent.futures  # imported here so serial runs never load it

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(check, batch))
    else:
        records = list(map(check, batch))
    for case, record in enumerate(records):
        record["case"] = case
        record["reproducer"] = {"profile": profile, "seed": seed, "case": case}
    return records
