import dataclasses
import functools
import hashlib
import itertools
import json
import operator
import random
import sys
import time
from fractions import Fraction
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

from destab import (
    Cocharacter,
    ConjugationTuples,
    DimensionError,
    DomainError,
    GroupSpec,
    InvariantViolation,
    LimitMembershipError,
    MembershipClass,
    NOT_WITNESSED,
    OPTIMAL,
    Polynomial,
    PreconditionError,
    SearchConfig,
    SubvarietyKind,
    SubvarietySpec,
    SymPower,
    TRIVIAL,
    admits_limit_set,
    classify,
    is_cochar_closed,
    nearest_point_interior,
    optimize,
    optimize_torus,
    vanishing_order,
)
from destab import (
    CocharClosedVerdict,
    LieSubalgebra,
    ParabolicDescriptor,
    UnsupportedRepresentationError,
    c_lambda,
    find_ru_conjugator,
    gcr,
    instability,
    lie_is_gcr,
    linalg,
    support,
)
from destab.corpus import corpus_config, subgroup_corpus
from destab.groups import Character, Norm, fold_permutation_base, pairing
from destab.linalg import Mat, Vec
from destab.instability import (
    _box_vectors,
    _entry_pattern,
    admissible_exponents,
    min_qnorm_over_polyhedron,
)
from destab.parabolic import _limit_pattern
from destab.reps import DirectSum, Point, _frame_ints, _unflatten, grade, limit

GL2 = GroupSpec.make(("GL", 2))
GL3 = GroupSpec.make(("GL", 3))
SL2 = GroupSpec.make(("SL", 2))
MAT2 = ConjugationTuples(GL2, 1)
ZERO = SubvarietySpec.zero_locus()
LAM2 = Cocharacter.standard(GL2, (1, -1))


def curve_order(point, lam, s):
    """Independent oracle: substitute the orbit curve and read the order.

    Evaluates every generator on the literal curve coefficients (a Laurent
    polynomial in the parameter) and takes the least exponent with nonzero
    total coefficient, i.e. cancellation is allowed to occur.
    """
    rep = point.rep
    transported = rep.act(lam.base_inverse, point)
    from destab.groups import pairing_vec

    orders = []
    for gen in s.generators(rep):
        composed = gen.composed_with_action(lam.base)
        coeffs = {}
        for mono, c in composed.terms:
            level = sum(
                e * pairing_vec(lam.torus.exponents, rep.weights[i]) for i, e in mono
            )
            val = c
            for i, e in mono:
                val *= transported.coords[i] ** e
            if val != 0:
                coeffs[level] = coeffs.get(level, F(0)) + val
        coeffs = {n: c for n, c in coeffs.items() if c != 0}
        if coeffs:
            orders.append(min(coeffs))
    return min(orders) if orders else None  # None encodes infinity


def test_vanishing_order_examples():
    e12 = MAT2.point([[[0, 1], [0, 0]]])
    assert vanishing_order(e12, LAM2, ZERO).finite == 2
    assert curve_order(e12, LAM2, ZERO) == 2

    zero_pt = MAT2.zero()
    assert vanishing_order(zero_pt, LAM2, ZERO).is_infinite

    trace_zero = SubvarietySpec.custom(
        (Polynomial.coordinate(MAT2, 0) + Polynomial.coordinate(MAT2, 3),),
        g_stable_asserted=True,
    )
    diag = MAT2.point([[[2, 0], [0, F(1, 2)]]])
    assert vanishing_order(diag, LAM2, trace_zero).finite == 0


def test_vanishing_order_requires_limit():
    e21 = MAT2.point([[[0, 0], [1, 0]]])
    with pytest.raises(LimitMembershipError):
        vanishing_order(e21, LAM2, ZERO)


def test_vanishing_order_scaling():
    e12 = MAT2.point([[[0, 1], [0, 0]]])
    base = vanishing_order(e12, LAM2, ZERO)
    for m in (2, 3, 5):
        scaled = Cocharacter.standard(GL2, (m, -m))
        assert vanishing_order(e12, scaled, ZERO).finite == m * base.finite


def test_vanishing_order_matches_curve_oracle_on_samples():
    rng = random.Random(17)
    st = SubvarietySpec.identity_tuple()
    for _ in range(30):
        mats = [[[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]]
        pt = MAT2.point(mats)
        for s in (ZERO, st):
            try:
                computed = vanishing_order(pt, LAM2, s)
            except LimitMembershipError:
                continue
            oracle = curve_order(pt, LAM2, s)
            if computed.is_infinite:
                assert oracle is None
            else:
                assert oracle == computed.finite


def test_order_positive_iff_limit_in_subvariety():
    rng = random.Random(29)
    st = SubvarietySpec.identity_tuple()
    from destab import limit

    for _ in range(40):
        mats = [[[rng.randint(-1, 2) for _ in range(2)] for _ in range(2)]]
        pt = MAT2.point(mats)
        for s in (ZERO, st):
            try:
                order = vanishing_order(pt, LAM2, s)
            except LimitMembershipError:
                continue
            lim = limit(pt, LAM2)
            assert order.is_positive == s.contains_point(lim)


def test_admits_limit_set_examples():
    e12 = MAT2.point([[[0, 1], [0, 0]]])
    e21 = MAT2.point([[[0, 0], [1, 0]]])
    assert admits_limit_set([e12], LAM2)
    assert not admits_limit_set([e12, e21], LAM2)
    assert admits_limit_set([e12, e21], Cocharacter.standard(GL2, (0, 0)))


# ---------------------------------------------------------------------------
# Torus optimization


def brute_force_torus_best(points, s, group, box=5):
    """Exhaustive rational maximization over primitive vectors in a box."""
    best = None
    for d in _box_vectors(group, box):
        lam = Cocharacter.standard(group, d)
        if not admits_limit_set(points, lam):
            continue
        orders = [vanishing_order(x, lam, s) for x in points]
        finite = [o.finite for o in orders if o.finite is not None]
        if not finite:
            continue
        a = min(finite)
        if a <= 0:
            continue
        val = F(a * a) / group.norm.value_sq(d)
        if best is None or val > best:
            best = val
    return best


def test_optimize_torus_sym_power_example():
    sym = SymPower(SL2, 4)
    x3y = sym.monomial(1)
    out = optimize_torus([x3y], ZERO)
    assert out.exponents == (1, -1)
    assert out.value_sq == 2
    assert brute_force_torus_best([x3y], ZERO, SL2) == 2


def test_optimize_torus_e12_example():
    e12 = MAT2.point([[[0, 1], [0, 0]]])
    out = optimize_torus([e12], ZERO)
    assert out.value_sq == 2
    assert linalg.primitive_direction(out.exponents) == (1, -1)
    assert brute_force_torus_best([e12], ZERO, GL2) == 2


def test_optimize_torus_trivial_when_contained():
    out = optimize_torus([MAT2.zero()], ZERO)
    assert out.trivial and out.exponents == (0, 0)


def test_optimize_torus_none_when_stable():
    # a semisimple point is not driven into the zero locus by this torus
    diag = MAT2.point([[[2, 0], [0, 3]]])
    assert optimize_torus([diag], ZERO) is None


def test_optimize_torus_respects_custom_norm():
    group = GroupSpec.make(("GL", 2), gram=[[2, 0], [0, 2]])
    rep = ConjugationTuples(group, 1)
    e12 = rep.point([[[0, 1], [0, 0]]])
    out = optimize_torus([e12], ZERO)
    assert out.exponents == (1, -1)
    assert out.value_sq == F(4, 4)  # pairing 2 squared over 2*(1+1)


def test_optimize_torus_matches_brute_force_on_random_sets():
    rng = random.Random(37)
    for _ in range(15):
        pts = []
        for _ in range(rng.randint(1, 2)):
            mats = [[[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)]]
            pts.append(ConjugationTuples(GL3, 1).point(mats))
        out = optimize_torus(pts, ZERO)
        brute = brute_force_torus_best(pts, ZERO, GL3, box=4)
        if out is None or out.trivial:
            assert brute is None or out is not None
        else:
            assert brute is not None
            assert out.value_sq >= brute
            if all(abs(e) <= 4 for e in out.exponents):
                assert out.value_sq == brute


# ---------------------------------------------------------------------------
# The Fraction dual active-set loop that the integer kernel replaced, kept as
# the reference, with its KKT solve (which the enumeration references use too).


def _kkt_solve(q: Mat, rows, top, bottom) -> tuple[Vec, Vec] | None:
    """(x, y) with q x + A^T y = top and A x = bottom for the rows A, or None
    if inconsistent.  q is positive definite, so x is unique when it exists."""
    n = len(q)
    k = len(rows)
    system = tuple(tuple(q[i]) + tuple(row[i] for row in rows) for i in range(n)) + tuple(
        tuple(row) + (Fraction(0),) * k for row in rows
    )
    solution = linalg._solve_terms([linalg._terms(row) for row in system], linalg.vec((*top, *bottom)), n + k)
    x = None if solution is None else tuple(Fraction(z, solution[1]) for z in solution[0])
    return None if x is None else (x[:n], x[n:])


def _fraction_min_qnorm(
    q: Mat, ineqs: list[tuple[Vec, Fraction]], eqs: list[Vec]
) -> Vec | None:
    """Unique minimizer of d^T q d over {g.d >= c, e.d = 0}, or None if empty.

    Goldfarb-Idnani dual active-set method in exact arithmetic.  It starts
    at d = 0, the unconstrained minimizer (q is positive definite), with
    the equality rows active, and keeps d the minimizer over the affine set
    of the active rows with nonnegative multipliers on the active
    inequalities.  Each round adds the most violated inequality p: one KKT
    solve gives the primal direction z and the change r of the active
    multipliers, and the step either reaches g_p.d = c_p (full step: p
    becomes active) or stops where a multiplier reaches zero (partial step:
    that row is dropped and p is tried again).  Ties go to the smallest
    index.  When p is a combination of the active rows and no multiplier
    can fall, no step can satisfy it and the polyhedron is empty.

    Each full step strictly raises the dual objective, so no active set
    recurs after a full step; a recurrence is reported as an invariant
    violation rather than looping.
    """
    # independent equality rows, so every KKT matrix below is nonsingular
    active: list[Vec] = list(linalg.row_space(tuple(eqs))) if eqs else []
    n_eqs = len(active)
    act_idx: list[int] = []  # inequality index of active[n_eqs + k]
    mult: list[Fraction] = []  # its multiplier, always >= 0
    d: Vec = (Fraction(0),) * len(q)
    seen: set[frozenset[int]] = set()
    while True:
        slacks = [linalg.dot(g, d) - c for g, c in ineqs]
        p = min(range(len(ineqs)), key=lambda i: (slacks[i], i), default=None)
        if p is None or slacks[p] >= 0:
            return d
        g_p = ineqs[p][0]
        u_p = Fraction(0)
        while True:
            solution = _kkt_solve(q, active, g_p, (Fraction(0),) * len(active))
            if solution is None:
                raise InvariantViolation("singular KKT system in the dual active-set solver")
            z, r = solution
            r_ineq = r[n_eqs:]
            blocking = [k for k, rk in enumerate(r_ineq) if rk > 0]
            t_partial = None
            if blocking:
                drop = min(blocking, key=lambda k: (mult[k] / r_ineq[k], act_idx[k]))
                t_partial = mult[drop] / r_ineq[drop]
            full = any(z)
            if full:
                t_full = -slacks[p] / linalg.dot(g_p, z)  # g_p.z = z^T q z > 0
                full = t_partial is None or t_full <= t_partial
            elif t_partial is None:
                return None
            t = t_full if full else t_partial
            d = tuple(x + t * y for x, y in zip(d, z))
            mult = [m - t * rk for m, rk in zip(mult, r_ineq)]
            u_p += t
            if full:
                active.append(g_p)
                act_idx.append(p)
                mult.append(u_p)
                key = frozenset(act_idx)
                if key in seen:
                    raise InvariantViolation("dual active-set solver revisited an active set")
                seen.add(key)
                break
            slacks[p] += t * linalg.dot(g_p, z)
            del active[n_eqs + drop], act_idx[drop], mult[drop]


# ---------------------------------------------------------------------------
# Nearest point


def _enumerated_nearest_point(points, gram=None):
    """Reference: the Caratheodory enumeration the dual QP replaced.

    Enumerates affinely independent subsets, solves each
    equality-constrained projection exactly, and keeps the feasible best.
    """
    pts = [linalg.vec(p) for p in points]
    n = len(pts[0])
    q = gram if gram is not None else linalg.identity(n)

    best = None
    for size in range(1, n + 2):
        for subset in itertools.combinations(range(len(pts)), size):
            chosen = [pts[i] for i in subset]
            base = chosen[0]
            diffs = tuple(
                tuple(a - b for a, b in zip(p, base)) for p in chosen[1:]
            )
            if diffs and linalg.rank(diffs) < len(diffs):
                continue  # affinely dependent; a smaller subset covers it
            # variables t_i; y = sum t_i p_i; minimize y^T q y s.t. sum t = 1
            p_mat = linalg.transpose(tuple(chosen))
            gram_t = linalg.mat_mul(
                linalg.mat_mul(tuple(chosen), q), p_mat
            )
            ones = tuple(F(1) for _ in chosen)
            solution = _kkt_solve(gram_t, [ones], (F(0),) * len(chosen), [F(1)])
            if solution is None or any(x < 0 for x in solution[0]):
                continue
            t = solution[0]
            y = tuple(
                sum(t[k] * chosen[k][i] for k in range(len(chosen))) for i in range(n)
            )
            value = linalg.dot(y, linalg.mat_vec(q, y))
            if best is None or value < best[0]:
                best = (value, y)
    assert best is not None  # size-1 subsets always feasible
    return best[1]


def test_nearest_point_examples():
    assert nearest_point_interior([(2, 0), (0, 2)]) == (F(1), F(1))
    assert nearest_point_interior([(3, 1)]) == (F(3), F(1))
    assert nearest_point_interior([(2, 0), (-1, 1)]) == (F(1, 5), F(3, 5))


def test_nearest_point_grid_refinement():
    pts = [linalg.vec(p) for p in [(2, 0), (-1, 1)]]
    best = nearest_point_interior(pts)
    best_norm = linalg.dot(best, best)
    n = 200
    for k in range(n + 1):
        t = F(k, n)
        y = tuple((1 - t) * a + t * b for a, b in zip(pts[0], pts[1]))
        assert linalg.dot(y, y) >= best_norm


def test_nearest_point_interior_of_triangle():
    # origin inside the hull: the nearest point is the origin itself
    out = nearest_point_interior([(1, 0), (-1, 1), (-1, -1)])
    assert out == (F(0), F(0))


def test_nearest_point_custom_gram():
    gram = linalg.mat([[2, 0], [0, 1]])
    out = nearest_point_interior([(2, 0), (0, 2)], gram)
    # minimize 2a^2 + b^2 on the segment a + b = 2: a = 2/3, b = 4/3
    assert out == (F(2, 3), F(4, 3))


def test_nearest_point_matches_enumeration_on_seeded_sets():
    rng = random.Random(19)
    seen = dict(origin=0, gram=0, dup=0)
    for i in range(120):
        n = 1 + i % 3
        q = linalg.identity(n)
        if rng.random() < 0.5:
            b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            q = linalg.mat(
                [[sum(b[k][i] * b[k][j] for k in range(n)) + (i == j) for j in range(n)] for i in range(n)]
            )
        pts = [tuple(rng.randint(-2, 3) for _ in range(n)) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:
            pts.append(rng.choice(pts))
        out = nearest_point_interior(pts, q)
        assert out == _enumerated_nearest_point(pts, q)
        seen["origin"] += not any(out)
        seen["gram"] += q != linalg.identity(n)
        seen["dup"] += len(set(pts)) < len(pts)
    assert all(count >= 10 for count in seen.values()), seen


def test_nearest_point_rejects_bad_input():
    with pytest.raises(PreconditionError):
        nearest_point_interior([])
    with pytest.raises(DimensionError):
        nearest_point_interior([(1, 0), (1,)])
    # the Gram matrix is checked as a norm's is
    points = [(1, 0), (1, 1)]
    for gram in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1]], [[1, 0], [0]], [[1, 0], [0, 1], [0, 0]]):
        with pytest.raises(DimensionError):
            nearest_point_interior(points, gram)
    for gram in ([[1, 0], [0, -1]], [[0, 0], [0, 0]], [[1, 2], [0, 1]], [[1, 2], [2, 1]]):
        with pytest.raises(DomainError):
            nearest_point_interior(points, gram)
    assert nearest_point_interior(points, [[2, 1], [1, 2]]) == (1, 0)  # |(1, t)|^2 = 2 + 2t + 2t^2 on [0, 1]


def test_min_qnorm_polyhedron_infeasible():
    q = linalg.identity(2)
    ineqs = [(linalg.vec([0, 0]), F(1))]
    assert min_qnorm_over_polyhedron(q, ineqs, []) is None


def _enumerated_min_qnorm(q, ineqs, eqs):
    """Reference: the active-subset enumeration the dual solver replaced.

    The minimizer sits in the relative interior of a face, where it is the
    minimum-norm point of the face's affine hull, so some linearly
    independent active subset recovers it exactly.
    """
    n = len(q)
    eq_rank = linalg.rank(tuple(eqs)) if eqs else 0
    cap = n - eq_rank
    seen: dict[tuple, None] = {}
    unique_ineqs = []
    for g, c in ineqs:
        key = (g, c)
        if key not in seen:
            seen[key] = None
            unique_ineqs.append((g, c))

    best = None
    indices = range(len(unique_ineqs))
    for size in range(0, cap + 1):
        for subset in itertools.combinations(indices, size):
            rows = list(eqs) + [unique_ineqs[i][0] for i in subset]
            rhs = [F(0)] * len(eqs) + [unique_ineqs[i][1] for i in subset]
            solution = _kkt_solve(q, rows, (F(0),) * n, rhs)
            if solution is None:
                continue
            d = solution[0]
            if any(linalg.dot(g, d) < c for g, c in unique_ineqs):
                continue
            value = linalg.dot(d, linalg.mat_vec(q, d))
            if best is None or value < best[0]:
                best = (value, d)
    return best[1] if best else None


def _random_polyhedron(rng, n):
    """Half the rows tight at one integer vertex; then duplicated, parallel,
    dependent or zero rows, an SL sum-zero equality, and a random
    positive-definite Gram matrix, each some of the time."""
    q = linalg.identity(n)
    if rng.random() < 0.5:
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        q = linalg.mat(
            [[sum(b[k][i] * b[k][j] for k in range(n)) + (i == j) for j in range(n)] for i in range(n)]
        )
    vertex = [rng.randint(-2, 3) for _ in range(n)]
    ineqs = []
    for _ in range(rng.randint(1, (7, 6, 5, 4, 4)[n - 1])):
        g = linalg.vec(rng.randint(-2, 2) for _ in range(n))
        c = linalg.dot(g, vertex) if rng.random() < 0.5 else F(rng.choice((-1, 0, 1, 1, 2)))
        ineqs.append((g, F(c)))
    for _ in range(rng.randint(0, 2)):
        g, c = rng.choice(ineqs)
        kind = rng.random()
        if kind < 0.3:
            ineqs.append((g, c))
        elif kind < 0.6:
            ineqs.append((tuple(2 * x for x in g), 2 * c + rng.randint(-1, 1)))
        elif kind < 0.8:
            g2, c2 = rng.choice(ineqs)
            ineqs.append((tuple(x + y for x, y in zip(g, g2)), c + c2))
        else:
            ineqs.append(((F(0),) * n, F(rng.choice((0, 1)))))
    rng.shuffle(ineqs)
    eqs = [linalg.vec([1] * n)] if n > 1 and rng.random() < 0.3 else []
    return q, ineqs, eqs


def test_min_qnorm_matches_enumeration_on_seeded_polyhedra():
    rng = random.Random(5)
    seen = dict(empty=0, over_tight=0, zero_row_pos=0, zero_row_free=0, sl=0, gram=0, dup=0)
    for i in range(300):
        n = 1 + i % 5
        q, ineqs, eqs = _random_polyhedron(rng, n)
        ref = _enumerated_min_qnorm(q, ineqs, eqs)
        assert min_qnorm_over_polyhedron(q, ineqs, eqs) == ref
        if ref is None:
            seen["empty"] += 1
        elif len({(g, c) for g, c in ineqs if linalg.dot(g, ref) == c}) > n:
            seen["over_tight"] += 1
        seen["zero_row_pos"] += any(not any(g) and c > 0 for g, c in ineqs)
        seen["zero_row_free"] += any(not any(g) and c == 0 for g, c in ineqs)
        seen["sl"] += bool(eqs)
        seen["gram"] += q != linalg.identity(n)
        seen["dup"] += len(set(ineqs)) < len(ineqs)
    assert all(count >= 5 for count in seen.values()), seen


def test_min_qnorm_degenerate_vertex():
    # eight forms, all tight at (1, 1, 1), which is the minimizer; the
    # duplicate and the dependent rows make every step degenerate
    rows = [
        ((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1), ((1, 1, 0), 2),
        ((1, 0, 1), 2), ((0, 1, 1), 2), ((1, 1, 1), 3), ((2, 1, 0), 3),
        ((1, 1, 1), 3),
    ]
    ineqs = [(linalg.vec(g), F(c)) for g, c in reversed(rows)]
    for q in (linalg.identity(3), linalg.mat([[2, 1, 0], [1, 2, 1], [0, 1, 2]])):
        out = min_qnorm_over_polyhedron(q, ineqs, [])
        assert out == _enumerated_min_qnorm(q, ineqs, [])
    assert min_qnorm_over_polyhedron(linalg.identity(3), ineqs, []) == (F(1), F(1), F(1))


def _weight_polyhedron(rng, group):
    """Objective rows (c = 1) and cone rows (c = 0) drawn from the weights of
    the adjoint module and their pairwise sums that a seeded cocharacter
    pairs with positively or to zero, so the set is not empty; the SL sum
    rows as equalities; the group's Gram matrix or a custom integer one.  A
    third of the time a row and its negative are both objective rows, which
    leaves the set empty."""
    n = group.dimension
    d0 = [rng.randint(-3, 3) for _ in range(n)]
    eqs = []
    for f, block in zip(group.factors, group.block_slices):
        if f.family == "SL":
            total = sum(d0[i] for i in block)
            for i in block:
                d0[i] = len(block) * d0[i] - total
            eqs.append(tuple(int(i in block) for i in range(n)))
    roots = [chi.weights for chi in ConjugationTuples(group, 1).weights if not chi.is_zero()]
    pool = set(roots) | {tuple(a + b for a, b in zip(x, y)) for x, y in itertools.combinations(roots, 2)}
    pool = sorted(w for w in pool if any(w) and sum(a * b for a, b in zip(d0, w)) >= 0)
    # integer rows, as the torus optimum passes them
    ineqs = [
        (w, rng.choice((0, 1, 1)) if sum(a * b for a, b in zip(d0, w)) > 0 else 0)
        for w in rng.sample(pool, min(len(pool), rng.randint(2, 9)))
    ]
    if rng.random() < 1 / 3:
        g, _ = rng.choice(ineqs)
        ineqs += [(g, 1), (tuple(-x for x in g), 1)]
    rng.shuffle(ineqs)
    q = group.norm.gram if rng.random() < 0.5 else _gram(rng, n)
    return q, ineqs, eqs


def _gram(rng, n, scale=F(1)):
    """A seeded positive-definite Gram matrix: scale (B^T B + I)."""
    b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    rows = [[sum(b[k][i] * b[k][j] for k in range(n)) + (i == j) for j in range(n)] for i in range(n)]
    return linalg.mat([[scale * x for x in row] for row in rows])


def _rational_polyhedron(rng, n):
    """Rows and right-hand sides with denominators 1, 2, 3 and 6, under a
    custom integer Gram matrix or one scaled by 1/2 or 1/3."""

    def rational(lo, hi, denominators=(1, 2, 3, 6)):
        return F(rng.randint(lo, hi), rng.choice(denominators))

    q = _gram(rng, n, rng.choice((F(1), F(1), F(1, 2), F(1, 3))))
    ineqs = [
        (tuple(rational(-4, 4) for _ in range(n)), rational(-1, 3))
        for _ in range(rng.randint(1, 2 * n + 2))
    ]
    eqs = []
    if n > 1 and rng.random() < 0.25:
        eqs.append(tuple(rational(-2, 2, (1, 2, 3)) for _ in range(n)))
    return q, ineqs, eqs


def _line(v):
    """The primitive integer vector on the ray of v, or v's zeros."""
    return linalg.primitive_direction(v) if any(v) else (0,) * len(v)


def _small_row_polyhedron(rng, n):
    """Many rows with entries in {-1, 0, 1, 2} and right-hand sides in
    {0, 1, 2} under the identity Gram matrix: rows meet in degenerate
    vertices, where two multipliers can reach zero in one step and the
    drop tie-break decides."""
    ineqs = [
        (tuple(rng.choice((-1, 0, 1, 1, 2)) for _ in range(n)), rng.choice((0, 1, 1, 2)))
        for _ in range(rng.randint(n + 1, 4 * n))
    ]
    return linalg.identity(n), ineqs, []


def test_integer_kernel_matches_fraction_reference(monkeypatch):
    """The integer kernel solves the Fraction loop's KKT systems in the same
    order, with the same active rows and the same added row up to positive
    scale, so it adds, drops and breaks ties as the loop does; and it
    returns the loop's minimizer, or None where the loop does.  Each Schur
    complement solution (z, r, den), read as z / den and r / den, is the
    (x, y) of the full KKT system the reference solves on the same rows.
    Checked on weight polyhedra of GL_3, GL_4 and GL_2 x SL_2, on rational
    rows under integer and rational Gram matrices, on the seeded polyhedra
    of the enumeration test and on degenerate vertices of small integer
    rows; a singular q and dependent rows raise."""
    reference_systems, integer_systems = [], []
    kkt, integer_kkt = _kkt_solve, instability._kkt_solve
    gram = []  # the Gram matrix of the case being solved

    def recording_kkt(q, rows, top, bottom):
        reference_systems.append((tuple(map(_line, rows)), _line(top)))
        return kkt(q, rows, top, bottom)

    def recording_integer_kkt(inverse, rows, top):
        integer_systems.append((tuple(map(_line, rows)), _line(top)))
        z, r, den = integer_kkt(inverse, rows, top)
        x, y = kkt(gram[0], rows, top, (F(0),) * len(rows))
        assert den > 0 and tuple(F(v, den) for v in z) == x and tuple(F(v, den) for v in r) == y
        return z, r, den

    monkeypatch.setattr(sys.modules[__name__], "_kkt_solve", recording_kkt)
    monkeypatch.setattr(instability, "_kkt_solve", recording_integer_kkt)
    rng = random.Random(31)
    gl2_sl2 = GroupSpec.make(("GL", 2), ("SL", 2))
    cases = []
    for group in (GL3, GroupSpec.make(("GL", 4)), gl2_sl2):
        cases += [_weight_polyhedron(rng, group) for _ in range(80)]
    cases += [_rational_polyhedron(rng, 1 + i % 4) for i in range(120)]
    cases += [_random_polyhedron(rng, 1 + i % 5) for i in range(60)]
    cases += [_small_row_polyhedron(rng, 3 + i % 2) for i in range(400)]
    seen = dict(partial=0, empty=0, sl=0, rational=0, gram=0, dup=0)
    for q, ineqs, eqs in cases:
        reference_systems.clear()
        integer_systems.clear()
        gram[:] = [q]
        ref = _fraction_min_qnorm(q, ineqs, eqs)
        out = min_qnorm_over_polyhedron(q, ineqs, eqs)
        assert out == ref
        assert out is None or all(type(x) is F for x in out)
        assert integer_systems == reference_systems
        # a full step adds a row to the next system, a partial step drops one
        sizes = [len(rows) for rows, _ in reference_systems]
        seen["partial"] += any(b < a for a, b in zip(sizes, sizes[1:]))
        seen["empty"] += ref is None
        seen["sl"] += bool(eqs)
        seen["rational"] += any(F(x).denominator > 1 for g, c in ineqs for x in (*g, c))
        seen["gram"] += q != linalg.identity(len(q))
        # a repeated row ties with itself: the first index must be added
        seen["dup"] += len(set(ineqs)) < len(ineqs)
    assert all(count >= 10 for count in seen.values()), seen
    # a singular q leaves the first system without a solution, in both
    for q in (((1, 0), (0, 0)), ((0, 0), (0, 0))):
        for solve in (min_qnorm_over_polyhedron, _fraction_min_qnorm):
            with pytest.raises(InvariantViolation, match="^singular KKT system in the dual active-set solver$"):
                solve(linalg.mat(q), [((0, 1), 1)], [])
    with pytest.raises(InvariantViolation, match="^singular KKT system in the dual active-set solver$"):
        integer_kkt(linalg._Scaled.of(linalg.identity(2)).inverse()[0], [[1, 0], [2, 0]], [1, 1])


@pytest.mark.parametrize(
    "n, exponents, value_sq",
    [(6, (5, 3, 1, -1, -3, -5), F(2, 35)), (7, (3, 2, 1, 0, -1, -2, -3), F(1, 28))],
)
def test_optimize_torus_generic_nilpotent_scale(n, exponents, value_sq):
    # 15 and 21 objective forms, beyond the reach of subset enumeration
    rng = random.Random(n)
    e = [[rng.choice((-2, -1, 1, 3)) if j > i else 0 for j in range(n)] for i in range(n)]
    pt = ConjugationTuples(GroupSpec.make(("GL", n)), 1).point([e])
    start = time.perf_counter()
    out = optimize_torus([pt], ZERO)
    assert time.perf_counter() - start < 2.0
    assert out.exponents == exponents
    assert out.value_sq == value_sq == F(12, n * (n * n - 1))


def test_optimize_torus_identity_tuple_brute_force():
    # identity-tuple targets put weight-zero supports in the cone but not
    # in the objective; brute force must agree wherever the box suffices
    rng = random.Random(61)
    st = SubvarietySpec.identity_tuple()
    rep3 = ConjugationTuples(GL3, 1)
    for _ in range(20):
        g = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                g[i][j] = rng.randint(-2, 2)
        pt = rep3.point([g])
        out = optimize_torus([pt], st)
        brute = brute_force_torus_best([pt], st, GL3, box=4)
        if out is None or out.trivial:
            assert brute is None or out is not None
        else:
            assert out.value_sq >= (brute or 0)
            if all(abs(e) <= 4 for e in out.exponents):
                assert out.value_sq == brute


def test_vanishing_order_with_frame_matches_curve_oracle():
    rng = random.Random(67)
    st = SubvarietySpec.identity_tuple()
    frames = [linalg.mat([[1, 1], [0, 1]]), linalg.mat([[0, 1], [-1, 2]])]
    for _ in range(20):
        frame = rng.choice(frames)
        lam = Cocharacter.based(GL2, frame, (rng.randint(1, 3), -rng.randint(0, 2)))
        mats = [[[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]]
        pt = MAT2.point(mats)
        for s in (ZERO, st):
            try:
                computed = vanishing_order(pt, lam, s)
            except LimitMembershipError:
                continue
            oracle = curve_order(pt, lam, s)
            if computed.is_infinite:
                assert oracle is None
            else:
                assert oracle == computed.finite


def test_is_cochar_closed_product_group():
    prod = GroupSpec.make(("GL", 2), ("GL", 2))
    rep = ConjugationTuples(prod, 1)
    cfg = SearchConfig.default(prod, exponent_box=2)
    # unipotent in the first factor only: a first-factor witness exists
    h = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]]
    verdict = is_cochar_closed(rep.point([h]), cfg)
    assert not verdict.closed
    d = verdict.witness.torus.exponents
    assert d[0] > d[1] and d[2] == d[3]
    # semisimple in both factors: closed within the bound
    k = [[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 5, 0], [0, 0, 0, 7]]
    assert is_cochar_closed(rep.point([k]), cfg).closed


def test_optimize_product_group_first_factor():
    prod = GroupSpec.make(("GL", 2), ("GL", 2))
    rep = ConjugationTuples(prod, 1)
    pt = rep.point([[[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]])
    cfg = SearchConfig.default(prod, exponent_box=3, oracle_mode=True)
    res = optimize([pt], ZERO, cfg)
    assert res.status == OPTIMAL
    assert res.cocharacter.torus.exponents == (1, -1, 0, 0)
    assert res.value_sq == 2
    assert res.global_verified
    # proper in the first factor, the whole group in the second
    assert res.parabolic.blocks == ((1, 1), (2,))


def test_optimize_regular_nilpotent_gl4():
    gl4 = GroupSpec.make(("GL", 4))
    rep = ConjugationTuples(gl4, 1)
    e = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
    cfg = SearchConfig.default(gl4, exponent_box=3, oracle_mode=True)
    res = optimize([rep.point([e])], ZERO, cfg)
    assert res.status == OPTIMAL
    assert res.cocharacter.torus.exponents == (3, 1, -1, -3)
    assert res.value_sq == F(1, 5)
    assert res.global_verified
    assert res.parabolic.blocks == ((1, 1, 1, 1),)


def test_optimizer_duality_with_nearest_point():
    # For the zero locus the objective forms coincide with the supports, so
    # the optimal normalized speed equals the distance from the origin to
    # the convex hull of the occurring weights: two independent convex
    # kernels must agree exactly.
    rng = random.Random(53)
    rep3 = ConjugationTuples(GL3, 1)
    for _ in range(25):
        mats = [[[rng.choice((0, 0, 1, -1, 2)) for _ in range(3)] for _ in range(3)]]
        pt = rep3.point(mats)
        out = optimize_torus([pt], ZERO)
        if out is None or out.trivial:
            continue
        supports = sorted({chi.weights for chi in support(pt)})
        nearest = _enumerated_nearest_point(supports)
        assert out.value_sq == linalg.dot(nearest, nearest)


# ---------------------------------------------------------------------------
# Global optimization


def test_optimize_e12():
    e12 = MAT2.point([[[0, 1], [0, 0]]])
    cfg = SearchConfig.default(GL2, exponent_box=5, oracle_mode=True)
    res = optimize([e12], ZERO, cfg)
    assert res.status == OPTIMAL
    assert res.cocharacter.torus.exponents == (1, -1)
    assert res.value_sq == 2
    assert res.global_verified
    assert res.parabolic.blocks == ((1, 1),)
    assert res.cocharacter.torus.is_primitive


def test_optimize_borel_tits_instance():
    rep = ConjugationTuples(GL2, 1)
    u = rep.point([[[1, 1], [0, 1]]])
    st = SubvarietySpec.identity_tuple()
    cfg = SearchConfig.default(GL2, exponent_box=5, oracle_mode=True)
    res = optimize([u], st, cfg)
    assert res.status == OPTIMAL
    assert res.cocharacter.torus.exponents == (1, -1)
    assert classify([[1, 1], [0, 1]], res.cocharacter) is MembershipClass.IN_RU


def test_optimize_equivariance_under_diagonal():
    g = linalg.mat([[1, 0], [0, 2]])
    e12 = MAT2.point([[[0, 1], [0, 0]]])
    moved = MAT2.act(g, e12)
    base_family = (GL2.identity(), linalg.inverse(g))
    cfg = SearchConfig(GL2, 5, base_family)
    moved_cfg = SearchConfig(GL2, 5, tuple(linalg.mat_mul(g, f) for f in base_family))
    res = optimize([e12], ZERO, cfg)
    moved_res = optimize([moved], ZERO, moved_cfg)
    assert moved_res.value_sq == res.value_sq
    assert moved_res.parabolic == res.parabolic.conjugated_by(g)


def test_optimize_dominates_identity_torus():
    rng = random.Random(41)
    cfg = SearchConfig.default(GL2, exponent_box=4, shear_values=(1,))
    for _ in range(10):
        mats = [[[rng.randint(-1, 1) for _ in range(2)] for _ in range(2)]]
        pt = MAT2.point(mats)
        res = optimize([pt], ZERO, cfg)
        torus = optimize_torus([pt], ZERO)
        if torus is not None and not torus.trivial:
            assert res.status == OPTIMAL
            assert res.value_sq >= torus.value_sq


def test_optimize_not_witnessed_is_result():
    diag = MAT2.point([[[2, 0], [0, 3]]])
    cfg = SearchConfig.default(GL2, exponent_box=4, shear_values=(-1, 1))
    res = optimize([diag], ZERO, cfg)
    assert res.status == NOT_WITNESSED
    assert res.cocharacter is None and res.parabolic is None


def test_optimize_trivial_case():
    cfg = SearchConfig.default(GL2, exponent_box=3)
    res = optimize([MAT2.zero()], ZERO, cfg)
    assert res.status == TRIVIAL
    assert res.cocharacter.is_zero
    assert res.parabolic.is_whole_group


def test_optimize_requires_stability_assertion():
    s = SubvarietySpec.custom((Polynomial.coordinate(MAT2, 1),), g_stable_asserted=False)
    e12 = MAT2.point([[[0, 1], [0, 0]]])
    with pytest.raises(PreconditionError):
        optimize([e12], s, SearchConfig.default(GL2))


def test_optimize_rejects_unstable_custom_generators():
    # the span of {x_12} moves under conjugation: the spot check fires
    s = SubvarietySpec.custom((Polynomial.coordinate(MAT2, 1),), g_stable_asserted=True)
    e12 = MAT2.point([[[0, 1], [0, 0]]])
    cfg = SearchConfig.default(GL2, exponent_box=3, shear_values=(1,))
    with pytest.raises(InvariantViolation):
        optimize([e12], s, cfg)


def test_optimize_normalizer_containment():
    e13 = ConjugationTuples(GL3, 1).point([[[0, 0, 1], [0, 0, 0], [0, 0, 0]]])
    torus = linalg.mat([[2, 0, 0], [0, 3, 0], [0, 0, 2]])
    cfg = SearchConfig.default(GL3, exponent_box=4, normalizer_samples=(torus,))
    res = optimize([e13], ZERO, cfg)
    assert res.status == OPTIMAL
    assert classify(torus, res.cocharacter) is not MembershipClass.NOT_IN_P


# ---------------------------------------------------------------------------
# Cocharacter-closedness


def test_is_cochar_closed_spec_examples():
    cfg = SearchConfig.default(GL2, exponent_box=4, shear_values=(-2, -1, 1, 2))
    unip = MAT2.point([[[1, 1], [0, 1]]])
    verdict = is_cochar_closed(unip, cfg)
    assert not verdict.closed
    assert verdict.witness is not None
    assert verdict.witness_limit == (linalg.identity(2),)

    diag = MAT2.point([[[2, 0], [0, 3]]])
    assert is_cochar_closed(diag, SearchConfig.default(GL2, exponent_box=4)).closed

    rot = ConjugationTuples(SL2, 1).point([[[0, -1], [1, 0]]])
    cfg_sl = SearchConfig.default(SL2, exponent_box=4, shear_values=(-2, -1, 1, 2))
    verdict = is_cochar_closed(rot, cfg_sl)
    assert verdict.closed
    assert verdict.examined == ()


def test_is_cochar_closed_rejects_sym_power():
    from destab import UnsupportedRepresentationError

    sym = SymPower(GL2, 2)
    with pytest.raises(UnsupportedRepresentationError):
        is_cochar_closed(sym.monomial(0), SearchConfig.default(GL2))


# ---------------------------------------------------------------------------
# Signature enumeration is equivalent to raw box enumeration


def _signature(d):
    order = {x: r for r, x in enumerate(sorted(set(d), reverse=True))}
    return tuple(order[x] for x in d)


def _block_signatures(group, d):
    return tuple(_signature(d[block.start : block.stop]) for block in group.block_slices)


def _search_signature(group, d, pattern):
    """The ordering of each block, and which pattern pairs between two
    blocks are tight."""
    crossing = sorted((i, j) for i, j in pattern if group.block_of(i) != group.block_of(j))
    return _block_signatures(group, d), tuple(d[i] == d[j] for i, j in crossing)


@pytest.mark.parametrize(
    "group,box",
    [
        (GL2, 4),
        (GL3, 4),
        (GroupSpec.make(("GL", 4)), 4),
        (SL2, 4),
        (GroupSpec.make(("SL", 3)), 4),
        (GroupSpec.make(("GL", 2), ("SL", 2)), 3),
        (GroupSpec.make(("GL", 1), ("SL", 4)), 2),
        (GroupSpec.make(("GL", 1), ("SL", 4)), 4),
    ],
)
def test_admissible_exponents_cover_all_box_signatures(group, box):
    # one entry per search signature that some box vector has; on a single
    # factor that is the whole ordering.  Product groups also get patterns
    # with pairs between blocks.
    rng = random.Random(71)
    m = group.dimension
    within = [(i, j) for block in group.block_slices for i in block for j in block if i != j]
    patterns = [set(), {(0, 1)}, {(0, 1), (1, 0)}]
    for _ in range(10):
        patterns.append({p for p in within if rng.random() < 0.4})
    if len(group.factors) > 1:
        everywhere = [(i, j) for i in range(m) for j in range(m) if i != j]
        for _ in range(10):
            patterns.append({p for p in everywhere if rng.random() < 0.2})
    for pattern in patterns:
        listed = [_search_signature(group, d, pattern) for d in admissible_exponents(group, box, pattern)]
        assert len(set(listed)) == len(listed)
        raw = set()
        for d in _box_vectors(group, box):
            if any(d[i] < d[j] for i, j in pattern):
                continue
            sig = _search_signature(group, d, pattern)
            if all(max(block) == 0 for block in sig[0]) and all(sig[1]):
                continue
            raw.add(sig)
        assert set(listed) == raw


def _scan_box_vectors(group, box):
    """Reference: the full (2b+1)^m scan with an SL-sum filter that the
    product of the blocks' lists replaced."""
    sl_blocks = [b for f, b in zip(group.factors, group.block_slices) if f.family == "SL"]
    for d in itertools.product(range(-box, box + 1), repeat=group.dimension):
        if gcd(*d) == 1 and all(sum(d[b.start : b.stop]) == 0 for b in sl_blocks):
            yield d


def test_box_vectors_match_full_scan():
    groups = [
        GL3,
        GroupSpec.make(("SL", 2)),
        GroupSpec.make(("GL", 2), ("SL", 2)),
        GroupSpec.make(("GL", 1), ("SL", 3)),
    ]
    for group in groups:
        for box in (1, 2, 3):
            listed = list(_box_vectors(group, box))
            assert listed == list(_scan_box_vectors(group, box))
            assert listed and listed == sorted(listed)


def _reference_admissible_exponents(group, box, pattern):
    """Reference: the rank scan (one factor) and box scan (product groups)
    that the per-block enumeration replaced."""
    m = group.dimension
    if len(group.factors) == 1:
        out = []
        for ranks in _rank_vectors(m):
            k = max(ranks) + 1
            if k == 1:
                continue  # central directions never move anything
            if any(ranks[i] > ranks[j] for i, j in pattern):
                continue
            d = _canonical_exponents(group, ranks, k)
            if d is None or any(abs(x) > box for x in d):
                continue
            out.append(d)
        return out
    return _box_scan_exponents(group, box, pattern)


def _box_scan_exponents(group, box, pattern):
    """The first box vector of each ordering of the whole vector."""
    seen = set()
    out = []
    for d in _box_vectors(group, box):
        if any(d[i] < d[j] for i, j in pattern):
            continue
        order = {x: r for r, x in enumerate(sorted(set(d), reverse=True))}
        sig = tuple(order[x] for x in d)
        if max(sig) == 0:
            continue
        if sig in seen:
            continue
        seen.add(sig)
        out.append(d)
    return out


def _rank_vectors(m):
    """All weak orderings of m coordinates as contiguous rank vectors."""
    for ranks in itertools.product(range(m), repeat=m):
        k = max(ranks) + 1
        if set(ranks) == set(range(k)):
            yield ranks


def _canonical_exponents(group, ranks, k):
    m = group.dimension
    f = group.factors[0]
    levels = [k - 1 - r for r in ranks]
    if f.family == "GL":
        shift = (k - 1) // 2  # center the levels to fit a small box
        d = tuple(lv - shift for lv in levels)
    else:
        total = sum(levels)
        d = tuple(m * lv - total for lv in levels)
        if all(x == 0 for x in d):
            return None
    g = 0
    for x in d:
        g = gcd(g, abs(x))
    if g > 1:
        d = tuple(x // g for x in d)
    return d


@functools.cache
def _first_box_vectors(group, box):
    first = {}
    for d in _box_vectors(group, box):
        first.setdefault(_signature(d), d)
    return first


def _completed_rank_scan(group, box, pattern):
    """The rank scan with each ordering whose representative leaves the
    box given the first box vector with that ordering, in rank-vector
    order; orderings with no box vector stay out."""
    first = _first_box_vectors(group, box)
    out = []
    for ranks in _rank_vectors(group.dimension):
        k = max(ranks) + 1
        if k == 1 or any(ranks[i] > ranks[j] for i, j in pattern):
            continue
        d = _canonical_exponents(group, ranks, k)
        if any(abs(x) > box for x in d):
            d = first.get(ranks)
        if d is not None:
            out.append(d)
    return out


@pytest.mark.parametrize("family", ["GL", "SL"])
def test_admissible_exponents_match_reference_on_single_factors(family):
    # every pattern for m <= 3, seeded patterns above; order included.  GL
    # and SL_m for m <= 3 keep the rank scan's lists; SL_m for m >= 4 also
    # lists each ordering whose representative m * level - total leaves the
    # box, with its first box vector
    rng = random.Random(83)
    for m in range(1, 6):
        group = GroupSpec.make((family, m))
        pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
        if m <= 3:
            patterns = [set(c) for r in range(len(pairs) + 1) for c in itertools.combinations(pairs, r)]
        else:
            patterns = [set()] + [
                {p for p in pairs if rng.random() < q} for q in (0.1, 0.2, 0.3, 0.5) for _ in range(8)
            ]
        for box in (1, 2, 4):
            for pattern in patterns:
                expected = _reference_admissible_exponents(group, box, pattern)
                if family == "SL" and m >= 4:
                    completed = _completed_rank_scan(group, box, pattern)
                    assert [d for d in completed if d in expected] == expected
                    expected = completed
                assert admissible_exponents(group, box, pattern) == expected
    if family == "SL":
        # SL_4 at box 2 gains all 24 orderings of four distinct values and
        # the 24 of three distinct values with a repeated top or bottom one,
        # like (2, 0, -1, -1) for (5, 1, -3, -3)
        sl4 = GroupSpec.make(("SL", 4))
        gained = set(admissible_exponents(sl4, 2, set())) - set(_reference_admissible_exponents(sl4, 2, set()))
        assert sorted(len(set(d)) for d in gained) == [3] * 24 + [4] * 24


def _block_diagonal_matrix(rng, group):
    """Per block: upper triangular, full, or diagonal, with small entries."""
    m = group.dimension
    h = [[0] * m for _ in range(m)]
    for block in group.block_slices:
        kind = rng.random()
        for i in block:
            for j in block:
                if i == j:
                    h[i][j] = rng.choice((1, 1, 2, -1))
                elif (kind < 0.4 and i < j) or kind >= 0.8:
                    h[i][j] = rng.choice((0, 1, -1, 2))
    return h


def test_is_cochar_closed_product_groups_match_reference(monkeypatch):
    # the dropped product-group entries differ from kept ones only in how
    # the blocks are ordered against each other, which no block-diagonal
    # tuple sees: the verdict never moves
    shapes = [
        (("GL", 2), ("GL", 2)),
        (("GL", 2), ("SL", 2)),
        (("SL", 2), ("GL", 2)),
        (("GL", 3), ("GL", 1)),
    ]
    rng = random.Random(11)
    seen = dict(closed=0, open=0, shrunk=0)
    for k in range(60):
        group = GroupSpec.make(*shapes[k % len(shapes)])
        rep = ConjugationTuples(group, rng.randint(1, 2))
        cfg = SearchConfig.default(group, exponent_box=1)
        # a block frame of the searched family, so that some tuples are caught
        frame = rng.choice(_weyl_shear_family(group))
        inv = linalg.inverse(frame)
        mats = [
            linalg.mat_mul(linalg.mat_mul(frame, linalg.mat(_block_diagonal_matrix(rng, group))), inv)
            for _ in range(rep.count)
        ]
        v = rep.point(mats)
        new = is_cochar_closed(v, cfg)
        with monkeypatch.context() as patched:
            patched.setattr(instability, "admissible_exponents", _reference_admissible_exponents)
            old = _set_pattern_is_cochar_closed(v, cfg)
        assert new.closed == old.closed
        if new.closed:  # a full search; an open verdict stops at its witness
            assert len(new.examined) <= len(old.examined)
        seen["closed" if new.closed else "open"] += 1
        seen["shrunk"] += len(new.examined) < len(old.examined)
    assert all(count >= 10 for count in seen.values()), seen


def _closed_with_reference(v, cfg, monkeypatch):
    """The verdict, checked against the set-pattern search on the
    reference enumeration."""
    new = is_cochar_closed(v, cfg)
    with monkeypatch.context() as patched:
        patched.setattr(instability, "admissible_exponents", _reference_admissible_exponents)
        old = _set_pattern_is_cochar_closed(v, cfg)
    assert new.closed == old.closed
    return new.closed


def test_is_cochar_closed_sl4_block_matches_reference(monkeypatch):
    # on SL_4, m * level - total leaves the box for some orderings that a
    # smaller box vector has; a product group keeps them, as the box scan
    # did.  Below, <e1, e2> is a Jordan block with an invariant complement
    # off the coordinate planes: at box 2 only the flag <e1> < <e1, e2>
    # catches it, with (2, 0, -1, -1) on the SL_4 block.
    group = GroupSpec.make(("GL", 1), ("SL", 4))
    rep = ConjugationTuples(group, 1)
    h = [[1, 0, 0, 0, 0], [0, 1, 1, -1, 0], [0, 0, 1, -1, 1], [0, 0, 0, 0, 1], [0, 0, 0, 2, 0]]
    for box in (2, 4):
        cfg = SearchConfig.default(group, exponent_box=box)
        assert not _closed_with_reference(rep.point([h]), cfg, monkeypatch)
    rng = random.Random(17)
    cfg = SearchConfig.default(group, exponent_box=2)
    for _ in range(6):
        mats = [_block_diagonal_matrix(rng, group) for _ in range(rng.randint(1, 2))]
        _closed_with_reference(ConjugationTuples(group, len(mats)).point(mats), cfg, monkeypatch)


def test_is_cochar_closed_single_sl4_matches_box_scan(monkeypatch):
    # a Jordan block on <e1, e2> with an irreducible quotient: at box 2 only
    # the flag <e1> < <e1, e2> catches it, with (2, 0, -1, -1), which the
    # rank scan dropped because (5, 1, -3, -3) leaves the box
    group = GroupSpec.make(("SL", 4))
    rng = random.Random(41)
    a, b, t = rng.choice((1, -1)), rng.choice((1, -1, 2, -2)), rng.choice((-1, 0, 1))
    h = [[a, b] + [rng.randint(-2, 2) for _ in range(2)],
         [0, a] + [rng.randint(-2, 2) for _ in range(2)],
         [0, 0, 0, -1],
         [0, 0, 1, t]]  # x^2 - t x + 1 has no rational root
    cfg = SearchConfig.default(group, exponent_box=2)
    frame = rng.choice(_weyl_shear_family(group))
    h = linalg.mat_mul(linalg.mat_mul(frame, linalg.mat(h)), linalg.inverse(frame))
    group.require_member(h)
    v = ConjugationTuples(group, 1).point([h])
    verdict = is_cochar_closed(v, cfg)
    with monkeypatch.context() as patched:
        patched.setattr(instability, "admissible_exponents", _box_scan_exponents)
        assert not _set_pattern_is_cochar_closed(v, cfg).closed
        patched.setattr(instability, "admissible_exponents", _reference_admissible_exponents)
        assert _set_pattern_is_cochar_closed(v, cfg).closed  # the rank scan misses it
    assert not verdict.closed
    assert sorted(verdict.witness.torus.exponents, reverse=True) == [2, 0, -1, -1]


def test_is_cochar_closed_off_block_entries_match_reference(monkeypatch):
    # an entry between two factor blocks is decided by whether its two
    # exponents are equal, which the search varies for such tuples
    prod = GroupSpec.make(("GL", 1), ("GL", 1))
    v = ConjugationTuples(prod, 1).point([[[1, 1], [0, 1]]])
    assert not _closed_with_reference(v, SearchConfig.default(prod), monkeypatch)
    shapes = [(("GL", 1), ("GL", 1)), (("GL", 1), ("GL", 2)), (("GL", 2), ("SL", 2))]
    rng = random.Random(29)
    seen = dict(closed=0, open=0, off_block=0)
    for k in range(24):
        group = GroupSpec.make(*shapes[k % len(shapes)])
        m = group.dimension
        mats = []
        for _ in range(rng.randint(1, 2)):
            h = _block_diagonal_matrix(rng, group)
            i, j = rng.sample(range(m), 2)
            if group.block_of(i) != group.block_of(j):
                h[i][j] = rng.choice((1, -1))
                seen["off_block"] += 1
            mats.append(h)
        cfg = SearchConfig.default(group, exponent_box=rng.choice((1, 2)))
        closed = _closed_with_reference(ConjugationTuples(group, len(mats)).point(mats), cfg, monkeypatch)
        seen["closed" if closed else "open"] += 1
    assert all(count >= 5 for count in seen.values()), seen


# ---------------------------------------------------------------------------
# The per-cocharacter search that the in-frame, once-per-cocharacter one
# replaced


def _per_frame_family(group, frames):
    """A family as the frame-by-frame search walked it: the identity first
    unless present, without repeats."""
    family = [linalg.mat(g) for g in frames]
    if group.identity() not in family:
        family.insert(0, group.identity())
    return tuple(dict.fromkeys(family))


def _frame_pair(frame, inverse=None):
    """The pair (frame, frame^-1) of scaled values, the inverse taken by
    ``linalg.inverse`` unless given; None for no frame."""
    if frame is None:
        return None
    return linalg._Scaled.of(frame), linalg._Scaled.of(linalg.inverse(frame) if inverse is None else inverse)


def _pairs(cfg):
    """The held pair of each torus record of a configuration, in order."""
    return tuple(t.pair for t in cfg._tori)


@functools.cache
def _weyl_shear_family(group, values=()):
    """The frames ``SearchConfig.default`` walked before it generated its
    tori directly: each Weyl representative, alone and composed with each
    elementary shear; built once per group and values."""
    frames = [group.identity()]
    shears = group.shears(values) if values else ()
    for w in group.weyl_representatives():
        frames.append(w)
        for sh in shears:
            frames.append(linalg.mat_mul(w, sh))
    return _per_frame_family(group, frames)


@functools.cache
def _reference_frame(frame):
    """A frame's inverse and its pair, built once per frame."""
    inv = linalg.inverse(frame)
    return inv, _frame_pair(frame, inv)


def _reference_frame_cocharacters(mats, cfg, frames):
    for frame in frames:
        inv, pair = _reference_frame(frame)
        tmats = [linalg.mat_mul(linalg.mat_mul(inv, h), frame) for h in mats]
        for exps in admissible_exponents(cfg.group, cfg.exponent_box, _entry_pattern(tmats)):
            yield Cocharacter._on_frame(cfg.group, frame, pair, exps), tmats


def _on_bases(verdict, cfg):
    """The verdict with ``examined`` cut to the cocharacters on the
    configuration's torus bases."""
    bases = set(cfg.conjugation_family)
    examined = tuple(lam for lam in verdict.examined if lam.base in bases)
    return dataclasses.replace(verdict, examined=examined)


def _assert_valid_witness(v, verdict):
    """A not-closed verdict's limit exists and admits no radical conjugator."""
    rep = v.rep
    lam = verdict.witness
    moved = limit(v, lam)
    assert moved is not None and rep.matrices(moved) == verdict.witness_limit
    assert find_ru_conjugator(v, moved, lam) is None


def _gl_only(group):
    return all(f.family == "GL" for f in group.factors)


def _assert_same_verdict(v, verdict, reference, cfg):
    """On GL groups the search over tori is the per-frame search on the
    torus bases; elsewhere its witness may differ and is checked."""
    if _gl_only(cfg.group):
        assert verdict == _on_bases(reference, cfg)
    else:
        assert verdict.closed == reference.closed
        if not verdict.closed:
            _assert_valid_witness(v, verdict)


def _reference_is_cochar_closed(v, cfg, frames):
    """Reference: one find_ru_conjugator call per examined cocharacter of
    every frame, with the limit moved back to input coordinates first."""
    rep = v.rep
    if not isinstance(rep, ConjugationTuples):
        raise UnsupportedRepresentationError(
            "cocharacter-closedness needs a conjugation-tuple representation"
        )
    if rep.group != cfg.group:
        raise DimensionError("configuration group differs from the representation group")
    examined = []
    for lam, tmats in _reference_frame_cocharacters(rep.matrices(v), cfg, frames):
        examined.append(lam)
        limit_t = [_limit_pattern(h, lam.torus.exponents) for h in tmats]
        if limit_t == tmats:
            continue  # the identity conjugator works
        limit_mats = tuple(
            linalg.mat_mul(linalg.mat_mul(lam.base, h), lam.base_inverse) for h in limit_t
        )
        u = find_ru_conjugator(v, rep.point(limit_mats), lam)
        if u is None:
            return CocharClosedVerdict(
                False,
                fold_permutation_base(lam),
                limit_mats,
                tuple(examined),
                cfg.exponent_box,
            )
    return CocharClosedVerdict(True, None, None, tuple(examined), cfg.exponent_box)


CORPUS_SHEARS = (-2, -1, 1, 2)  # the shear values of ``corpus_config``


def _gl_corpus():
    """The subgroups of ``subgroup_corpus(1, 64)`` and the GL ones of
    ``subgroup_corpus(2, 200)``."""
    second = [h for h in subgroup_corpus(2, 200) if _gl_only(h.group)]
    return subgroup_corpus(1, 64) + second


def test_is_cochar_closed_matches_reference_on_corpus():
    seen = dict(closed=0, open=0)
    examined = reference_examined = 0
    for h in _gl_corpus():
        v = h.tuple_point()
        cfg = corpus_config(h.group)
        verdict = is_cochar_closed(v, cfg)
        reference = _reference_is_cochar_closed(v, cfg, _weyl_shear_family(h.group, CORPUS_SHEARS))
        assert verdict == _on_bases(reference, cfg)
        seen["closed" if verdict.closed else "open"] += 1
        examined += len(verdict.examined)
        reference_examined += len(reference.examined)
    assert all(count >= 10 for count in seen.values()), seen
    assert (examined, reference_examined) == (1778, 8415)


def _moved(flat, m):
    """The moved matrices of one torus of ``instability._torus_moves`` as
    scaled values."""
    return [linalg._Scaled(_unflatten(acc, m), s) for acc, s in flat]


def _twisted(mats, rng, twists=(F(1, 2), F(-1, 2), F(2), F(-2))):
    return [linalg.mat_scale(rng.choice(twists), g) for g in mats]


def test_moved_tuples_match_fraction_products():
    # every torus of the corpus configurations, generators twisted by
    # +-1/2 and +-2: the integer tuple over its scale is inv h frame
    rng = random.Random(61)
    tori = 0
    for seed in (1, 2):
        for h in subgroup_corpus(seed, 60):
            cfg = corpus_config(h.group)
            mats = _twisted(h.generators, rng)
            point = ConjugationTuples(cfg.group, len(mats)).point(mats)
            moved = [(t, _moved(flat, h.group.dimension)) for t, flat, _ in instability._torus_moves(point, cfg)]
            assert [t for t, _ in moved] == list(cfg._tori)
            for frame, (torus, tmats) in zip(cfg.conjugation_family, moved):
                pair = torus.pair
                assert torus.frame is frame
                inv = linalg.inverse(frame)
                assert pair == _frame_pair(frame, inv)
                assert all(type(x) is int for t in tmats for row in t.rows for x in row)
                assert all(type(t.scale) is int and t.scale > 0 for t in tmats)
                expected = [linalg.mat_mul(linalg.mat_mul(inv, g), frame) for g in mats]
                assert [t.fractions() for t in tmats] == expected
                tori += 1
    assert tori >= 120 * 7, tori


# ---------------------------------------------------------------------------
# The set-pattern closedness search that the bitmask one replaced, kept as a
# reference: every torus's moved tuple built as scaled values, its entry
# pattern taken as a set of pairs, one checked cocharacter built per
# admissible entry, its limit built and compared with the tuple, and its
# flag read by a sort of its exponents


def _moved_tuples(mats, cfg):
    """Torus by torus, its record (an entry of ``SearchConfig._tori``) and
    the tuple moved into the base frame, base^-1 h base for each matrix h,
    as scaled values."""
    m = cfg.group.dimension
    flat = []
    for h in mats:
        h = linalg._Scaled.of(h)
        flat.append(([(kl, x) for kl, x in enumerate(itertools.chain.from_iterable(h.rows)) if x], h.scale))
    for torus in cfg._tori:
        operator = torus.operator
        moved = []
        for terms, s in flat:
            acc = operator.moved(terms)
            moved.append(linalg._Scaled(tuple(tuple(acc[i : i + m]) for i in range(0, m * m, m)), operator.scale * s))
        yield torus, moved


def _frame_cocharacters(mats, cfg):
    """Torus by torus, each admissible cocharacter whose parabolic contains
    the tuple, with the torus's record and the tuple moved into its base
    frame as ``_moved_tuples`` gives it; the enumeration is read through
    the module, so a test may replace it."""
    for torus, moved in _moved_tuples(mats, cfg):
        for exps in instability.admissible_exponents(cfg.group, cfg.exponent_box, _entry_pattern(t.rows for t in moved)):
            yield torus, Cocharacter._on_frame(cfg.group, torus.frame, torus.pair, exps), moved


def _flag(torus, d):
    """The flag key of the cocharacter with exponents d on the torus of
    that record: the ``_column_space`` of the base columns i with d_i >= c,
    for each distinct exponent c but the smallest, largest first, kept in
    the record's spaces."""
    spaces = torus._spaces
    key = []
    mask = 0
    for c in sorted(set(d), reverse=True)[:-1]:
        for i, x in enumerate(d):
            if x == c:
                mask |= 1 << i
        space = spaces.get(mask)
        if space is None:
            space = spaces[mask] = instability._column_space(torus.pair[0], mask)
        key.append(space)
    return tuple(key)


def _set_pattern_is_cochar_closed(v, cfg):
    """Reference: the closedness search on the set pattern of each torus,
    solving through the module's ``_radical_conjugator``, so that a test
    may count its calls."""
    rep = v.rep
    table = instability._representatives(cfg.group.factors, cfg.exponent_box)
    examined = []
    solved = set()
    for torus, lam, moved in _frame_cocharacters(rep.matrices(v), cfg):
        examined.append(lam)
        d = lam.torus.exponents
        tmats = [t.rows for t in moved]
        limit_t = [_limit_pattern(h, d) for h in tmats]
        if limit_t == tmats:
            continue  # the identity conjugator works
        key = _flag(torus, d)
        if key in solved:
            continue
        if instability._radical_conjugator(tmats, limit_t, lam, table.record(d)[4:]) is None:
            limit_mats = tuple(lam._from_frame(t._replace(rows=h)) for t, h in zip(moved, limit_t))
            return CocharClosedVerdict(False, fold_permutation_base(lam), limit_mats, tuple(examined), cfg.exponent_box)
        solved.add(key)
    return CocharClosedVerdict(True, None, None, tuple(examined), cfg.exponent_box)


def _diagonal_gl(m):
    """The diagonal GL_m tuple diag(1, ..., m) and the default configuration
    with shears (-2, -1, 1, 2)."""
    group = GroupSpec.make(("GL", m))
    v = ConjugationTuples(group, 1).point([linalg.mat([[i + 1 if i == j else 0 for j in range(m)] for i in range(m)])])
    return v, SearchConfig.default(group, shear_values=(-2, -1, 1, 2))


def test_is_cochar_closed_matches_set_pattern_reference(monkeypatch):
    # the corpus under its configuration, seeded GL_2 x SL_2 tuples with
    # entries between blocks, seeded SL_3 tuples, and the diagonal GL_4 and
    # GL_5 tuples: the same verdict, witness, witness limits and examined
    # cocharacters in order, and the same cocharacters handed to the
    # conjugator solver, each search on a configuration of its own
    solved = _counting_solves(monkeypatch)
    inputs = [(h.tuple_point(), lambda g=h.group: corpus_config(g)) for seed, size in ((1, 64), (2, 200), (3, 100)) for h in subgroup_corpus(seed, size)]
    gl2_sl2 = (("GL", 2), ("SL", 2))
    for v in _crossing_tuples(random.Random(141), [gl2_sl2], 24):
        inputs.append((v, lambda g=v.rep.group: SearchConfig.default(g, exponent_box=2, shear_values=(1, -1))))
    sl3 = GroupSpec.make(("SL", 3))
    for v in _closedness_points(sl3, random.Random(142), 12):
        inputs.append((v, lambda: SearchConfig.default(sl3, exponent_box=2, shear_values=(-1, 2))))
    for m in (4, 5):
        v, _ = _diagonal_gl(m)
        inputs.append((v, lambda m=m: _diagonal_gl(m)[1]))
    seen = dict(closed=0, open=0, crossing=0, solves=0)
    for v, config in inputs:
        solved.clear()
        verdict = is_cochar_closed(v, config())
        handed = list(solved)
        solved.clear()
        reference = _set_pattern_is_cochar_closed(v, config())
        assert verdict == reference  # witness, witness limits and examined, in order
        assert handed == solved
        seen["closed" if verdict.closed else "open"] += 1
        seen["crossing"] += any(v.rep.group.block_of(i) != v.rep.group.block_of(j) for i, j in _entry_pattern(v.rep.matrices(v)))
        seen["solves"] += len(handed)
    assert seen["crossing"] >= 15 and min(seen.values()) >= 15, seen


def _closedness_record(verdict, cfg):
    """A verdict as JSON-ready data, rationals as strings: the verdict, the
    witness (base and exponents), the witness limit, and each examined
    cocharacter as (index of its base in the configuration's family,
    exponents)."""
    family = cfg.conjugation_family
    index_of = {}  # id of a base -> its index, each base looked up once by equality

    def index(base):
        i = index_of.get(id(base))
        if i is None:
            i = index_of[id(base)] = family.index(base)
        return i

    def rationals(mat):
        return [[str(x) for x in row] for row in mat]

    w = verdict.witness
    return {
        "closed": verdict.closed,
        "box": verdict.box,
        "witness": None if w is None else {"base": rationals(w.base), "exponents": list(w.torus.exponents)},
        "witness_limit": None if verdict.witness_limit is None else [rationals(h) for h in verdict.witness_limit],
        "examined": [[index(lam.base), list(lam.torus.exponents)] for lam in verdict.examined],
    }


def _closedness_pin_inputs():
    """``subgroup_corpus(1, 64)``, ``(2, 200)`` and ``(3, 100)`` under
    ``corpus_config``, then the diagonal GL_4 and GL_5 tuples."""
    inputs = [(h.tuple_point(), corpus_config(h.group)) for seed, size in ((1, 64), (2, 200), (3, 100)) for h in subgroup_corpus(seed, size)]
    return inputs + [_diagonal_gl(m) for m in (4, 5)]


# sha256 of the sorted-key JSON of _closedness_record over the inputs of
# _closedness_pin_inputs, in order: 366 verdicts, 115 of them not closed,
# and 30,600 examined cocharacters
_CLOSEDNESS_DIGEST = "10ece8f3d38fcc178189b82a5ecad72d739cd70c9657f5664c68f42cf03b902c"


def test_closedness_search_outputs_pinned():
    records = [_closedness_record(is_cochar_closed(v, cfg), cfg) for v, cfg in _closedness_pin_inputs()]
    assert len(records) == 366
    assert sum(not r["closed"] for r in records) == 115
    assert sum(len(r["examined"]) for r in records) == 30600
    canon = json.dumps(records, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(canon).hexdigest() == _CLOSEDNESS_DIGEST


def _optimization_record(result):
    """An ``OptimizationResult`` as JSON-ready data, rationals as strings:
    status, value, global verification, the cocharacter's base and
    exponents, the parabolic's flags and the whole certificate."""

    def rational(x):
        return None if x is None else str(x)

    def rationals(mat):
        return [[str(x) for x in row] for row in mat]

    lam, cert = result.cocharacter, result.certificate
    return {
        "status": result.status,
        "value_sq": rational(result.value_sq),
        "global_verified": result.global_verified,
        "cocharacter": None if lam is None else {"base": rationals(lam.base), "exponents": list(lam.torus.exponents)},
        "parabolic": None if result.parabolic is None else [[rationals(space) for space in chain] for chain in result.parabolic.flags],
        "certificate": {
            "frames": [[f.frame_index, None if f.exponents is None else list(f.exponents), rational(f.value_sq)] for f in cert.frames],
            "active_objective": [list(chi.weights) for chi in cert.active_objective],
            "active_cone": [list(chi.weights) for chi in cert.active_cone],
            "oracle_value_sq": rational(cert.oracle_value_sq),
            "oracle_box": cert.oracle_box,
            "norm_gram": None if cert.norm_gram is None else rationals(cert.norm_gram),
        },
    }


def _kempf_workload_results(monkeypatch, tmp_path):
    """The results of one round of the 42 ``kempf-optimize`` cases of
    ``bench/workloads.py`` at seeds 1, 2, 3 and 5, built and run as the
    workload builds and runs them: nilpotents and binary forms through
    ``optimize``, unipotent generators through
    ``gcr.optimal_parabolic_subgroup``.  The workload module is imported
    from ``bench/`` without writing bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    results = []
    for seed in (1, 2, 3, 5):
        state = workloads._build_kempf(seed, tmp_path)
        for case in workloads._round_kempf(state):
            cfg = state["configs"][case.inputs["config"]]
            if case.kind == "unipotent":
                h = gcr.SubgroupPresentation(case.inputs["group"], case.inputs["data"])
                results.append(gcr.optimal_parabolic_subgroup(h, cfg))
            else:
                results.append(optimize(case.live["points"], case.live["subvariety"], cfg))
    return results


# sha256 of the sorted-key JSON of _optimization_record over the results of
# _kempf_workload_results, in order: 168 results, 42 per seed, all optimal,
# 48 of them globally verified, with 640 frame outcomes
_OPTIMIZE_DIGEST = "e23f5954841bc131627a77e5573ad4dfed37476b61f0e454943b416de99b6d51"


def test_optimize_outputs_pinned(monkeypatch, tmp_path):
    records = [_optimization_record(r) for r in _kempf_workload_results(monkeypatch, tmp_path)]
    assert len(records) == 168 and all(r["status"] == OPTIMAL for r in records)
    assert sum(r["global_verified"] for r in records) == 48
    assert sum(len(r["certificate"]["frames"]) for r in records) == 640
    canon = json.dumps(records, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(canon).hexdigest() == _OPTIMIZE_DIGEST


def _primitive_rows(space):
    """An RREF basis with each row made the primitive integer row on its
    line."""
    return tuple(linalg._line(linalg._integer_row(row)) for row in space)


def _whole_space_flag(lam):
    """Reference: the flag of lambda in the whole space, largest exponent
    first, each space the ``linalg.row_space`` of the base columns whose
    exponent is at least the cut, all but the smallest cut."""
    d = lam.torus.exponents
    columns = linalg.transpose(lam.base)
    return tuple(
        _primitive_rows(linalg.row_space(tuple(col for col, x in zip(columns, d) if x >= cut)))
        for cut in sorted(set(d), reverse=True)[:-1]
    )


def test_flag_is_the_whole_space_flag():
    # every cocharacter the set-pattern search examines whose limit moves
    # the tuple: its key, read off its level masks by the torus record, is
    # its flag and the key the sort read; on the one-factor corpus groups it
    # is the one flag of its parabolic descriptor.  The corpus, seeded
    # tuples on the search-table groups, and seeded tuples with entries
    # between blocks
    cases = [(h.generators, corpus_config(h.group)) for h in subgroup_corpus(1, 64)]
    rng = random.Random(139)
    for group in SEARCH_TABLE_GROUPS:
        cfg = SearchConfig.default(group, exponent_box=2, shear_values=(-1, 1))
        cases += [(v.rep.matrices(v), cfg) for v in _closedness_points(group, rng, 4)]
    shapes = [(("GL", 2), ("SL", 2)), (("GL", 1), ("GL", 2))]
    for v in _crossing_tuples(random.Random(140), shapes, 8):
        cases.append((v.rep.matrices(v), SearchConfig.default(v.rep.group, exponent_box=2, shear_values=(1, -1))))
    keys = set()
    checked = crossing = 0
    for mats, cfg in cases:
        table = instability._representatives(cfg.group.factors, cfg.exponent_box)
        for torus, lam, moved in _frame_cocharacters(mats, cfg):
            d = lam.torus.exponents
            if [_limit_pattern(t.rows, d) for t in moved] == [t.rows for t in moved]:
                continue
            key = torus.flag(table.record(d)[3])
            assert key == _whole_space_flag(lam) == _flag(torus, d)
            if len(cfg.group.factors) == 1:
                (chain,) = ParabolicDescriptor.from_cocharacter(lam).flags
                assert key == tuple(map(_primitive_rows, chain))
            keys.add(key)
            checked += 1
            crossing += bool(_entry_pattern(t.rows for t in moved) & _crossing_pairs(cfg.group))
        m = cfg.group.dimension
        assert all(0 < mask < (1 << m) - 1 for t in cfg._tori for mask in t._spaces)
    assert checked >= 600 and len(keys) >= 40 and crossing >= 20, (checked, len(keys), crossing)


def _crossing_pairs(group):
    """The off-diagonal pairs (i, j) between two factor blocks."""
    m = group.dimension
    return {(i, j) for i in range(m) for j in range(m) if group.block_of(i) != group.block_of(j)}


def test_is_cochar_closed_matches_reference_on_twisted_corpus():
    # the scales of twisted generators reach the limits the verdict returns
    rng = random.Random(62)
    seen = dict(closed=0, open=0)
    for h in subgroup_corpus(1, 64):
        mats = _twisted(h.generators, rng)
        v = ConjugationTuples(h.group, len(mats)).point(mats)
        cfg = corpus_config(h.group)
        verdict = is_cochar_closed(v, cfg)
        reference = _reference_is_cochar_closed(v, cfg, cfg.conjugation_family)
        assert verdict == reference
        if not verdict.closed:
            assert all(type(x) is F for g in verdict.witness_limit for row in g for x in row)
            _assert_valid_witness(v, verdict)
        seen["closed" if verdict.closed else "open"] += 1
    assert all(count >= 10 for count in seen.values()), seen


def test_is_cochar_closed_matches_reference_on_product_groups():
    # block frames with shears, so that cocharacters recur across frames,
    # and some entries between two blocks
    shapes = [(("GL", 2), ("GL", 2)), (("GL", 2), ("SL", 2)), (("GL", 1), ("GL", 2))]
    rng = random.Random(53)
    seen = dict(closed=0, open=0, off_block=0)
    for k in range(18):
        group = GroupSpec.make(*shapes[k % len(shapes)])
        m = group.dimension
        cfg = SearchConfig.default(group, exponent_box=rng.choice((1, 2)), shear_values=(1, -1))
        frames = _weyl_shear_family(group, (1, -1))
        frame = rng.choice(frames)
        inv = linalg.inverse(frame)
        mats = []
        for _ in range(rng.randint(1, 2)):
            h = _block_diagonal_matrix(rng, group)
            if k % 2:
                i, j = rng.sample(range(m), 2)
                if group.block_of(i) != group.block_of(j):
                    h[i][j] = rng.choice((1, -1))
                    seen["off_block"] += 1
            mats.append(linalg.mat_mul(linalg.mat_mul(frame, linalg.mat(h)), inv))
        v = ConjugationTuples(group, len(mats)).point(mats)
        verdict = is_cochar_closed(v, cfg)
        _assert_same_verdict(v, verdict, _reference_is_cochar_closed(v, cfg, frames), cfg)
        seen["closed" if verdict.closed else "open"] += 1
    assert all(count >= 3 for count in seen.values()), seen


def test_lie_is_gcr_matches_reference(monkeypatch):
    # a toral line (a full search) and the strictly upper triangular algebra
    toral = LieSubalgebra(GL3, (((1, 0, 0), (0, 2, 0), (0, 0, -3)),))
    nil = LieSubalgebra(GL3, (((0, 1, 0), (0, 0, 0), (0, 0, 0)), ((0, 0, 1), (0, 0, 0), (0, 0, 0)), ((0, 0, 0), (0, 0, 1), (0, 0, 0))))
    cfg = SearchConfig.default(GL3, exponent_box=2, shear_values=(1, -2))
    verdicts = [lie_is_gcr(lie, cfg) for lie in (toral, nil)]
    frames = _weyl_shear_family(GL3, (1, -2))
    monkeypatch.setattr(gcr, "is_cochar_closed", lambda v, c: _on_bases(_reference_is_cochar_closed(v, c, frames), c))
    assert verdicts == [lie_is_gcr(lie, cfg) for lie in (toral, nil)]
    assert [v.is_completely_reducible for v in verdicts] == [True, False]
    assert len(verdicts[0].examined) == 96  # every torus searched


def _counting_solves(monkeypatch):
    """The cocharacters handed to the conjugator solver, in order."""
    solve = instability._radical_conjugator
    solved = []

    def counted(hs, hs_prime, lam, *radical):
        solved.append(lam)
        return solve(hs, hs_prime, lam, *radical)

    monkeypatch.setattr(instability, "_radical_conjugator", counted)
    return solved


def test_is_cochar_closed_solves_each_flag_once(monkeypatch):
    # stream index 16 is completely reducible with 47 entries examined,
    # every one moving the tuple: 31 distinct lambda(2) but 3 distinct
    # flags, and the conjugator system is solved once per flag
    h = subgroup_corpus(1, 64)[16]
    cfg = corpus_config(h.group)
    solved = _counting_solves(monkeypatch)
    verdict = is_cochar_closed(h.tuple_point(), cfg)
    assert verdict.closed and len(verdict.examined) == 47
    moving = [lam for lam in verdict.examined if c_lambda(h.generators, lam) != h.generators]
    assert len(moving) == 47 and len({lam.evaluate(2) for lam in moving}) == 31
    flags = {_whole_space_flag(lam) for lam in moving}
    assert len({_whole_space_flag(lam) for lam in solved}) == len(solved) == len(flags) == 3
    monkeypatch.undo()
    reference = _reference_is_cochar_closed(h.tuple_point(), cfg, _weyl_shear_family(h.group, CORPUS_SHEARS))
    assert verdict == _on_bases(reference, cfg)


def test_is_cochar_closed_diagonal_gl4_solves_once_per_flag(monkeypatch):
    # the diagonal GL_4 tuple under the default shears examines 2,138
    # cocharacters, as the search keyed on lambda(2) did while it solved
    # 1,488 systems; one system is solved per distinct flag among those
    # whose limit moves the tuple
    group = GroupSpec.make(("GL", 4))
    cfg = SearchConfig.default(group, shear_values=(-2, -1, 1, 2))
    v = ConjugationTuples(group, 1).point([linalg.mat([[i + 1 if i == j else 0 for j in range(4)] for i in range(4)])])
    solved = _counting_solves(monkeypatch)
    verdict = is_cochar_closed(v, cfg)
    assert verdict.closed and len(verdict.examined) == 2138
    moving = [lam for lam in verdict.examined if limit(v, lam) != v]
    assert len({_whole_space_flag(lam) for lam in moving}) == len(solved) == 74


def test_is_cochar_closed_diagonal_gl5_examines_and_solves_as_pinned(monkeypatch):
    # the diagonal GL_5 tuple under the default shears: 81 tori, 25,100
    # cocharacters examined and 540 systems solved, one per distinct flag,
    # well within a generous time budget
    v, cfg = _diagonal_gl(5)
    solved = _counting_solves(monkeypatch)
    start = time.perf_counter()
    verdict = is_cochar_closed(v, cfg)
    took = time.perf_counter() - start
    assert verdict.closed and len(cfg._tori) == 81
    assert len(verdict.examined) == 25100 and len(solved) == 540
    assert len({_whole_space_flag(lam) for lam in solved}) == 540
    assert took < 10.0, took


def _crossing_tuples(rng, shapes, count):
    """Seeded block-diagonal tuples with up to two entries between blocks
    per matrix."""
    for k in range(count):
        group = GroupSpec.make(*shapes[k % len(shapes)])
        m = group.dimension
        mats = []
        for _ in range(rng.randint(1, 2)):
            h = _block_diagonal_matrix(rng, group)
            for _ in range(rng.randint(1, 2)):
                i, j = rng.sample(range(m), 2)
                if group.block_of(i) != group.block_of(j):
                    h[i][j] = rng.choice((1, -1, 2))
            mats.append(linalg.mat(h))
        yield ConjugationTuples(group, len(mats)).point(mats)


def test_is_cochar_closed_skips_only_cocharacters_with_a_conjugator(monkeypatch):
    # every moving cocharacter the search examines but does not solve
    # shares its flag with one solved before it, so a radical conjugator
    # exists for it too: solve each of them through find_ru_conjugator
    solved = _counting_solves(monkeypatch)
    inputs = [(h.tuple_point(), corpus_config(h.group)) for h in subgroup_corpus(1, 64) + subgroup_corpus(2, 200)]
    shapes = [(("GL", 1), ("GL", 2)), (("GL", 2), ("SL", 2)), (("GL", 1),) * 3, (("SL", 2), ("GL", 1))]
    for v in _crossing_tuples(random.Random(72), shapes, 40):
        inputs.append((v, SearchConfig.default(v.rep.group, exponent_box=2, shear_values=(1, -1))))
    toral = LieSubalgebra(GL3, (((1, 0, 0), (0, 2, 0), (0, 0, -3)),))
    inputs.append((toral.tuple_point(), SearchConfig.default(GL3, exponent_box=2, shear_values=(1, -2))))
    skipped = []
    for v, cfg in inputs:
        solved.clear()
        verdict = is_cochar_closed(v, cfg)
        handed = set(map(id, solved))
        skipped.append(0)
        for lam in verdict.examined:
            moved = limit(v, lam)
            if moved != v and id(lam) not in handed:
                assert find_ru_conjugator(v, moved, lam) is not None
                skipped[-1] += 1
    corpus, crossing, lie = sum(skipped[:264]), sum(skipped[264:-1]), skipped[-1]
    # on these crossing tuples, keying on the per-factor descriptor would
    # skip three cocharacters that have no conjugator
    assert corpus >= 800 and crossing >= 3 and lie >= 40, (corpus, crossing, lie)


def test_is_cochar_closed_keys_on_the_whole_space_flag_not_per_factor():
    # an entry between the two blocks of GL_2 x SL_2: (-1, -2, 1, -1)
    # receives a conjugator and (-1, -2, 2, -2), with the same per-factor
    # flags, has none, because the two order the levels of the blocks
    # differently; keying the search on the parabolic descriptor would
    # skip the failure
    group = GroupSpec.make(("GL", 2), ("SL", 2))
    cfg = SearchConfig.default(group, exponent_box=2, shear_values=(1, -1))
    v = ConjugationTuples(group, 1).point([linalg.mat([[1, 0, 0, -1], [0, 1, 0, 0], [0, 0, -1, 1], [0, 0, 0, 1]])])
    verdict = is_cochar_closed(v, cfg)
    assert not verdict.closed and len(verdict.examined) == 4
    solved, failed = verdict.examined[2:]
    assert solved.base == failed.base == group.identity()
    assert (solved.torus.exponents, failed.torus.exponents) == ((-1, -2, 1, -1), (-1, -2, 2, -2))
    assert verdict.witness == failed
    assert ParabolicDescriptor.from_cocharacter(solved) == ParabolicDescriptor.from_cocharacter(failed)
    assert _whole_space_flag(solved) != _whole_space_flag(failed)
    assert find_ru_conjugator(v, limit(v, solved), solved) is not None
    assert find_ru_conjugator(v, limit(v, failed), failed) is None
    _assert_valid_witness(v, verdict)


# ---------------------------------------------------------------------------
# Tori: the frame-by-frame computations that the search over tori
# replaced, kept as references


def _reference_contains_point(s, x):
    """Reference: every generator of S evaluated at x."""
    return all(g.evaluate(x) == 0 for g in s.generators(x.rep))


def _reference_frame_weights(v, frame):
    """Reference: v moved into the frame of a checked pair (base, base^-1)
    as a point, or v itself when the frame is None, and the weights of the
    moved point's nonzero coordinates."""
    if frame is not None:
        v = v.rep._act(frame[::-1], v)
    return v, [chi for chi, c in zip(v.rep.weights, v.coords) if c]


def _reference_frame_forms(points, s, frame):
    """Reference: ``_frame_forms`` with every isotypic component of S's
    generators evaluated at each moved point, the plain generators for a
    built-in subvariety and the generators composed with the frame for a
    custom one."""
    rep = points[0].rep
    composing = None if frame is None or s.kind is not SubvarietyKind.CUSTOM else frame[0].fractions()
    iso = s.isotypic_data(rep, composing)
    out = []
    for x in points:
        moved, support = _reference_frame_weights(x, frame)
        out.append((support, {chi for parts in iso for chi, part in parts if part.evaluate(moved) != 0}))
    return out


def _reference_weight_sets(per_point):
    """Reference: the frozenset ``_weight_sets`` that the class masks
    replaced, one frame's forms merged, the nonzero support weights and the
    objective forms."""
    cone = {chi for support, _ in per_point for chi in support if not chi.is_zero()}
    return frozenset(cone), frozenset(set().union(*(forms for _, forms in per_point)))


def _reference_sets_oracle_best_value(weight_sets, group, box):
    """Reference: the frozenset ``_oracle_best_value`` that the class masks
    and the configuration's table replaced, every box vector paired with
    every weight of every frame's ``_reference_weight_sets``, repeated sets
    swept again."""
    vectors = list(_box_vectors(group, box))
    best_num, best_den = 0, 1  # the best a^2 / |d|^2 so far, 0 for none
    for cone, objective in weight_sets:
        if not objective:
            continue  # every point is in S; infinite order
        support = [chi.weights for chi in cone]
        forms = [chi.weights for chi in objective]
        for d in vectors:
            if any(sum(map(operator.mul, d, w)) < 0 for w in support):
                continue
            a = min(sum(map(operator.mul, d, w)) for w in forms)
            if a > 0:
                n = group.norm._int_value_sq(d)
                if a * a * best_den > best_num * n:
                    best_num, best_den = a * a, n
    return F(best_num, best_den) if best_num else None


def _decoded(rep, per_point):
    """The class masks of ``_frame_forms`` per point, decoded to the sets of
    weights they stand for; every bit set is a class of the
    representation's table."""
    classes = instability._weight_classes(rep)
    for masks in per_point:
        assert all(mask >> len(classes.characters) == 0 for mask in masks)
    return [tuple(set(classes.decode(mask)) for mask in masks) for masks in per_point]


def _reference_torus_optimum(per_point, group):
    """Reference: the torus optimum of one frame's forms, solved on every
    call, with no memo."""
    return instability._torus_optimum(*_reference_weight_sets(per_point), group)


def _reference_fixes_input(g, points, s):
    """Reference: whether g fixes the point set, acting through public
    ``act``, and, for a custom subvariety, S."""
    rep = points[0].rep
    if {rep.act(g, x) for x in points} != set(points):
        return False
    return s.kind is not SubvarietyKind.CUSTOM or s.stable_under(g, rep)


def _reference_optimize(points, s, cfg, frames):
    """Reference: ``optimize`` with frame forms, a torus optimum and an
    oracle sweep for every frame of a per-frame family, and each tied
    cocharacter inverted anew."""
    from destab.instability import (
        FrameOutcome,
        OptimizationResult,
        ParabolicDescriptor,
        SearchCertificate,
        _check_custom_stability,
        _whole_group_descriptor,
    )
    from destab.groups import norm_sq

    points = tuple(points)
    rep = points[0].rep
    group = cfg.group
    _check_custom_stability(s, rep, cfg)

    if all(_reference_contains_point(s, x) for x in points):
        zero = Cocharacter.standard(group, (0,) * group.dimension)
        cert = SearchCertificate((), (), (), norm_gram=group.norm.gram)
        return OptimizationResult(
            TRIVIAL, zero, None, _whole_group_descriptor(group), cert, cfg.oracle_mode
        )

    frame_forms = [_reference_frame_forms(points, s, _frame_pair(frame)) for frame in frames]
    outcomes = []
    candidates = []
    for idx, (frame, per_point) in enumerate(zip(frames, frame_forms)):
        opt = _reference_torus_optimum(per_point, group)
        if opt is None or opt.trivial:
            outcomes.append(FrameOutcome(idx, None, None))
        else:
            outcomes.append(FrameOutcome(idx, opt.exponents, opt.value_sq))
            candidates.append((opt, idx, frame))

    oracle_value, oracle_box = (None, None)
    if cfg.oracle_mode:
        oracle_value = _reference_sets_oracle_best_value(list(map(_reference_weight_sets, frame_forms)), group, cfg.exponent_box)
        oracle_box = cfg.exponent_box

    if not candidates:
        cert = SearchCertificate(
            tuple(outcomes), (), (), oracle_value, oracle_box, group.norm.gram
        )
        if oracle_value is not None:
            raise InvariantViolation("oracle found a destabilizing direction the optimizer missed")
        return OptimizationResult(NOT_WITNESSED, None, None, None, cert)

    best_value = max(opt.value_sq for opt, _, _ in candidates)
    ident = group.identity()
    tied = []
    seen_folded = set()
    for opt_c, idx_c, frame_c in candidates:
        if opt_c.value_sq != best_value:
            continue
        folded = fold_permutation_base(Cocharacter.based(group, frame_c, opt_c.exponents))
        key = (folded.base, folded.torus.exponents)
        if key in seen_folded:
            continue
        seen_folded.add(key)
        tied.append((folded, opt_c, idx_c))
    tied.sort(key=lambda t: (t[0].base != ident, t[0].torus.exponents, t[0].base, t[2]))
    lam, opt, idx = tied[0]
    parabolic = ParabolicDescriptor.from_cocharacter(lam)
    for other_lam, _other_opt, _oidx in tied[1:]:
        if ParabolicDescriptor.from_cocharacter(other_lam) != parabolic:
            raise InvariantViolation("tied maximizers define different parabolic subgroups")

    orders = [vanishing_order(x, lam, s) for x in points]
    if not all(o.is_positive for o in orders):
        raise InvariantViolation("an optimal limit does not land in S")
    finite = [o.finite for o in orders if o.finite is not None]
    if finite:
        a = min(finite)
        if F(a * a) / norm_sq(lam) != best_value:
            raise InvariantViolation("value recomputation from vanishing orders disagrees")

    for g in cfg.normalizer_samples:
        if _reference_fixes_input(g, points, s) and classify(g, lam) is MembershipClass.NOT_IN_P:
            raise InvariantViolation("a normalizer sample falls outside the optimal parabolic")

    global_verified = False
    if cfg.oracle_mode:
        if oracle_value is not None and oracle_value > best_value:
            raise InvariantViolation("oracle exceeded the exact torus optimum")
        global_verified = oracle_value == best_value

    cert = SearchCertificate(
        tuple(outcomes), opt.active_objective, opt.active_cone, oracle_value, oracle_box, group.norm.gram
    )
    return OptimizationResult(OPTIMAL, lam, best_value, parabolic, cert, global_verified)


def _assert_same_optimum(result, reference, cfg, frames):
    """Equal status, value, parabolic, verification and oracle value; a
    tied optimum may have another representative.  A torus base that the
    per-frame family holds has the same outcome there."""
    fields = ("status", "value_sq", "parabolic", "global_verified")
    assert [getattr(result, f) for f in fields] == [getattr(reference, f) for f in fields]
    assert result.certificate.oracle_value_sq == reference.certificate.oracle_value_sq
    per_frame = dict(zip(frames, reference.certificate.frames))
    for base, outcome in zip(cfg.conjugation_family, result.certificate.frames):
        if base in per_frame:
            assert (outcome.exponents, outcome.value_sq) == (per_frame[base].exponents, per_frame[base].value_sq)


def _reference_reduce_to_gcr(h, cfg, frames):
    """Reference: the greedy descent that ``reduce_to_gcr`` ran before its
    one exact step.  It walks every frame of a per-frame family, projects
    every entry in input coordinates with ``c_lambda`` and steps to the
    first projection that enlarges the centralizer, until none does; it
    raises when it stops on a quotient the algebra oracle calls not
    completely reducible."""
    group = h.group
    chain = []
    current = h
    current_dim = gcr.centralizer_dim(group, current.generators)
    dims = {}
    while True:
        step = None
        for lam, _ in _reference_frame_cocharacters(current.generators, cfg, frames):
            image = c_lambda(current.generators, lam)
            if image == current.generators:
                continue
            if image not in dims:
                dims[image] = gcr.centralizer_dim(group, image)
            image_dim = dims[image]
            if image_dim > current_dim:
                step = (lam, image, image_dim)
                break
        if step is None:
            break
        lam, image, current_dim = step
        chain.append(lam)
        current = gcr.SubgroupPresentation(group, image)
    if not gcr.is_gcr_algebra(current).is_completely_reducible:
        raise InvariantViolation("descent stalled on a non-semisimple quotient")
    return tuple(chain), current


def _conjugated(frame, h):
    return linalg.mat_mul(linalg.mat_mul(frame, linalg.mat(h)), linalg.inverse(frame))


def _upper_nilpotent(rng, group):
    """Strictly upper triangular within each block, small entries."""
    m = group.dimension
    return [
        [rng.choice((0, 1, -1, 2)) if j > i and group.block_of(i) == group.block_of(j) else 0 for j in range(m)]
        for i in range(m)
    ]


def _torus_families():
    """The seeded families of the torus tests: per name, the configuration
    and the per-frame family it was searched frame by frame over."""
    sl3 = GroupSpec.make(("SL", 3))
    gl2sl2 = GroupSpec.make(("GL", 2), ("SL", 2))
    f = linalg.mat([[1, 0, 0], [2, 1, 0], [0, -1, 1]])
    p = linalg.mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    scaled = linalg.mat_mul(linalg.mat_mul(f, linalg.mat([[2, 0, 0], [0, 1, 0], [0, 0, 1]])), p)
    swap = linalg.mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    given = (f, scaled, linalg.mat_mul(f, swap), swap, linalg.mat_mul(scaled, swap))
    return {
        "sl3-weyl": (SearchConfig.default(sl3, exponent_box=2, shear_values=(1,)), _weyl_shear_family(sl3, (1,))),
        "gl3-shears": (
            SearchConfig.default(GL3, exponent_box=2, shear_values=(-1, 2, 3)),
            _weyl_shear_family(GL3, (-1, 2, 3)),
        ),
        "gl2xsl2": (
            SearchConfig.default(gl2sl2, exponent_box=2, shear_values=(1, -1)),
            _weyl_shear_family(gl2sl2, (1, -1)),
        ),
        "gl3-scaled": (SearchConfig(GL3, 3, given), _per_frame_family(GL3, given)),
    }


def _torus_keys(frames):
    """Per frame, the set of its column lines: equal sets span one torus."""
    return [instability._torus_key(linalg._Scaled.of(frame)) for frame in frames]


def _first_per_torus(frames):
    first = {}
    for key, frame in zip(_torus_keys(frames), frames):
        first.setdefault(key, frame)
    return tuple(first.values())


def test_default_tori_match_weyl_shear_family():
    # the tori generated directly are those of the Weyl x shear frames; on
    # GL groups they are its first frames per torus, in its order
    shapes = [
        (("GL", 3),),
        (("GL", 2), ("GL", 1)),
        (("SL", 2),),
        (("SL", 3),),
        (("SL", 4),),
        (("GL", 2), ("SL", 2)),
        (("SL", 2), ("GL", 3)),
        (("GL", 1), ("SL", 4)),
        (("SL", 2), ("SL", 3)),
    ]
    for shape in shapes:
        group = GroupSpec.make(*shape)
        for values in ((), (1, -1), (2,), (-1, 2, 3)):
            cfg = SearchConfig.default(group, shear_values=values)
            frames = _weyl_shear_family(group, values)
            assert set(_torus_keys(cfg.conjugation_family)) == set(_torus_keys(frames)), (shape, values)
            assert len(set(_torus_keys(cfg.conjugation_family))) == len(cfg.conjugation_family)
            if _gl_only(group):
                assert cfg.conjugation_family == _first_per_torus(frames), (shape, values)
            assert _pairs(cfg) == tuple(map(_frame_pair, cfg.conjugation_family))
            assert [t.frame for t in cfg._tori] == list(cfg.conjugation_family)
            assert [t.key for t in cfg._tori] == _torus_keys(cfg.conjugation_family)
            for frame_s, inv_s in _pairs(cfg):  # frame inv = I
                assert frame_s @ inv_s == linalg._Scaled.of(linalg.identity(group.dimension))
    # a given family keeps its first frame per torus, the identity first
    cfg, frames = _torus_families()["gl3-scaled"]
    assert cfg.conjugation_family == _first_per_torus(frames) == frames[:2]


def test_default_family_builds_gl7_within_budget():
    # 1 + 42 * 4 tori; the Weyl x shear family has 7! * 169 frames
    gl7 = GroupSpec.make(("GL", 7))
    start = time.perf_counter()
    cfg = SearchConfig.default(gl7, shear_values=(-2, -1, 1, 2))
    assert time.perf_counter() - start < 1.0
    assert len(cfg.conjugation_family) == 169


def _optimize_cases(rng):
    """(name, points, subvariety, config, per-frame family) on every seeded
    family."""
    cases = []
    for name, (cfg, frames) in _torus_families().items():
        group = cfg.group
        rep = ConjugationTuples(group, 1)
        for _ in range(3):
            frame = rng.choice(frames)
            cases.append((name, [rep.point([_conjugated(frame, _upper_nilpotent(rng, group))])], ZERO, cfg, frames))
        frame = rng.choice(frames)
        pair = [rep.point([_conjugated(frame, _upper_nilpotent(rng, group))]) for _ in range(2)]
        cases.append((name, pair, ZERO, cfg, frames))
    # oracle mode on SL_2 forms, and a GL_3 family with shears
    sl2 = SearchConfig.default(SL2, exponent_box=3, shear_values=(-1, 1), oracle_mode=True)
    for degree, j in ((3, 0), (4, 1), (5, 2)):
        form = SymPower(SL2, degree).monomial(j, rng.choice((1, -2, 3)))
        cases.append(("sl2-oracle", [form], ZERO, sl2, _weyl_shear_family(SL2, (-1, 1))))
    gl3 = SearchConfig.default(GL3, exponent_box=2, shear_values=(1, -1), oracle_mode=True)
    gl3_frames = _weyl_shear_family(GL3, (1, -1))
    for _ in range(2):
        frame = rng.choice(gl3_frames)
        point = ConjugationTuples(GL3, 1).point([_conjugated(frame, _upper_nilpotent(rng, GL3))])
        cases.append(("gl3-oracle", [point], ZERO, gl3, gl3_frames))
    # a custom subvariety stable under every frame: the first summand is zero
    mat3 = ConjugationTuples(GL3, 1)
    double = DirectSum((mat3, mat3))
    first = SubvarietySpec.custom([Polynomial.coordinate(double, i) for i in range(9)], g_stable_asserted=True)
    cfg, frames = _torus_families()["gl3-scaled"]
    for _ in range(2):
        frame = rng.choice(frames)
        x = _conjugated(frame, _upper_nilpotent(rng, GL3))
        y = _conjugated(frame, _block_diagonal_matrix(rng, GL3))
        coords = tuple(c for row in x for c in row) + tuple(c for row in y for c in row)
        cases.append(("custom", [Point(double, coords)], first, cfg, frames))
    return cases


def test_optimize_matches_per_frame_reference():
    rng = random.Random(19)
    seen = {}
    for name, points, s, cfg, frames in _optimize_cases(rng):
        result = optimize(points, s, cfg)
        _assert_same_optimum(result, _reference_optimize(points, s, cfg, frames), cfg, frames)
        seen.setdefault(name, set()).add(result.status)
    assert set(seen) == {"sl3-weyl", "gl3-shears", "gl2xsl2", "gl3-scaled", "sl2-oracle", "gl3-oracle", "custom"}
    assert all(OPTIMAL in statuses for statuses in seen.values()), seen


def test_optimal_parabolic_matches_per_frame_reference(monkeypatch):
    # unipotent generators against the identity tuple, on every family
    rng = random.Random(23)
    cases = []
    for cfg, frames in _torus_families().values():
        group = cfg.group
        for _ in range(2):
            frame = rng.choice(frames)
            u = linalg.mat_add(group.identity(), linalg.mat(_upper_nilpotent(rng, group)))
            cases.append((gcr.SubgroupPresentation(group, (_conjugated(frame, u),)), cfg, frames))
    for h, cfg, frames in cases:
        result = gcr.optimal_parabolic_subgroup(h, cfg)
        with monkeypatch.context() as patched:
            patched.setattr(gcr, "optimize", functools.partial(_reference_optimize, frames=frames))
            _assert_same_optimum(result, gcr.optimal_parabolic_subgroup(h, cfg), cfg, frames)
    assert sum(gcr.optimal_parabolic_subgroup(h, cfg).status == OPTIMAL for h, cfg, _ in cases) >= 6


def _member(rng, group):
    """A seeded block-diagonal group element, else a unipotent one."""
    for _ in range(10):
        h = linalg.mat(_block_diagonal_matrix(rng, group))
        if group.contains(h):
            return h
    return linalg.mat_add(group.identity(), linalg.mat(_upper_nilpotent(rng, group)))


def _gcr_cases(rng):
    cases = []
    for cfg, frames in _torus_families().values():
        group = cfg.group
        for k in range(4):
            frame = rng.choice(frames)
            gens = []
            for _ in range(rng.randint(1, 2)):
                if k == 3:  # a unipotent generator
                    h = linalg.mat_add(group.identity(), linalg.mat(_upper_nilpotent(rng, group)))
                else:
                    h = _member(rng, group)
                gens.append(_conjugated(frame, h))
            cases.append((gcr.SubgroupPresentation(group, gens), cfg, frames))
    return cases


def test_closedness_and_gcr_match_per_frame_reference(monkeypatch):
    rng = random.Random(31)
    cases = _gcr_cases(rng)
    verdicts = []
    for h, cfg, frames in cases:
        v = h.tuple_point()
        verdict = is_cochar_closed(v, cfg)
        _assert_same_verdict(v, verdict, _reference_is_cochar_closed(v, cfg, frames), cfg)
        search = gcr.is_gcr_search(h, cfg)
        with monkeypatch.context() as patched:
            reference = functools.partial(_reference_is_cochar_closed, frames=frames)
            patched.setattr(gcr, "is_cochar_closed", lambda v, c: _on_bases(reference(v, c), c))
            if _gl_only(h.group):
                assert search == gcr.is_gcr_search(h, cfg)
            else:
                assert search.status == gcr.is_gcr_search(h, cfg).status
        verdicts.append(verdict)
    assert {v.closed for v in verdicts} == {True, False}
    assert len(cases) >= 12


def _assert_same_reduction(h, cfg, frames):
    """One step exactly when the subgroup is not completely reducible, and
    wherever the greedy reference finishes, its quotient has the same
    centralizer and algebra dimensions as the one-step quotient (both are
    the semisimplification of V, so they are conjugate).  Returns the
    chain length and whether the reference finished."""
    chain, quotient = gcr.reduce_to_gcr(h)
    assert (chain == ()) == gcr.is_gcr_algebra(h).is_completely_reducible
    if not chain:
        assert quotient == h
    try:
        _, reference = _reference_reduce_to_gcr(h, cfg, frames)
    except InvariantViolation as exc:
        assert str(exc) == "descent stalled on a non-semisimple quotient"
        return len(chain), False
    assert gcr.centralizer_dim(h.group, quotient.generators) == gcr.centralizer_dim(h.group, reference.generators)
    assert (gcr.algebra_of_tuple(h.group, quotient.generators).dimension
            == gcr.algebra_of_tuple(h.group, reference.generators).dimension)
    return len(chain), True


def test_reduce_to_gcr_matches_per_frame_reference():
    rng = random.Random(37)
    outcomes = [_assert_same_reduction(h, cfg, frames) for h, cfg, frames in _gcr_cases(rng)]
    assert all(finished for _, finished in outcomes)
    assert sum(steps for steps, _ in outcomes) >= 6


def test_reduce_to_gcr_matches_per_frame_reference_on_corpus():
    steps = 0
    stalled = []
    for seed in (1, 2):
        for index, h in enumerate(subgroup_corpus(seed, 200)):
            frames = _weyl_shear_family(h.group, CORPUS_SHEARS)
            length, finished = _assert_same_reduction(h, corpus_config(h.group), frames)
            steps += length
            if not finished:
                stalled.append((seed, index))
    # the greedy descent stalls where the search misses the line <(1,1,1)>
    assert stalled == [(2, 162)]
    assert steps == 130


def test_frame_forms_run_once_per_torus_class(monkeypatch):
    # the 24 Weyl frames of GL_4 span one torus; GL_3 with shears +-1 has
    # 78 frames on 13 tori: the identity's and one per shear
    forms = instability._forms_reader
    calls = []

    def counted(rep, s, frame):
        calls.append(frame)
        return forms(rep, s, frame)

    gl4 = GroupSpec.make(("GL", 4))
    rng = random.Random(43)
    for group, values, tori in ((gl4, (), 1), (GL3, (-1, 1), 13)):
        cfg = SearchConfig.default(group, shear_values=values)
        frames = _weyl_shear_family(group, values)
        assert (len(frames), len(cfg.conjugation_family)) == ((24, 1) if group is gl4 else (78, 13))
        points = [ConjugationTuples(group, 1).point([_upper_nilpotent(rng, group)])]
        with monkeypatch.context() as patched:
            patched.setattr(instability, "_forms_reader", counted)
            calls.clear()
            result = optimize(points, ZERO, cfg)
            # one call per torus, then the value check's per point
            assert calls == [*_pairs(cfg), *[result.cocharacter._frame] * len(points)]
        _assert_same_optimum(result, _reference_optimize(points, ZERO, cfg, frames), cfg, frames)
        assert len(result.certificate.frames) == tori


# ---------------------------------------------------------------------------
# Frames acted on through the group's structure


def _objective_set(s, rep, frame, x):
    """The weights of the frame's isotypic components not vanishing at x."""
    return {chi for parts in s.isotypic_data(rep, frame) for chi, part in parts if part.evaluate(x) != 0}


def test_frame_free_objective_sets_match_per_frame_decomposition():
    rng = random.Random(61)
    compared = partial = 0
    for group in (GL3, GroupSpec.make(("SL", 3)), GroupSpec.make(("GL", 2), ("SL", 2))):
        frames = rng.sample(_weyl_shear_family(group, (-1, 2)), 5)
        for count in (1, 2):
            rep = ConjugationTuples(group, count)
            ident = linalg.identity(group.dimension)
            points = [
                rep.point([_block_diagonal_matrix(rng, group) for _ in range(count)]),
                rep.point([_upper_nilpotent(rng, group) for _ in range(count)]),
                rep.point([linalg.mat_add(ident, linalg.mat(_upper_nilpotent(rng, group))) for _ in range(count)]),
                rep.point([ident] * count),
            ]
            for s in (SubvarietySpec.zero_locus(), SubvarietySpec.identity_tuple()):
                for frame in frames:
                    inverse = linalg.inverse(frame)
                    moved = [rep.point([_conjugated(inverse, h) for h in rep.matrices(x)]) for x in points]
                    for x in moved:
                        frame_free = _objective_set(s, rep, None, x)
                        assert frame_free == _objective_set(s, rep, frame, x)
                        compared += 1
                        partial += 0 < len(frame_free) < len(rep.weights)
                    shared = _decoded(rep, instability._frame_forms(points, s, _frame_pair(frame)))
                    assert [forms for _, forms in shared] == [_objective_set(s, rep, frame, x) for x in moved]
    assert compared == 240 and partial >= 60


def test_frame_forms_act_through_structure(monkeypatch):
    # a Weyl x shear search on a zero-locus tuple input builds no action
    # matrix and composes no generator with the action in any frame
    from destab import reps

    group = GroupSpec.make(("GL", 2), ("GL", 2))
    cfg = SearchConfig.default(group, exponent_box=2, shear_values=(1, -2))
    frames = _weyl_shear_family(group, (1, -2))
    rng = random.Random(67)
    rep = ConjugationTuples(group, 2)
    frame = frames[5]
    points = [rep.point([_conjugated(frame, _upper_nilpotent(rng, group)) for _ in range(2)])]
    forms = instability._forms_reader
    counts = {"frames": 0, "act_matrix": 0, "composed": 0}

    def counted_forms(*args):
        counts["frames"] += 1
        return forms(*args)

    def counter(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    with monkeypatch.context() as patched:
        patched.setattr(instability, "_forms_reader", counted_forms)
        patched.setattr(ConjugationTuples, "act_matrix", counter("act_matrix", ConjugationTuples.act_matrix))
        patched.setattr(Polynomial, "composed_with_action", counter("composed", Polynomial.composed_with_action))
        patched.setattr(reps, "_composed", counter("composed", reps._composed))
        patched.setattr(instability, "_composed", counter("composed", instability._composed))
        result = optimize(points, ZERO, cfg)
    # one call per torus, then the value check's per point
    assert counts == {"frames": len(cfg.conjugation_family) + len(points), "act_matrix": 0, "composed": 0}
    assert counts["frames"] > 1
    assert result.status == OPTIMAL
    _assert_same_optimum(result, _reference_optimize(points, ZERO, cfg, frames), cfg, frames)


def _monomial(perm, scales):
    p = [[F(0)] * len(perm) for _ in perm]
    for j, (i, c) in enumerate(zip(perm, scales)):
        p[i][j] = F(c)
    return linalg.mat(p)


def test_search_config_rejects_frames_outside_the_group():
    message = "^conjugation family element is not in the group$"
    gl2gl2 = GroupSpec.make(("GL", 2), ("GL", 2))
    with pytest.raises(DomainError, match=message):  # swaps the two blocks
        SearchConfig(gl2gl2, 2, (_monomial((2, 3, 0, 1), (1, 1, 1, 1)),))
    for frame in ([[1, 0], [2, 0]], [[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]):
        with pytest.raises(DomainError, match=message):  # a zero column, or misshapen
            SearchConfig(GL2, 2, (frame,))
    sl3 = GroupSpec.make(("SL", 3))
    rep_frame = linalg.mat_mul(sl3.weyl_representatives()[3], sl3.shears((2,))[1])
    for p in (_monomial((0, 1, 2), (-1, 1, 1)), _monomial((1, 0, 2), (1, 1, 1)), _monomial((2, 0, 1), (2, 1, 1))):
        frame = linalg.mat_mul(rep_frame, p)
        assert linalg.det(frame) != 1
        with pytest.raises(DomainError, match=message):
            SearchConfig(sl3, 2, (rep_frame, frame))


def test_search_config_membership_matches_dense_check():
    # frames f . P for seeded members f and monomials P: the configuration
    # accepts exactly the frames the dense check accepts
    rng = random.Random(71)
    groups = (
        GroupSpec.make(("GL", 2), ("GL", 2)),
        GroupSpec.make(("GL", 2), ("SL", 2)),
        GroupSpec.make(("SL", 3)),
        GroupSpec.make(("GL", 1), ("SL", 2)),
    )
    verdicts = set()
    for group in groups:
        m = group.dimension
        for _ in range(30):
            f = linalg.mat(_member(rng, group))
            perm = list(range(m))
            if rng.random() < 0.3:
                rng.shuffle(perm)  # may cross blocks
            else:
                for block in group.block_slices:
                    local = list(block)
                    rng.shuffle(local)
                    perm[block.start : block.stop] = local
            scales = [rng.choice((1, -1, 2, F(1, 2), -3)) for _ in range(m)]
            frame = linalg.mat_mul(f, _monomial(perm, scales))
            member = group.contains(frame)
            try:
                cfg = SearchConfig(group, 2, (f, frame))
            except DomainError as exc:
                assert str(exc) == "conjugation family element is not in the group"
                accepted = False
            else:
                accepted = True
                assert _pairs(cfg) == tuple(map(_frame_pair, cfg.conjugation_family))
            assert accepted == member, (group, f, frame)
            verdicts.add(member)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# Vanishing orders read frame-free, and the caches behind them


def _per_frame_vanishing_order(x, lam, s):
    """Reference: the order from S's generators composed with lambda's
    base, decomposed in that frame, every component evaluated."""
    if not admits_limit_set([x], lam):
        raise LimitMembershipError("the limit of x along lambda does not exist")
    if _reference_contains_point(s, x):
        return None
    rep = x.rep
    moved = rep.act(lam.base_inverse, x)
    orders = [
        pairing(lam.torus, chi)
        for parts in s.isotypic_data(rep, lam.base)
        for chi, part in parts
        if part.evaluate(moved) != 0
    ]
    return min(orders)


def _dense_member(rng, group):
    """A seeded dense rational element: a dense block per factor, with a
    column rescaled to determinant one in an SL block."""
    values = (1, -1, 2, -2, 3, F(1, 2), F(-3, 2), F(2, 3))
    m = group.dimension
    g = [[F(0)] * m for _ in range(m)]
    for f, block in zip(group.factors, group.block_slices):
        while True:
            sub = [[F(rng.choice(values)) for _ in block] for _ in block]
            d = linalg.det(linalg.mat(sub))
            if d != 0 and all(x != 0 for row in linalg.inverse(linalg.mat(sub)) for x in row):
                break
        if f.family == "SL":
            for row in sub:
                row[0] /= d
        for i, row in zip(block, sub):
            g[i][block.start : block.stop] = row
    return linalg.mat(g)


def _exponents(rng, group):
    while True:
        d = [rng.randint(-3, 3) for _ in range(group.dimension)]
        for f, block in zip(group.factors, group.block_slices):
            if f.family == "SL":
                d[block.stop - 1] -= sum(d[i] for i in block)
        if any(d):
            return tuple(d)


def _point_with_limit(rng, rep, lam, s):
    """lam's base applied to a seeded point whose weights pair
    nonnegatively with lam, near the identity for the identity tuple, and
    now and then a point of S."""
    in_s = rng.random() < 0.15
    coords = [
        F(rng.choice((0, 0, 1, -1, 2, F(1, 3)))) if not in_s and pairing(lam.torus, chi) >= 0 else F(0)
        for chi in rep.weights
    ]
    if s.kind is instability.SubvarietyKind.IDENTITY_TUPLE:
        m = rep.m
        for t in range(rep.count):
            for i in range(m):
                if in_s or rng.random() < 0.8:
                    coords[t * m * m + i * m + i] = F(1)
    return rep.act(lam.base, Point(rep, tuple(coords)))


def test_frame_free_vanishing_order_matches_per_frame_and_curve_oracle():
    rng = random.Random(83)
    gl4 = GroupSpec.make(("GL", 4))
    gl2sl2 = GroupSpec.make(("GL", 2), ("SL", 2))
    reps_and_targets = [
        (ConjugationTuples(GL3, 1), (ZERO, SubvarietySpec.identity_tuple())),
        (ConjugationTuples(gl4, 1), (ZERO, SubvarietySpec.identity_tuple())),
        (ConjugationTuples(gl2sl2, 2), (ZERO, SubvarietySpec.identity_tuple())),
        (SymPower(SL2, 3), (ZERO,)),
        (SymPower(SL2, 4), (ZERO,)),
    ]
    orders = []
    for rep, targets in reps_and_targets:
        group = rep.group
        for _ in range(12):
            base = _dense_member(rng, group)
            assert base != group.identity() and any(x.denominator > 1 for row in base for x in row)
            lam = Cocharacter.based(group, base, _exponents(rng, group))
            for s in targets:
                x = _point_with_limit(rng, rep, lam, s)
                order = vanishing_order(x, lam, s)
                reference = _per_frame_vanishing_order(x, lam, s)
                assert order.finite == reference == curve_order(x, lam, s)
                orders.append(reference)
    assert len(orders) == 96 and orders.count(None) >= 10 and len(set(orders)) >= 5


def test_built_frames_are_not_checked_or_inverted_again(monkeypatch):
    # a configuration checks and inverts each frame when it is built, and a
    # cocharacter its base; the searches, the value check, the grading and
    # the limit move points by the pairs they hold, on representations
    # whose act memos start empty
    rng = random.Random(91)
    identity_tuple = SubvarietySpec.identity_tuple()
    cases = []
    for group, nilpotent in ((GL3, ((0, 1), (1, 2))), (GroupSpec.make(("GL", 2), ("SL", 2)), ((0, 1), (2, 3)))):
        m = group.dimension
        cfg = SearchConfig.default(group, exponent_box=2, shear_values=(-1, 2))
        lam = Cocharacter.based(group, _dense_member(rng, group), _exponents(rng, group))
        x = _point_with_limit(rng, ConjugationTuples(group, 1), lam, ZERO)
        order = curve_order(Point(ConjugationTuples(group, 1), x.coords), lam, ZERO)  # leaves x's memo empty
        n = [[int((i, j) in nilpotent) for j in range(m)] for i in range(m)]
        u = [[int(i == j) + n[i][j] for j in range(m)] for i in range(m)]
        diagonal = [[i + 1 if i == j else 0 for j in range(m)] for i in range(m)]
        points = [ConjugationTuples(group, 1).point([h]) for h in (n, u, diagonal)]
        cases.append((cfg, lam, x, order, *points))
    calls = []
    member_inverse = GroupSpec._member_inverse

    def counted(group, g, what="element"):
        calls.append(what)
        return member_inverse(group, g, what)

    monkeypatch.setattr(GroupSpec, "_member_inverse", counted)
    for cfg, lam, x, order, n, u, diagonal in cases:
        assert optimize([n], ZERO, cfg).status == OPTIMAL
        assert optimize([u], identity_tuple, cfg).status == OPTIMAL
        assert not is_cochar_closed(u, cfg).closed
        assert is_cochar_closed(diagonal, cfg).closed
        assert grade(x, lam).reconstruct() == x
        assert limit(x, lam) is not None
        assert vanishing_order(x, lam, ZERO).finite == order
        assert admits_limit_set([x, n], lam) == admits_limit_set([n], lam)
    assert calls == []


def test_vanishing_order_reads_builtin_subvarieties_frame_free(monkeypatch):
    # the check decomposes no generator composed with the base; a custom
    # subvariety still does
    rng = random.Random(89)
    rep = ConjugationTuples(GL3, 1)
    base = _dense_member(rng, GL3)
    lam = Cocharacter.based(GL3, base, (2, 0, -1))
    composed = []
    original = instability._composed

    def counted(polys, g):
        composed.append(g)
        return original(polys, g)

    monkeypatch.setattr(instability, "_composed", counted)
    x = _point_with_limit(rng, rep, lam, ZERO)
    for s in (SubvarietySpec.zero_locus(), SubvarietySpec.identity_tuple()):
        vanishing_order(x, lam, s)
    assert composed == []
    trace = SubvarietySpec.custom(
        (Polynomial.coordinate(rep, 0) + Polynomial.coordinate(rep, 4) + Polynomial.coordinate(rep, 8),),
        g_stable_asserted=True,
    )
    assert vanishing_order(x, lam, trace).finite == curve_order(x, lam, trace)
    assert composed == [base]


def test_norm_hash_agrees_with_equality():
    grams = [
        [[2, 1], [1, 2]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]],
    ]
    for ints in grams:
        as_fractions = [[F(2 * x, 2) for x in row] for row in ints]
        a, b = Norm(tuple(map(tuple, ints))), Norm(linalg.mat(as_fractions))
        assert a == b and hash(a) == hash(b)
        assert set(vars(a)) == {"gram", "_int_gram"}  # no hash is stored
    assert Norm(linalg.identity(3)) == Norm(linalg.mat(grams[1]))
    assert hash(Norm(linalg.identity(3))) == hash(Norm(linalg.mat(grams[1])))
    a = GroupSpec.make(("GL", 3), gram=grams[2])
    b = GroupSpec.make(("GL", 3), gram=[[F(x) for x in row] for row in grams[2]])
    assert a == b and hash(a) == hash(b)
    assert a != GL3 and a.norm != GL3.norm


def test_pickled_group_finds_cached_isotypic_data():
    import pickle

    for s in (SubvarietySpec.zero_locus(), SubvarietySpec.identity_tuple()):
        group = GroupSpec.make(("GL", 2), ("SL", 2), gram=[[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        rep = ConjugationTuples(group, 1)
        data = s.isotypic_data(rep)
        copy = pickle.loads(pickle.dumps(rep))
        assert copy == rep and copy is not rep and copy.group is not group
        assert s.isotypic_data(copy) is data
        restored = pickle.loads(pickle.dumps(s))
        assert restored.isotypic_data(copy) == data


def test_isotypic_data_with_identity_frame_equals_frame_free():
    for rep, targets in (
        (ConjugationTuples(GL3, 2), (SubvarietySpec.zero_locus(), SubvarietySpec.identity_tuple())),
        (SymPower(SL2, 3), (SubvarietySpec.zero_locus(),)),
    ):
        for s in targets:
            assert s.isotypic_data(rep) == s.isotypic_data(rep, rep.group.identity())
            assert s.isotypic_data(rep) is s.isotypic_data(rep, None)


def _reference_oracle_best_value(frame_forms, group, box):
    """Reference: the oracle sweep point by point, as a^2 / |d|^2 in
    Fractions, before the points' weight sets were merged per frame."""
    best = None
    for per_point in frame_forms:
        supports = [tuple(chi.weights for chi in support) for support, _ in per_point]
        forms = [{chi.weights for chi in fx} for _, fx in per_point]
        for d in _box_vectors(group, box):
            if not all(all(sum(a * b for a, b in zip(d, w)) >= 0 for w in supp) for supp in supports):
                continue
            a = None
            for fx in forms:
                if not fx:
                    continue  # that point is in S; infinite order
                mn = min(sum(p * q for p, q in zip(d, w)) for w in fx)
                a = mn if a is None else min(a, mn)
            if a is None or a <= 0:
                continue
            val = F(a * a) / group.norm.value_sq(d)
            if best is None or val > best:
                best = val
    return best


def test_oracle_sweep_on_merged_weight_sets_matches_per_point_reference():
    # seeded GL_3 and SL_2 oracle inputs: one or two points, a nilpotent
    # matrix or a binary form (zero now and then), moved by a seeded frame
    # that the family holds next to the identity and another seeded frame
    rng = random.Random(97)
    values = []
    for group, box in ((GL3, 2), (SL2, 3)):
        for _ in range(12):
            rep = ConjugationTuples(GL3, 1) if group is GL3 else SymPower(SL2, rng.choice((2, 3, 4)))
            frame = _dense_member(rng, group)
            points = []
            for _ in range(rng.choice((1, 2))):
                if rng.random() < 0.15:
                    points.append(rep.zero())
                elif group is GL3:
                    points.append(rep.act(frame, rep.point([_upper_nilpotent(rng, group)])))
                else:
                    coords = [F(rng.choice((0, 0, 1, -2, F(1, 2)))) if j < rep.dim // 2 else F(0) for j in range(rep.dim)]
                    points.append(rep.act(frame, Point(rep, tuple(coords))))
            frames = (None, frame, _dense_member(rng, group))
            frame_forms = [instability._frame_forms(points, ZERO, _frame_pair(f)) for f in frames]
            classes = instability._weight_classes(rep)
            weight_sets = [instability._weight_sets(per_point, classes.zero) for per_point in frame_forms]
            value = instability._oracle_best_value(weight_sets, classes, group, box)
            assert value == _reference_oracle_best_value([_decoded(rep, per_point) for per_point in frame_forms], group, box)
            values.append(value)
    assert len(values) == 24 and 3 <= values.count(None) and len(set(values)) >= 5


# ---------------------------------------------------------------------------
# Weight classes: the class masks and the oracle sweep on them,
# against the frozenset weight sets they replaced, kept as references


def _mask_cases(rng):
    """Seeded (points, subvariety, frames, box) cases: GL_3 tuples in Weyl
    and shear frames, GL_2 x SL_2 tuples, forms of degree 2 to 5 on SL_2, a
    direct sum, and M_2 with the custom subvariety x_1^2 = 0, whose
    components composed with a shear have weights such as 2(e_1 - e_2),
    which is no weight of M_2.  The frames hold the standard one (None)."""
    gl2sl2 = GroupSpec.make(("GL", 2), ("SL", 2))
    identity = SubvarietySpec.identity_tuple()
    cases = []
    for group, values in ((GL3, (-1, 2)), (gl2sl2, (1, -2))):
        family = _weyl_shear_family(group, values)
        ident = linalg.mat(group.identity())
        for count in (1, 2):
            rep = ConjugationTuples(group, count)
            for _ in range(2):
                frames = [None, *rng.sample(family, 6)]
                mover = rng.choice(family)
                nilpotents = [_conjugated(mover, _upper_nilpotent(rng, group)) for _ in range(count)]
                cases.append(([rep.point(nilpotents)], ZERO, frames, 2))
                unipotents = [linalg.mat_add(ident, h) for h in nilpotents]
                cases.append(([rep.point(unipotents), rep.point([ident] * count)], identity, frames, 2))
                diagonal = rep.point([_block_diagonal_matrix(rng, group) for _ in range(count)])
                cases.append(([diagonal, rep.point(nilpotents)], ZERO, frames, 2))
    sl2_frames = [None, *_weyl_shear_family(SL2, (-1, 1))]
    values = (0, 0, 1, -2, F(1, 2), 3)
    both = DirectSum((SymPower(SL2, 3), SymPower(SL2, 4)))
    for rep in [*(SymPower(SL2, degree) for degree in range(2, 6)), both]:
        for _ in range(3):
            kept = (0, 1, 4, 5) if rep is both else range(rep.dim // 2 + 1)
            coords = tuple(F(rng.choice(values)) if j in kept else F(0) for j in range(rep.dim))
            points = [rep.act(rng.choice(sl2_frames[1:]), Point(rep, coords))]
            if rng.random() < 0.3:
                points.append(rep.zero())
            cases.append((points, ZERO, sl2_frames, 3))
    m2 = ConjugationTuples(GL2, 1)
    x1 = Polynomial.coordinate(m2, 1)
    square = SubvarietySpec.custom([x1 * x1], g_stable_asserted=True)
    gl2_frames = [None, *_weyl_shear_family(GL2, (1, -1))]
    for upper in (False, True, False, True):
        points = [
            m2.point([[[rng.choice((0, 1, -2)), rng.choice((1, -2))], [0 if upper else rng.choice((0, 1)), 0]]])
            for _ in range(rng.choice((1, 2)))
        ]
        cases.append((points, square, gl2_frames, 2))
    return cases


def test_mask_path_matches_frozenset_references_on_seeded_inputs():
    # per frame, the class masks decoded against the frozenset forms and
    # weight sets, the torus optimum of the decoded weights against that
    # of the sets, and the oracle sweep on the masks against the frozenset
    # sweep; a custom component weight gets a new bit, and no bit moves
    rng = random.Random(179)
    values, added = [], set()
    for points, s, frames, box in _mask_cases(rng):
        rep = points[0].rep
        group = rep.group
        classes = instability._weight_classes(rep)
        before = list(classes.characters)
        mask_sets, reference_sets = [], []
        for frame in frames:
            pair = _frame_pair(frame)
            per_point = instability._frame_forms(points, s, pair)
            reference = _reference_frame_forms(points, s, pair)
            assert _decoded(rep, per_point) == [(set(support), forms) for support, forms in reference]
            mask_sets.append(instability._weight_sets(per_point, classes.zero))
            reference_sets.append(_reference_weight_sets(reference))
        for masks, sets in zip(mask_sets, reference_sets):
            assert tuple(frozenset(classes.decode(mask)) for mask in masks) == sets
            decoded = [classes.decode(mask) for mask in masks]
            assert instability._torus_optimum(*decoded, group) == instability._torus_optimum(*sets, group)
        value = instability._oracle_best_value(mask_sets, classes, group, box)
        assert value == _reference_sets_oracle_best_value(reference_sets, group, box)
        values.append(value)
        assert classes.characters[: len(before)] == before
        assert [classes.bit(chi) for chi in rep.weights] == list(classes.coordinate_bits)
        added.update(set(classes.characters) - set(rep.weights))
    assert len(values) == 43 and values.count(None) >= 3 and len(set(values)) >= 6
    assert Character((2, -2)) in added and Character((-2, 2)) in added


def test_oracle_sweep_keeps_nothing_and_reads_any_chunk_size_alike(monkeypatch):
    # the sweep holds one chunk of box vectors at a time and keeps nothing
    # between calls: each call enumerates the box again, the configuration
    # gains no attribute, and every chunk size gives the same values
    rng = random.Random(181)
    cfg = SearchConfig.default(GL3, exponent_box=2, shear_values=(-1, 1), oracle_mode=True)
    ident = linalg.mat(GL3.identity())
    inputs = []
    for count in (1, 2, 1):
        rep = ConjugationTuples(GL3, count)
        nilpotents = [linalg.mat(_upper_nilpotent(rng, GL3)) for _ in range(count)]
        inputs.append(([rep.point(nilpotents)], ZERO))
        inputs.append(([rep.point([linalg.mat_add(ident, h) for h in nilpotents])], SubvarietySpec.identity_tuple()))
    results = [optimize(points, s, cfg) for points, s in inputs]
    assert all(r.global_verified for r in results if r.status == OPTIMAL) and OPTIMAL in {r.status for r in results}
    sweeps = []
    for points, s in inputs:
        classes = instability._weight_classes(points[0].rep)
        weight_sets = [instability._weight_sets(instability._frame_forms(points, s, pair), classes.zero) for pair in _pairs(cfg)]
        sweeps.append((weight_sets, classes))
    calls = []
    vectors = instability._box_vectors

    def counted(group, box):
        calls.append((group, box))
        return vectors(group, box)

    monkeypatch.setattr(instability, "_box_vectors", counted)
    kept = dict(vars(cfg))
    expected = [r.certificate.oracle_value_sq for r in results]
    for chunk in (1, 2, 7, 97, 98, instability._ORACLE_CHUNK):
        monkeypatch.setattr(instability, "_ORACLE_CHUNK", chunk)
        values = [instability._oracle_best_value(weight_sets, classes, GL3, 2) for weight_sets, classes in sweeps]
        assert values == expected
    assert len(expected) - expected.count(None) >= 3
    assert calls == [(GL3, 2)] * (6 * len(sweeps))
    assert vars(cfg) == kept and cfg == SearchConfig.default(GL3, exponent_box=2, shear_values=(-1, 1), oracle_mode=True)


# ---------------------------------------------------------------------------
# Built-in targets read off coordinates, one torus optimum per weight
# pattern and representation


def _slow_optimize(points, s, cfg):
    """Reference: ``optimize`` over the configuration's tori with every
    isotypic component evaluated, one QP per torus and no memo, the value
    checked from per-frame vanishing orders, and the normalizer samples
    acted by and classified through the public, checking entry points."""
    from destab.instability import (
        FrameOutcome,
        OptimizationResult,
        ParabolicDescriptor,
        SearchCertificate,
        _check_custom_stability,
        _whole_group_descriptor,
    )
    from destab.groups import norm_sq

    points = tuple(points)
    group = cfg.group
    _check_custom_stability(s, points[0].rep, cfg)
    if all(_reference_contains_point(s, x) for x in points):
        zero = Cocharacter.standard(group, (0,) * group.dimension)
        cert = SearchCertificate((), (), (), norm_gram=group.norm.gram)
        return OptimizationResult(TRIVIAL, zero, None, _whole_group_descriptor(group), cert, cfg.oracle_mode)
    forms = [_reference_frame_forms(points, s, pair) for pair in _pairs(cfg)]
    outcomes, candidates = [], []
    for idx, per_point in enumerate(forms):
        opt = _reference_torus_optimum(per_point, group)
        if opt is None or opt.trivial:
            outcomes.append(FrameOutcome(idx, None, None))
        else:
            outcomes.append(FrameOutcome(idx, opt.exponents, opt.value_sq))
            candidates.append((opt, idx))
    oracle_value = None
    if cfg.oracle_mode:
        oracle_value = _reference_sets_oracle_best_value(list(map(_reference_weight_sets, forms)), group, cfg.exponent_box)
    oracle_box = cfg.exponent_box if cfg.oracle_mode else None
    if not candidates:
        assert oracle_value is None
        cert = SearchCertificate(tuple(outcomes), (), (), oracle_value, oracle_box, group.norm.gram)
        return OptimizationResult(NOT_WITNESSED, None, None, None, cert)
    best = max(opt.value_sq for opt, _ in candidates)
    tied = [
        (fold_permutation_base(Cocharacter.based(group, cfg.conjugation_family[idx], opt.exponents)), opt)
        for opt, idx in candidates
        if opt.value_sq == best
    ]
    tied.sort(key=lambda t: (t[0].base != group.identity(), t[0].torus.exponents))
    lam, opt = tied[0]
    parabolic = ParabolicDescriptor.from_cocharacter(lam)
    assert all(ParabolicDescriptor.from_cocharacter(other) == parabolic for other, _ in tied[1:])
    finite = [o for o in (_per_frame_vanishing_order(x, lam, s) for x in points) if o is not None]
    assert all(o > 0 for o in finite)
    if finite:
        assert F(min(finite) ** 2) / norm_sq(lam) == best
    for g in cfg.normalizer_samples:
        if _reference_fixes_input(g, points, s):
            assert classify(g, lam) is not MembershipClass.NOT_IN_P
    assert oracle_value is None or oracle_value <= best
    cert = SearchCertificate(
        tuple(outcomes), opt.active_objective, opt.active_cone, oracle_value, oracle_box, group.norm.gram
    )
    return OptimizationResult(OPTIMAL, lam, best, parabolic, cert, cfg.oracle_mode and oracle_value == best)


def _first_block_scalar(group):
    """2 on the diagonal of the first block and 1 elsewhere: a member of the
    group that fixes every block-diagonal matrix."""
    m = group.dimension
    return linalg.mat([[(2 if group.block_of(i) == 0 else 1) if i == j else 0 for j in range(m)] for i in range(m)])


def _target_cases(rng):
    """(name, points, subvariety, config) on seeded inputs: both built-in
    targets on GL_3, GL_4 and GL_2 x SL_2 tuples, forms of degree 3 to 6 on
    SL_2, a direct sum and a custom subvariety.  Points are moved by a
    torus base of the configuration or by a dense member; each
    configuration holds normalizer samples, some of which fix the input."""

    def mover(cfg):
        return rng.choice((*cfg.conjugation_family, _dense_member(rng, cfg.group)))

    cases = []
    gl2sl2 = GroupSpec.make(("GL", 2), ("SL", 2))
    for group in (GL3, GroupSpec.make(("GL", 4)), gl2sl2):
        m = group.dimension
        samples = (_first_block_scalar(group), _dense_member(rng, group))
        cfg = SearchConfig.default(group, exponent_box=3, shear_values=(1, -2), normalizer_samples=samples)
        ident = group.identity()
        for count in (1, 2):
            rep = ConjugationTuples(group, count)
            for _ in range(3):
                frame = mover(cfg)
                nilpotents = [_conjugated(frame, _upper_nilpotent(rng, group)) for _ in range(count)]
                cases.append((f"zero-{m}", [rep.point(nilpotents)], ZERO, cfg))
                unipotents = [linalg.mat_add(ident, h) for h in nilpotents]
                cases.append((f"identity-{m}", [rep.point(unipotents)], SubvarietySpec.identity_tuple(), cfg))
            diagonal = rep.point([_block_diagonal_matrix(rng, group) for _ in range(count)])
            cases.append((f"zero-{m}", [diagonal, rep.zero()], ZERO, cfg))
            cases.append((f"identity-{m}", [rep.point([ident] * count)], SubvarietySpec.identity_tuple(), cfg))
    minus = linalg.mat([[-1, 0], [0, -1]])
    sl2 = SearchConfig.default(
        SL2, exponent_box=3, shear_values=(-1, 1), oracle_mode=True, normalizer_samples=(minus, _dense_member(rng, SL2))
    )
    values = (0, 0, 1, -2, F(1, 2), 3)
    for degree in (3, 4, 5, 6):
        rep = SymPower(SL2, degree)
        for _ in range(3):
            coords = tuple(F(rng.choice(values)) if j <= degree // 2 else F(0) for j in range(degree + 1))
            cases.append((f"sym-{degree}", [rep.act(mover(sl2), Point(rep, coords))], ZERO, sl2))
    both = DirectSum((SymPower(SL2, 3), SymPower(SL2, 4)))
    for _ in range(3):
        coords = tuple(F(rng.choice(values)) if j in (0, 1, 4, 5) else F(0) for j in range(both.dim))
        cases.append(("direct-sum", [both.act(mover(sl2), Point(both, coords))], ZERO, sl2))
    # a custom subvariety stable under every frame: the first summand is zero
    mat3 = ConjugationTuples(GL3, 1)
    double = DirectSum((mat3, mat3))
    first = SubvarietySpec.custom([Polynomial.coordinate(double, i) for i in range(9)], g_stable_asserted=True)
    gl3 = SearchConfig.default(GL3, exponent_box=2, shear_values=(1,), normalizer_samples=(_first_block_scalar(GL3),))
    for _ in range(3):
        frame = mover(gl3)
        x = _conjugated(frame, _upper_nilpotent(rng, GL3))
        y = _conjugated(frame, _block_diagonal_matrix(rng, GL3))
        cases.append(("custom", [Point(double, tuple(c for h in (x, y) for row in h for c in row))], first, gl3))
    return cases


def test_optimize_matches_slow_reference_on_seeded_inputs():
    # the whole result: status, cocharacter, value, parabolic, verification
    # and the certificate with one outcome per torus
    rng = random.Random(101)
    seen: dict = {}
    for name, points, s, cfg in _target_cases(rng):
        result = optimize(points, s, cfg)
        assert result == _slow_optimize(points, s, cfg), name
        seen.setdefault(name.split("-")[0], set()).add(result.status)
    assert set(seen) == {"zero", "identity", "sym", "direct", "custom"}
    assert all(OPTIMAL in statuses for statuses in seen.values()), seen
    assert {TRIVIAL, NOT_WITNESSED} <= seen["zero"] and TRIVIAL in seen["identity"]


def test_repeated_weight_pattern_solves_one_qp_per_representation(monkeypatch):
    # the shear I + E_12 fixes E_13, so both tori see one weight pattern
    calls = []
    qp = instability._min_qnorm

    def counted(*args):
        calls.append(args)
        return qp(*args)

    monkeypatch.setattr(instability, "_min_qnorm", counted)
    cfg = SearchConfig(GL3, 2, ([[1, 1, 0], [0, 1, 0], [0, 0, 1]],))
    assert len(cfg.conjugation_family) == 2
    e13 = [[0, 0, 1], [0, 0, 0], [0, 0, 0]]
    rep = ConjugationTuples(GL3, 1)
    first = optimize([rep.point([e13])], ZERO, cfg)
    assert len(calls) == 1 and len(rep._torus_memo) == 1
    # a point of the same pattern on the same representation solves nothing
    again = optimize([rep.point([[[0, 0, F(-5, 2)], [0, 0, 0], [0, 0, 0]]])], ZERO, cfg)
    assert len(calls) == 1 and again.certificate == first.certificate
    # an equal representation starts with its own, empty memo
    other = ConjugationTuples(GL3, 1)
    assert other == rep and other is not rep and "_torus_memo" not in vars(other)
    assert optimize([other.point([e13])], ZERO, cfg) == first
    assert len(calls) == 2
    assert next(iter(rep._torus_memo.values())) == next(iter(other._torus_memo.values()))


def test_builtin_targets_evaluate_no_polynomial(monkeypatch):
    # the built-in targets compare coordinates with their fixed point in
    # the frame forms, the membership test and the whole optimizer; a
    # custom subvariety still evaluates its components
    rng = random.Random(103)
    evaluated = []
    evaluate = Polynomial.evaluate

    def counted(f, x):
        evaluated.append(f)
        return evaluate(f, x)

    monkeypatch.setattr(Polynomial, "evaluate", counted)
    custom_seen = False
    for name, points, s, cfg in _target_cases(rng):
        frame = cfg._tori[-1].pair
        instability._frame_forms(points, s, frame)
        for x in points:
            s.contains_point(x)
        if s.kind is SubvarietyKind.CUSTOM:
            custom_seen = custom_seen or bool(evaluated)
        else:
            optimize(points, s, cfg)
            assert evaluated == [], name
        evaluated.clear()
    assert custom_seen


def test_search_config_rejects_normalizer_samples_outside_the_group():
    message = "^normalizer sample is not in the group$"
    gl2gl2 = GroupSpec.make(("GL", 2), ("GL", 2))
    bad = (
        (GL2, [[1, 1], [1, 1]]),  # singular
        (GL2, [[1, 0, 0], [0, 1, 0]]),  # misshapen
        (SL2, [[2, 0], [0, 1]]),  # determinant 2
        (gl2gl2, _monomial((2, 3, 0, 1), (1, 1, 1, 1))),  # swaps the blocks
    )
    for group, sample in bad:
        with pytest.raises(DomainError, match=message):
            SearchConfig.default(group, normalizer_samples=(group.identity(), sample))
        with pytest.raises(DomainError, match=message):
            SearchConfig(group, 2, (), normalizer_samples=(sample,))


def test_optimize_checks_no_normalizer_sample_again(monkeypatch):
    # samples are checked and inverted when the configuration is built; the
    # optimizer acts by and classifies them with no further check
    rng = random.Random(107)
    gl2sl2 = GroupSpec.make(("GL", 2), ("SL", 2))
    cases = []
    for group in (GL3, gl2sl2):
        samples = (_first_block_scalar(group), _dense_member(rng, group))
        cfg = SearchConfig.default(group, shear_values=(1,), normalizer_samples=samples)
        n = _upper_nilpotent(rng, group)
        u = linalg.mat_add(group.identity(), linalg.mat(n))
        cases.append((cfg, ConjugationTuples(group, 1).point([n]), ZERO))
        cases.append((cfg, ConjugationTuples(group, 1).point([u]), SubvarietySpec.identity_tuple()))
    inverted, checked = [], []
    member_inverse, require_member = GroupSpec._member_inverse, GroupSpec.require_member

    def counted_inverse(group, g, what="element"):
        inverted.append(what)
        return member_inverse(group, g, what)

    def counted_check(group, g, what="element"):
        checked.append(what)
        return require_member(group, g, what)

    monkeypatch.setattr(GroupSpec, "_member_inverse", counted_inverse)
    monkeypatch.setattr(GroupSpec, "require_member", counted_check)
    for cfg, x, s in cases:
        result = optimize([x], s, cfg)
        assert result.status == OPTIMAL
        assert classify(cfg.normalizer_samples[0], result.cocharacter) is not MembershipClass.NOT_IN_P
    assert inverted == [] and checked == ["element"] * len(cases)


def test_conjugated_by_inverts_only_the_conjugator(monkeypatch):
    rng = random.Random(109)
    calls = []
    member_inverse = GroupSpec._member_inverse

    def counted(group, g, what="element"):
        calls.append((g, what))
        return member_inverse(group, g, what)

    for group in (GL3, GroupSpec.make(("GL", 2), ("SL", 2)), GroupSpec.make(("SL", 3))):
        for _ in range(4):
            lam = Cocharacter.based(group, _dense_member(rng, group), _exponents(rng, group))
            g = _dense_member(rng, group)
            with monkeypatch.context() as patched:
                patched.setattr(GroupSpec, "_member_inverse", counted)
                calls.clear()
                mu = lam.conjugated_by(g)
                assert calls == [(linalg._Scaled.of(g), "conjugator")]
            assert mu == Cocharacter(linalg.mat_mul(g, lam.base), lam.torus)
            assert mu._frame == _frame_pair(mu.base)
            assert mu.evaluate(2) == linalg.mat_mul(linalg.mat_mul(g, lam.evaluate(2)), linalg.inverse(g))
        singular = linalg.mat_mul(g, _monomial(tuple(range(group.dimension)), (0,) + (1,) * (group.dimension - 1)))
        with pytest.raises(DomainError, match="^conjugator is not in the group$"):
            lam.conjugated_by(singular)


# ---------------------------------------------------------------------------
# The closedness search's input-free tables: the two-product move and the
# per-block all(...) filter they replaced, kept as references


def _two_product_moved_tuples(mats, cfg):
    """Reference: each matrix scaled once and moved into each torus base by
    the two products inverse @ h @ base."""
    scaled = [linalg._Scaled.of(h) for h in mats]
    for frame, pair in zip(cfg.conjugation_family, _pairs(cfg)):
        base, inverse = pair
        yield frame, pair, [inverse @ h @ base for h in scaled]


def _all_filter_admissible_exponents(group, box, pattern):
    """Reference: ``admissible_exponents`` filtering each block's
    representatives by all(d_i >= d_j) over the pattern's pairs inside the
    block, with the block-vector path for pairs between blocks."""
    blocks = group.block_slices
    crossing = [(i, j) for i, j in pattern if len(blocks) > 1 and group.block_of(i) != group.block_of(j)]
    per_block = []
    for f, block in zip(group.factors, blocks):
        if crossing:
            choices = instability._block_vectors(f.family, len(block), box)
        else:
            choices = instability._block_representatives(f.family, len(block), box)
        local = [(i - block.start, j - block.start) for i, j in pattern if i in block and j in block]
        per_block.append([d for d in choices if all(d[i] >= d[j] for i, j in local)])
    combos = itertools.product(*per_block)
    if not crossing:
        return [sum(combo, ()) for combo in combos if any(map(any, combo))]
    out = {}
    for combo in combos:
        d = sum(combo, ())
        if any(d[i] < d[j] for i, j in crossing):
            continue
        key = (tuple(map(instability._ranks, combo)), tuple(d[i] == d[j] for i, j in crossing))
        if any(map(any, key[0])) or not all(key[1]):
            out.setdefault(key, tuple(x // gcd(*d) for x in d))
    return list(out.values())


SEARCH_TABLE_GROUPS = (
    GL2,
    GL3,
    GroupSpec.make(("GL", 4)),
    GroupSpec.make(("SL", 3)),
    GroupSpec.make(("GL", 2), ("SL", 2)),
)


def _rational_matrix(rng, m):
    return [[F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) if rng.random() < 0.6 else F(0) for _ in range(m)] for _ in range(m)]


def test_conjugation_operator_matches_two_products():
    # every torus of the corpus configurations (generators twisted by
    # +-1/2 and +-2) and of seeded configurations with a rational shear,
    # on seeded rational tuples: the same rows and the same scale
    rng = random.Random(113)
    cases = []
    for seed in (1, 2):
        for h in subgroup_corpus(seed, 60):
            cases.append((corpus_config(h.group), _twisted(h.generators, rng)))
    for group in SEARCH_TABLE_GROUPS:
        cfg = SearchConfig.default(group, shear_values=(-2, F(-1, 2), 1, 3))
        for _ in range(4):
            cases.append((cfg, [_rational_matrix(rng, group.dimension) for _ in range(rng.randint(1, 3))]))
    tori = 0
    for cfg, mats in cases:
        new = list(instability._torus_moves(ConjugationTuples(cfg.group, len(mats)).point(mats), cfg))
        old = list(_two_product_moved_tuples(mats, cfg))
        assert [(f, pair) for f, pair, _ in old] == [(t.frame, t.pair) for t, _, _ in new] and len(new) == len(old)
        assert [t for t, _, _ in new] == list(cfg._tori)
        for (_, flat, bits), (_, _, expected) in zip(new, old):
            moved = _moved(flat, cfg.group.dimension)
            assert [tuple(t) for t in moved] == [tuple(t) for t in expected]  # rows and scale, not only the value
            m = cfg.group.dimension
            assert bits == sum(1 << (i * m + j) for i in range(m) for j in range(m) if any(t.rows[i][j] for t in expected))
        tori += len(new)
    assert tori >= 120 * 7 + 5 * 4 * 7, tori


def test_admissible_exponent_masks_match_all_filter():
    # seeded patterns on GL_2-GL_4, SL_3 and GL_2 x SL_2 at boxes 1-4, with
    # pairs between blocks on the product, and the entry pattern of every
    # corpus torus
    rng = random.Random(127)
    cases = []
    for group in SEARCH_TABLE_GROUPS:
        m = group.dimension
        everywhere = [(i, j) for i in range(m) for j in range(m) if i != j]
        within = [(i, j) for i, j in everywhere if group.block_of(i) == group.block_of(j)]
        patterns = [set(), set(within), set(everywhere)]
        for q in (0.1, 0.25, 0.5):
            patterns += [{p for p in within if rng.random() < q} for _ in range(6)]
            patterns += [{p for p in everywhere if rng.random() < q} for _ in range(6)]
        cases += [(group, box, pattern) for box in (1, 2, 3, 4) for pattern in patterns]
    for seed in (1, 2):
        for h in subgroup_corpus(seed, 60):
            cfg = corpus_config(h.group)
            for _, flat, _ in instability._torus_moves(h.tuple_point(), cfg):
                moved = _moved(flat, h.group.dimension)
                cases.append((h.group, cfg.exponent_box, _entry_pattern(t.rows for t in moved)))
    crossing = 0
    for group, box, pattern in cases:
        assert admissible_exponents(group, box, pattern) == _all_filter_admissible_exponents(group, box, pattern)
        crossing += any(group.block_of(i) != group.block_of(j) for i, j in pattern)
    assert crossing >= 50, crossing


def _patterned_matrix(rng, m, pattern):
    """A seeded integer matrix with a nonzero diagonal and its off-diagonal
    entries inside the pattern, as rows."""
    return tuple(
        tuple(rng.choice((1, -1, 2)) if i == j else rng.choice((0, 1, -2)) if (i, j) in pattern else 0 for j in range(m))
        for i in range(m)
    )


def test_representative_masks_split_the_pairs_and_decide_the_limit():
    # on the search-table groups at boxes 1-4: each representative's less,
    # equal and greater pairs split the off-diagonal pairs, its levels are
    # its cumulative level sets, and ``record`` gives the same masks.
    # On seeded tuples with seeded entry patterns, pairs between blocks
    # included: ``admissible_exponents`` lists the exponents of the records
    # ``admissible`` gives for the entry mask, which are the records whose
    # less mask the entry mask misses (no pair between blocks), each
    # admissible entry's less mask misses it, and its greater mask misses it
    # exactly when the limit leaves every matrix as it is
    rng = random.Random(143)
    seen = dict(records=0, still=0, moving=0, crossing=0)
    for group in SEARCH_TABLE_GROUPS:
        m = group.dimension
        off = [(i, j) for i in range(m) for j in range(m) if i != j]
        bit = {(i, j): 1 << (i * m + j) for i, j in off}
        within = [p for p in off if group.block_of(p[0]) == group.block_of(p[1])]
        for box in (1, 2, 3, 4):
            table = instability._representatives(group.factors, box)
            for d, less, greater, levels, *_ in table.records:
                equal = sum(bit[i, j] for i, j in off if d[i] == d[j])
                assert less == sum(bit[i, j] for i, j in off if d[i] < d[j])
                assert greater == sum(bit[i, j] for i, j in off if d[i] > d[j])
                assert less & greater == less & equal == greater & equal == 0
                assert less | equal | greater == sum(bit.values())
                cuts = sorted(set(d), reverse=True)[:-1]
                assert levels == tuple(sum(1 << i for i in range(m) if d[i] >= c) for c in cuts)
                assert table.record(d)[1:4] == (less, greater, levels)
                seen["records"] += 1
            for q, pairs, _ in itertools.product((0.1, 0.25, 0.5), (within, off), range(3)):
                pattern = {p for p in pairs if rng.random() < q}
                mats = [_patterned_matrix(rng, m, pattern) for _ in range(rng.randint(1, 2))]
                bits = sum(bit[p] for p in _entry_pattern(mats))
                entries = admissible_exponents(group, box, _entry_pattern(mats))
                assert entries == [r[0] for r in table.admissible(bits)]
                if not bits & table.crossing:
                    assert entries == [d for d, less, *_ in table.records if not less & bits]
                seen["crossing"] += bool(bits & table.crossing)
                for d in entries:
                    less, greater, _ = table.record(d)[1:4]
                    still = all(_limit_pattern(h, d) == h for h in mats)
                    assert not less & bits and (not bits & greater) == still
                    seen["still" if still else "moving"] += 1
    assert seen["crossing"] >= 20 and min(seen["records"], seen["still"], seen["moving"]) >= 300, seen


def test_representative_radicals_match_radical_positions():
    # the positions and index kept in each record are the ones the solver
    # builds per cocharacter, the entries with d_i > d_j in one block, row
    # by row: on every representative, and on every entry admitted for
    # seeded entry patterns with pairs between blocks; a record is kept
    from destab.parabolic import _conjugator_index, _radical_positions

    def check(group, table, d):
        m = group.dimension
        free = _radical_positions(Cocharacter.standard(group, d))
        assert free == tuple((i, j) for i in range(m) for j in range(m) if d[i] > d[j] and group.block_of(i) == group.block_of(j))
        assert table.record(d)[4:] == (free, _conjugator_index(free))
        assert table.record(d) is table.record(d)

    for group in SEARCH_TABLE_GROUPS:
        for box in (1, 2, 4):
            table = instability._representatives(group.factors, box)
            assert [d for d, *_ in table.records] == admissible_exponents(group, box, set())
            for d, *_ in table.records:
                check(group, table, d)
    rng = random.Random(144)
    crossing = 0
    for shape in ((("GL", 2), ("SL", 2)), (("GL", 1), ("GL", 2))):
        group = GroupSpec.make(*shape)
        m = group.dimension
        off = [(i, j) for i in range(m) for j in range(m) if i != j]
        for box, _ in itertools.product((1, 2), range(12)):
            table = instability._representatives(group.factors, box)
            pattern = {p for p in off if rng.random() < 0.3} | {rng.choice(sorted(_crossing_pairs(group)))}
            bits = sum(1 << (i * m + j) for i, j in pattern)
            entries = table.admissible(bits)
            assert [r[0] for r in entries] == admissible_exponents(group, box, pattern)
            for d, *_ in entries:
                check(group, table, d)
                crossing += 1
    assert crossing >= 100, crossing


def _closedness_points(group, rng, count=6):
    """Seeded tuples of block-diagonal matrices moved by a family frame,
    so that some are caught by the search."""
    family = _weyl_shear_family(group, (-1, 1))
    points = []
    for _ in range(count):
        frame = rng.choice(family)
        inv = linalg.inverse(frame)
        mats = [
            linalg.mat_mul(linalg.mat_mul(frame, linalg.mat(_block_diagonal_matrix(rng, group))), inv)
            for _ in range(rng.randint(1, 2))
        ]
        points.append(ConjugationTuples(group, len(mats)).point(mats))
    return points


def test_second_search_builds_no_operator(monkeypatch):
    # one operator per torus record, on its first search; a second search,
    # or a second default configuration of the same shape, whose records
    # are the first one's, builds none
    build = linalg._conjugation_operator
    built = []

    def counted(left, right):
        built.append((right, left))  # h -> base^-1 h base for the pair (base, base^-1)
        return build(left, right)

    monkeypatch.setattr(linalg, "_conjugation_operator", counted)
    instability._default_tori.cache_clear()  # fresh records, whatever ran before
    rng = random.Random(131)
    for group in (GL3, GroupSpec.make(("GL", 2), ("SL", 2))):
        cfg = SearchConfig.default(group, exponent_box=2, shear_values=(-1, 1))
        points = _closedness_points(group, rng)
        built.clear()
        verdicts = [is_cochar_closed(v, cfg) for v in points]
        assert built == list(_pairs(cfg))  # one operator per torus, on the first search
        assert {v.closed for v in verdicts} == {True, False}
        assert [is_cochar_closed(v, cfg) for v in points] == verdicts
        again = SearchConfig.default(group, exponent_box=3, shear_values=(-1, 1))
        assert all(a is t for a, t in zip(again._tori, cfg._tori)) and len(again._tori) == len(cfg._tori)
        for v in points:
            is_cochar_closed(v, again)
        assert len(built) == len(cfg._tori)


def test_searched_configuration_equals_a_fresh_one():
    import pickle

    from destab import cli, documents

    rng = random.Random(137)
    for group in (GL3, GroupSpec.make(("GL", 2), ("SL", 2))):
        samples = (_dense_member(rng, group),)

        def build():
            return SearchConfig.default(group, exponent_box=2, shear_values=(-1, 1), normalizer_samples=samples)

        cfg = build()
        # the checking constructor's records are fresh, not the shared ones
        fresh = SearchConfig(group, 2, cfg.conjugation_family, normalizer_samples=samples)
        points = _closedness_points(group, rng)
        verdicts = [is_cochar_closed(v, cfg) for v in points]
        assert all("operator" in vars(t) for t in cfg._tori)
        assert not any("operator" in vars(t) or t._spaces for t in fresh._tori)
        assert cfg == fresh and hash(cfg) == hash(fresh) and repr(cfg) == repr(fresh)
        echo = documents.emit_config(cfg)
        assert echo == documents.emit_config(fresh)
        assert cli._fingerprint({"config": echo}) == cli._fingerprint({"config": documents.emit_config(fresh)})
        for copy in (pickle.loads(pickle.dumps(cfg)), pickle.loads(pickle.dumps(fresh))):
            assert copy == cfg and hash(copy) == hash(cfg)
            assert [is_cochar_closed(v, copy) for v in points] == verdicts
        assert [is_cochar_closed(v, fresh) for v in points] == verdicts


def _reference_kempf_check(inst):
    """Reference: ``corpus._kempf_check`` inverting each conjugator with
    ``linalg.inverse``, moving the points by public ``act`` and
    conjugating the parabolic by public ``conjugated_by``."""
    group = inst.group
    rep = inst.points[0].rep
    s = SubvarietySpec.zero_locus()
    extra = inst.extra_frame
    for g in inst.conjugators:
        ginv = linalg.inverse(g)
        base_family = [group.identity(), extra, ginv, linalg.mat_mul(ginv, extra)]
        cfg = SearchConfig(group, 4, tuple(base_family), normalizer_samples=inst.normalizer_samples)
        moved_cfg = SearchConfig(group, 4, tuple(linalg.mat_mul(g, f) for f in base_family))
        try:
            result = optimize(inst.points, s, cfg)
        except InvariantViolation as exc:
            return {"ok": False, "detail": str(exc)}
        moved_result = optimize(tuple(rep.act(g, x) for x in inst.points), s, moved_cfg)
        if result.status != OPTIMAL or moved_result.status != OPTIMAL:
            return {"ok": False, "detail": "optimum not witnessed"}
        if moved_result.value_sq != result.value_sq:
            return {"ok": False, "detail": "values differ"}
        if moved_result.parabolic != result.parabolic.conjugated_by(g):
            return {"ok": False, "detail": "parabolic is not conjugate"}
    return {"ok": True, "detail": None}


def test_kempf_check_checks_each_conjugator_once(monkeypatch):
    from destab import corpus
    from destab.parabolic import ParabolicDescriptor
    from destab.reps import Representation

    cases = corpus._kempf_cases(1, 6)
    expected = [_reference_kempf_check(inst) for inst in cases]
    calls = []
    checked_pair, inverse = GroupSpec._checked_pair, linalg.inverse
    require_member, act = GroupSpec.require_member, Representation.act

    def counted_pair(group, g, what="element"):
        calls.append(what)
        return checked_pair(group, g, what)

    def refused(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")

        return call

    built, held = [], SearchConfig._held

    def recorded(*args, **kwargs):
        built.append(held(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(GroupSpec, "_checked_pair", counted_pair)
    monkeypatch.setattr(linalg, "inverse", refused("inverse"))
    monkeypatch.setattr(GroupSpec, "require_member", refused("require_member"))
    monkeypatch.setattr(Representation, "act", refused("act"))
    monkeypatch.setattr(SearchConfig, "_held", staticmethod(recorded))
    for inst, record in zip(cases, expected):
        calls.clear()
        assert corpus._kempf_check(inst) == record == {"ok": True, "detail": None}
        assert calls.count("conjugator") == len(inst.conjugators)
        # the extra frame and the samples once per instance, every other frame a product of held pairs
        assert calls.count("conjugation family element") == 1
        assert calls.count("normalizer sample") == len(inst.normalizer_samples) > 0
        assert len(calls) == len(inst.conjugators) + 1 + len(inst.normalizer_samples)
        assert not {"inverse", "require_member", "act"} & set(calls)
    monkeypatch.undo()
    # each configuration, with the pairs of its frames and samples, is the one
    # the checking constructor builds from the reference's families
    references = []
    for inst in cases:
        for g in inst.conjugators:
            ginv = linalg.inverse(g)
            base_family = (inst.group.identity(), inst.extra_frame, ginv, linalg.mat_mul(ginv, inst.extra_frame))
            references.append(SearchConfig(inst.group, 4, base_family, normalizer_samples=inst.normalizer_samples))
            references.append(SearchConfig(inst.group, 4, tuple(linalg.mat_mul(g, f) for f in base_family)))
    assert len(built) == len(references)
    for cfg, reference in zip(built, references):
        assert cfg == reference and repr(cfg) == repr(reference)
        assert _pairs(cfg) == _pairs(reference) and cfg._samples == reference._samples
        assert [t.key for t in cfg._tori] == [t.key for t in reference._tori]
    # the private path conjugates as the public one, which still checks
    rng = random.Random(139)
    for group in SEARCH_TABLE_GROUPS:
        for _ in range(4):
            p = ParabolicDescriptor.from_cocharacter(Cocharacter.based(group, _dense_member(rng, group), _exponents(rng, group)))
            g = _dense_member(rng, group)
            assert p._conjugated_by_pair(group._checked_pair(g)) == p.conjugated_by(g)
        with pytest.raises(DomainError, match="^element is not in the group$"):
            p.conjugated_by(linalg.zeros(group.dimension, group.dimension))


# ---------------------------------------------------------------------------
# The program's own frames carry their inverses in closed form, against the
# checked pairs of ``GroupSpec._checked_pair``, kept as the reference


HELD_PAIR_GROUPS = tuple(
    GroupSpec.make(*factors)
    for factors in (
        (("GL", 1),),
        (("GL", 2),),
        (("GL", 3),),
        (("GL", 4),),
        (("GL", 5),),
        (("SL", 2),),
        (("SL", 3),),
        (("SL", 4),),
        (("GL", 2), ("SL", 2)),
        (("GL", 1), ("GL", 1), ("GL", 1)),
    )
)


def _old_default_frames(group, values):
    """Reference: the frames ``SearchConfig.default`` gave to the
    checking constructor, the identity and then each shear of each block,
    an SL block's values closed under negation."""
    frames = [group.identity()]
    for f, block in zip(group.factors, group.block_slices):
        block_values = tuple(values)
        if f.family == "SL":
            block_values += tuple(-c for c in block_values if -c not in block_values)
        for i, j in itertools.permutations(block, 2):
            for c in block_values:
                if c != 0:
                    shear = [list(row) for row in group.identity()]
                    shear[i][j] = c
                    frames.append(linalg.mat(shear))
    return tuple(frames)


def _assert_reference_pair(group, frame, pair, canonical=False):
    reference = group._checked_pair(linalg.mat(frame), "frame")
    assert pair[0] == reference[0] and pair[1] == reference[1]
    assert pair[0].fractions() == linalg.mat(frame)
    if canonical:  # the same rows and scale as the checked pair's
        assert tuple(pair[0]) == tuple(reference[0]) and tuple(pair[1]) == tuple(reference[1])


def test_closed_form_pairs_match_checked_pairs():
    from destab import corpus

    rng = random.Random(149)
    for group in HELD_PAIR_GROUPS:
        weyl = group.weyl_representatives()
        held = list(zip(weyl, group._weyl_pairs))
        assert len(held) == len(weyl)
        if any(f.family == "SL" for f in group.factors) and len(weyl) > 1:
            assert any(-1 in row for w in weyl for row in w)  # negated-column representatives
        for values in ((-2, -1, 1, 2), (F(1, 2), -3, "-2/3"), ()):
            mats, pairs, blocks = group._shear_table(values)
            assert mats == group.shears(values) and len(pairs) == len(blocks) == len(mats)
            for g, b in zip(mats, blocks):
                i, j = next((i, j) for i, row in enumerate(g) for j, x in enumerate(row) if i != j and x)
                assert group.block_of(i) == group.block_of(j) == b
            held += zip(mats, pairs)
        for g, pair in held:
            _assert_reference_pair(group, g, pair, canonical=True)
        cfg = SearchConfig.default(group, shear_values=(F(1, 2), -1))
        for g, pair in zip(cfg.conjugation_family, _pairs(cfg)):
            _assert_reference_pair(group, g, pair, canonical=True)
        # seeded products of two and three held pairs: (a b, b^-1 a^-1)
        for _ in range(12):
            items = [rng.choice(held) for _ in range(rng.choice((2, 3)))]
            frame, pair = items[0]
            for g, (a, a_inverse) in items[1:]:
                frame, pair = linalg.mat_mul(frame, g), (pair[0] @ a, a_inverse @ pair[1])
            _assert_reference_pair(group, frame, pair)
        # the corpus draws: the pair of the frame the same draws gave before
        for seed in range(6 if group.shears() else 0):
            draw, again = random.Random(seed), random.Random(seed)
            pair = corpus._random_frame_pair(draw, group)
            assert pair[0].fractions() == corpus.random_frame(again, group) and draw.random() == again.random()
            _assert_reference_pair(group, pair[0].fractions(), pair)
            pair = corpus.family_frame(draw, group)
            _assert_reference_pair(group, pair[0].fractions(), pair)


def test_default_configuration_checks_only_its_samples(monkeypatch):
    from destab import documents

    calls = []
    checked_pair = GroupSpec._checked_pair

    def counted(group, g, what="element"):
        calls.append(what)
        return checked_pair(group, g, what)

    rng = random.Random(151)
    monkeypatch.setattr(GroupSpec, "_checked_pair", counted)
    SearchConfig.default(GL3, shear_values=(-2, -1, 1, 2))
    assert calls == []
    for k in (1, 2, 3):
        calls.clear()
        SearchConfig.default(GL3, shear_values=(-2, -1, 1, 2), normalizer_samples=[_dense_member(rng, GL3) for _ in range(k)])
        assert calls == ["normalizer sample"] * k
    monkeypatch.undo()
    # the configuration the checking constructor builds from the same frames
    for group in HELD_PAIR_GROUPS:
        for values in ((-2, -1, 1, 2), (1,), (F(1, 2), -1), (2, 0, 2), ()):
            samples = (_dense_member(rng, group), group.identity())
            cfg = SearchConfig.default(group, 3, values, True, samples)
            old = SearchConfig(group, 3, _old_default_frames(group, values), True, samples)
            assert cfg == old and hash(cfg) == hash(old) and repr(cfg) == repr(old)
            assert documents.emit_config(cfg) == documents.emit_config(old)
            assert _pairs(cfg) == _pairs(old) and cfg._samples == old._samples
            assert [t.key for t in cfg._tori] == [t.key for t in old._tori]
    with pytest.raises(DomainError, match="^exponent box must be >= 1$"):
        SearchConfig.default(GL2, exponent_box=0, normalizer_samples=(linalg.zeros(2, 2),))
    with pytest.raises(DomainError, match="^normalizer sample is not in the group$"):
        SearchConfig.default(SL2, shear_values=(1,), normalizer_samples=(GL2.identity(), linalg.mat([[2, 0], [0, 1]])))
    with pytest.raises(TypeError):
        SearchConfig.default(GL2, shear_values=(1.0,))


# ---------------------------------------------------------------------------
# Points read in a frame on their integer coordinates, against the routes
# that moved them as points, kept as references


def _reference_moved_point_forms(points, s, frame):
    """Reference: ``_frame_forms`` on moved points: each point moved into
    the frame as a point (``_reference_frame_weights``), its forms read off
    the coordinates that differ from S's fixed point, or for a custom S off
    the generators' components evaluated at the moved point."""
    rep = points[0].rep
    p = s._fixed_point(rep)
    if p is None:
        iso = s.isotypic_data(rep, None if frame is None else frame[0].fractions())
    out = []
    for x in points:
        moved, support = _reference_frame_weights(x, frame)
        if p is not None:
            forms = {chi for chi, c, pc in zip(rep.weights, moved.coords, p) if c != pc}
        else:
            forms = {chi for parts in iso for chi, part in parts if part.evaluate(moved) != 0}
        out.append((support, forms))
    return out


def _moved_point_sets(points, s, frame):
    """``_reference_moved_point_forms`` with each point's support weights
    as a set, as its class mask holds them."""
    return [(set(support), forms) for support, forms in _reference_moved_point_forms(points, s, frame)]


def _reference_grade(v, lam):
    """Reference: ``grade`` on moved points: v moved into lambda's frame as
    a point, its coordinates bucketed by level, each bucket moved back."""
    rep = v.rep
    transported = rep._act(lam._frame[::-1], v)
    buckets = {}
    for idx, (chi, c) in enumerate(zip(rep.weights, transported.coords)):
        if c:
            buckets.setdefault(pairing(lam.torus, chi), [F(0)] * rep.dim)[idx] = c
    return {n: rep._act(lam._frame, Point(rep, tuple(flat))) for n, flat in buckets.items()}


def _reference_limit(v, lam):
    """Reference: the grade-based ``limit``: None when a negative level is
    present, else the level-0 component or the zero point."""
    components = _reference_grade(v, lam)
    if any(n < 0 for n in components):
        return None
    return components.get(0, v.rep.zero())


def _reference_from_cocharacter(lam):
    """Reference: ``ParabolicDescriptor.from_cocharacter`` by
    ``linalg.row_space`` of the base's Fraction columns."""
    d = lam.torus.exponents
    columns = linalg.transpose(lam.base)
    flags = []
    for block in lam.group.block_slices:
        cuts = sorted({d[i] for i in block}, reverse=True)[:-1]
        flags.append(tuple(linalg.row_space(tuple(columns[i] for i in block if d[i] >= cut)) for cut in cuts))
    return ParabolicDescriptor(lam.group, tuple(flags))


def _denominator_frame(rng, group, den):
    """A seeded frame with entries over den: per block a signed permutation
    times a lower and an upper unitriangular matrix with entries k/den, and
    on a GL block a diagonal of den, 1/den and -1."""
    m = group.dimension
    g = [[F(0)] * m for _ in range(m)]
    for f, block in zip(group.factors, group.block_slices):
        n = len(block)
        perm = rng.sample(range(n), n)
        sub = linalg.mat([[int(perm[i] == j) for j in range(n)] for i in range(n)])
        if f.family == "SL" and linalg.det(sub) < 0:
            sub = linalg.mat([[-x for x in sub[0]], *sub[1:]])
        for upper in (False, True):
            tri = [[F(int(i == j)) if (j > i) != upper or i == j else F(rng.randint(-5, 5), den) for j in range(n)] for i in range(n)]
            sub = linalg.mat_mul(sub, linalg.mat(tri))
        if f.family == "GL":
            diagonal = [rng.choice((1, den, F(1, den), -1)) for _ in range(n)]
            sub = linalg.mat_mul(sub, linalg.mat([[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]))
        for i, row in zip(block, sub):
            g[i][block.start : block.stop] = row
    return linalg.mat(g)


def _frame_read_cases():
    """Seeded (representation, cocharacter, points, subvarieties) cases:
    conjugation tuples of counts 1-3 over GL_2-GL_4, SL_3 and GL_2 x SL_2,
    symmetric powers of degrees 2-6 on GL_2 and SL_2 and two direct sums,
    each on cocharacters whose frames have denominators 2, 3 and 6.  The
    points: one with a limit, one with a coordinate of a negative level in
    the frame, one dense; on conjugation tuples, each also plus the identity
    tuple.  The subvarieties: the zero locus, the identity tuple on
    conjugation tuples, and a custom one."""
    rng = random.Random(173)
    GL4 = GroupSpec.make(("GL", 4))
    groups = [GL2, GL3, GL4, GroupSpec.make(("SL", 3)), GroupSpec.make(("GL", 2), ("SL", 2))]
    reps = [ConjugationTuples(group, count) for group in groups for count in (1, 2, 3)]
    reps += [SymPower(group, degree) for group in (GL2, SL2) for degree in range(2, 7)]
    reps += [DirectSum((SymPower(GL2, 3), ConjugationTuples(GL2, 2))), DirectSum((ConjugationTuples(GL3, 1), ConjugationTuples(GL3, 2)))]
    for rep in reps:
        custom = SubvarietySpec.custom(
            (Polynomial.coordinate(rep, 0) - Polynomial.coordinate(rep, rep.dim - 1),), g_stable_asserted=True
        )
        subvarieties = [ZERO, custom]
        if isinstance(rep, ConjugationTuples):
            subvarieties.append(SubvarietySpec.identity_tuple())
        for den in (2, 3, 6):
            lam = Cocharacter.based(rep.group, _denominator_frame(rng, rep.group, den), _exponents(rng, rep.group))
            levels = [pairing(lam.torus, chi) for chi in rep.weights]
            points = []
            for negative in (False, True):
                coords = [F(rng.randint(-4, 4), rng.choice((1, 2, 3, 6))) if n >= 0 and rng.random() < 0.7 else F(0) for n in levels]
                if negative and min(levels) < 0:
                    coords[rng.choice([k for k, n in enumerate(levels) if n < 0])] = F(rng.choice((1, -1)), rng.choice((1, 2, 3)))
                points.append(rep._act(lam._frame, Point(rep, coords)))
            points.append(Point(rep, [F(rng.randint(-4, 4), rng.choice((1, 2, 3, 6))) for _ in range(rep.dim)]))
            if isinstance(rep, ConjugationTuples):
                identity = Point(rep, SubvarietySpec.identity_tuple()._fixed_point(rep))
                points += [x + identity for x in points]
            yield rep, lam, points, subvarieties


def test_frame_forms_match_moved_point_reference():
    # the forms and support read off integer coordinates against the route
    # that moved each point as a point, in the frame of each cocharacter
    # and in the standard frame, for every subvariety of the case; the
    # integer coordinates are those of the moved point
    checked = 0
    for rep, lam, points, subvarieties in _frame_read_cases():
        for s in subvarieties:
            for frame in (lam._frame, None):
                for x in points:
                    assert _decoded(rep, instability._frame_forms([x], s, frame)) == _moved_point_sets([x], s, frame)
                    checked += 1
                assert _decoded(rep, instability._frame_forms(points, s, frame)) == _moved_point_sets(points, s, frame)
        for x in points:
            w, u = _frame_ints(x, lam._frame)
            assert tuple(F(c, u) for c in w) == _reference_frame_weights(x, lam._frame)[0].coords
    assert checked == 2052, checked


def test_limit_and_grade_match_grade_based_reference():
    # limit, grade and admits_limit against the grade-based references on
    # points with and without a limit; every coordinate returned is a Fraction
    without = with_limit = 0
    for rep, lam, points, _ in _frame_read_cases():
        for x in points:
            expected = _reference_limit(x, lam)
            value = limit(x, lam)
            assert value == expected and instability.admits_limit(x, lam) == (expected is not None)
            graded = grade(x, lam)
            assert graded.components == _reference_grade(x, lam) and graded.reconstruct() == x
            assert all(type(c) is F for part in graded.components.values() for c in part.coords)
            if value is None:
                without += 1
            else:
                assert all(type(c) is F for c in value.coords)
                with_limit += 1
    assert (without, with_limit) == (238, 140), (without, with_limit)


def test_from_cocharacter_matches_row_space_reference():
    # the flags read off the scaled base against row_space of the Fraction
    # columns, on each case's cocharacter and on it conjugated by a second
    # frame, whose pair is a product with a scale that is not the lcm
    rng = random.Random(179)
    checked = 0
    for rep, lam, _, _ in _frame_read_cases():
        other = lam.conjugated_by(_denominator_frame(rng, rep.group, rng.choice((2, 3, 6))))
        for mu in (lam, other):
            descriptor = ParabolicDescriptor.from_cocharacter(mu)
            assert descriptor == _reference_from_cocharacter(mu)
            assert all(type(x) is F for chain in descriptor.flags for space in chain for row in space for x in row)
            checked += 1
    assert checked == 162, checked
