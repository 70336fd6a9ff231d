from fractions import Fraction as F
import math
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from destab import (
    Character,
    Cocharacter,
    ConjugationTuples,
    DirectSum,
    GroupSpec,
    Point,
    Polynomial,
    SubvarietySpec,
    SymPower,
    grade,
    isotypic_decompose,
    limit,
    optimize_torus,
    support,
)
from destab import DomainError, linalg
from destab.corpus import random_cocharacter, random_point_with_limit, random_radical_element
import random

GL2 = GroupSpec.make(("GL", 2))
GL3 = GroupSpec.make(("GL", 3))
SL2 = GroupSpec.make(("SL", 2))
MAT2 = ConjugationTuples(GL2, 1)
SYM4 = SymPower(SL2, 4)
MAT_SL2 = ConjugationTuples(SL2, 1)


def test_support_examples():
    e12 = MAT2.point([[[0, 1], [0, 0]]])
    assert support(e12) == frozenset({Character((1, -1))})
    x3y = SYM4.monomial(1)
    (chi,) = support(x3y)
    assert sum(d * w for d, w in zip((1, -1), chi.weights)) == 2
    assert support(MAT2.zero()) == frozenset()


def test_support_respects_frame():
    v = MAT2.point([[[1, 1], [0, 1]]])
    frame = linalg.mat([[1, 1], [0, 1]])
    # in its own frame the unipotent element is diagonal-plus-upper as before,
    # but transporting v = frame . I . frame^{-1} recovers a single weight
    w = MAT2.point([[[1, 0], [0, 1]]])
    moved = MAT2.act(frame, w)
    assert support(moved, frame) == support(w)


def test_grade_examples():
    lam = Cocharacter.standard(GL2, (1, -1))
    v = MAT2.point([[[1, 1], [0, 1]]])
    g = grade(v, lam)
    assert g.levels == (0, 2)
    assert MAT2.matrices(g.components[0]) == (linalg.identity(2),)
    assert MAT2.matrices(g.components[2]) == (linalg.mat([[0, 1], [0, 0]]),)

    zero = Cocharacter.standard(GL2, (0, 0))
    g0 = grade(v, zero)
    assert g0.levels == (0,) and g0.components[0] == v

    e21 = MAT2.point([[[0, 0], [1, 0]]])
    g1 = grade(e21, lam)
    assert g1.levels == (-2,)


def test_limit_examples():
    lam = Cocharacter.standard(SL2, (1, -1))
    rep = ConjugationTuples(SL2, 1)
    v = rep.point([[[2, F(-3, 2)], [0, F(1, 2)]]])
    assert rep.matrices(limit(v, lam)) == (linalg.mat([[2, 0], [0, F(1, 2)]]),)
    assert limit(rep.point([[[0, 0], [1, 0]]]), lam) is None
    assert limit(rep.point([[[0, 1], [0, 0]]]), lam) == rep.zero()


def test_isotypic_examples():
    x12 = Polynomial.coordinate(MAT2, 1)
    parts = isotypic_decompose(x12)
    assert parts == [(Character((1, -1)), x12)]

    trace = Polynomial.coordinate(MAT2, 0) + Polynomial.coordinate(MAT2, 3)
    parts = isotypic_decompose(trace)
    assert parts == [(Character((0, 0)), trace)]

    prod = Polynomial.coordinate(MAT2, 0) * Polynomial.coordinate(MAT2, 1)
    parts = isotypic_decompose(prod)
    assert [chi for chi, _ in parts] == [Character((1, -1))]


def test_isotypic_decompose_with_frame_sums_to_composed():
    frame = linalg.mat([[1, 2], [0, 1]])
    f = Polynomial.coordinate(MAT2, 1) * Polynomial.coordinate(MAT2, 2)
    parts = isotypic_decompose(f, frame)
    total = Polynomial(MAT2, ())
    for _chi, part in parts:
        total = total + part
    assert total == f.composed_with_action(frame)


def test_action_is_multiplicative():
    rng = random.Random(7)
    g = linalg.mat([[1, 2], [1, 3]])
    h = linalg.mat([[0, 1], [-1, 2]])
    for rep in (MAT2, SymPower(GL2, 3), DirectSum((MAT2, SymPower(GL2, 2)))):
        v = Point(rep, tuple(F(rng.randint(-3, 3)) for _ in range(rep.dim)))
        assert rep.act(linalg.mat_mul(g, h), v) == rep.act(g, rep.act(h, v))


def test_torus_acts_with_declared_weights():
    for rep in (MAT2, SYM4):
        group = rep.group
        lam = Cocharacter.standard(group, (1, -1))
        for a in (F(2), F(3), F(5)):
            t = lam.evaluate(a)
            for idx, chi in enumerate(rep.weights):
                coords = [F(0)] * rep.dim
                coords[idx] = F(1)
                v = Point(rep, tuple(coords))
                n = sum(d * w for d, w in zip((1, -1), chi.weights))
                scaled = Point(rep, tuple(a**n * c for c in v.coords))
                assert rep.act(t, v) == scaled


def test_sym_power_weights_are_built_once_per_degree():
    # x^{d-j} y^j has weight (d - j, j), on GL_2 and SL_2 alike
    for degree in range(1, 7):
        weights = SymPower(SL2, degree).weights
        assert weights == tuple(Character((degree - j, j)) for j in range(degree + 1))
        assert SymPower(GL2, degree).weights is weights and SymPower(SL2, degree).weights is weights


def test_sym_power_action_matches_substitution():
    # g.(x^2 y) for g = [[1,1],[0,1]]: x -> x, y -> x + y
    sym3 = SymPower(GL2, 3)
    v = sym3.monomial(1)  # x^2 y
    g = linalg.mat([[1, 1], [0, 1]])
    image = sym3.act(g, v)
    # (x)(x)(x + y) = x^3 + x^2 y
    expected = sym3.monomial(0) + sym3.monomial(1)
    assert image == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_grading_reconstructs(seed):
    rng = random.Random(seed)
    rep = MAT2 if seed % 2 else SYM4
    lam = random_cocharacter(rng, rep.group)
    v = Point(rep, tuple(F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(rep.dim)))
    g = grade(v, lam)
    assert g.reconstruct() == v
    for n, comp in g.components.items():
        regraded = grade(comp, lam)
        assert set(regraded.components) <= {n}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_group_element_of_cocharacter_scales_grading(seed):
    # evaluating the one-parameter subgroup at a sample point and acting
    # must scale each grading component by the matching power
    rng = random.Random(seed)
    rep = MAT2 if seed % 2 else SYM4
    lam = random_cocharacter(rng, rep.group)
    v = Point(rep, tuple(F(rng.randint(-3, 3)) for _ in range(rep.dim)))
    g = grade(v, lam)
    for a in (F(2), F(3), F(5)):
        moved = rep.act(lam.evaluate(a), v)
        expected = rep.zero()
        for n, comp in g.components.items():
            expected = expected + Point(rep, tuple(a**n * c for c in comp.coords))
        assert moved == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_limit_is_level_zero_projection(seed):
    rng = random.Random(seed)
    rep = MAT2 if seed % 2 else SYM4
    lam = random_cocharacter(rng, rep.group)
    v = random_point_with_limit(rng, rep, lam)
    lim = limit(v, lam)
    g = grade(v, lam)
    assert lim == g.components.get(0, rep.zero())
    regraded = grade(lim, lam)
    assert set(regraded.components) <= {0}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_radical_perturbation_lands_strictly_positive(seed):
    rng = random.Random(seed)
    rep = MAT2 if seed % 2 else SYM4
    lam = random_cocharacter(rng, rep.group)
    u = random_radical_element(rng, lam)
    v = random_point_with_limit(rng, rep, lam)
    diff = rep.act(u, v) - v
    g = grade(diff, lam)
    assert all(n > 0 for n in g.components)


def test_point_validation():
    with pytest.raises(Exception):
        Point(MAT2, (F(1),))
    with pytest.raises(Exception):
        MAT2.point([[[1, 0], [0, 1]], [[1, 0], [0, 1]]])


# ---------------------------------------------------------------------------
# Structured actions against the action matrix, kept as the reference


def _dense_member(rng, group):
    """A seeded dense rational block-diagonal element of the group."""
    m = group.dimension
    g = [[F(0)] * m for _ in range(m)]
    for f, block in zip(group.factors, group.block_slices):
        while True:
            sub = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in block] for _ in block]
            d = linalg.det(linalg.mat(sub))
            if d != 0:
                break
        if f.family == "SL":
            for row in sub:
                row[0] /= d
        for a, i in enumerate(block):
            for b, j in enumerate(block):
                g[i][j] = sub[a][b]
    return linalg.mat(g)


def _acting_elements(rng, group):
    """Weyl representatives times shears, and seeded dense members."""
    shears = group.shears((-1, 2))
    frames = [linalg.mat_mul(w, rng.choice(shears)) for w in group.weyl_representatives()]
    return rng.sample(frames, min(len(frames), 4)) + [_dense_member(rng, group) for _ in range(3)]


def _random_point(rng, rep):
    return Point(rep, tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rep.dim)))


def test_act_matches_action_matrix_on_seeded_inputs():
    rng = random.Random(53)
    groups = (
        GL2,
        GL3,
        GroupSpec.make(("SL", 3)),
        GroupSpec.make(("GL", 2), ("SL", 2)),
        GroupSpec.make(("GL", 1), ("GL", 2)),
    )
    reps = [ConjugationTuples(group, count) for group in groups for count in (1, 2, 3)]
    reps += [
        DirectSum((ConjugationTuples(GL2, 2), SymPower(GL2, 3))),
        DirectSum((SymPower(SL2, 2), ConjugationTuples(SL2, 1), SymPower(SL2, 4))),
    ]
    checked = 0
    for rep in reps:
        for g in _acting_elements(rng, rep.group):
            for _ in range(2):
                v = _random_point(rng, rep)
                expected = Point(rep, linalg.mat_vec(rep.act_matrix(g), v.coords))
                assert rep.act(g, v) == expected, (rep, g)
                checked += 1
    assert checked == 206


def test_act_memo_keys_on_the_scaled_value(monkeypatch):
    # _act agrees with the action matrix; the checked pairs of equal
    # matrices built from distinct Fraction objects hit one memo entry;
    # _act itself checks and inverts nothing; the identity moves nothing
    rng = random.Random(71)
    reps = [
        ConjugationTuples(GL2, 2),
        ConjugationTuples(SL2, 1),
        ConjugationTuples(GL3, 1),
        SymPower(SL2, 4),
        SymPower(GL2, 3),
        DirectSum((SymPower(GL2, 3), ConjugationTuples(GL2, 1))),
    ]
    reductions = []
    member_inverse = GroupSpec._member_inverse

    def counted(group, g, what="element"):
        reductions.append(g)
        return member_inverse(group, g, what)

    monkeypatch.setattr(GroupSpec, "_member_inverse", counted)
    for rep in reps:
        elements = _acting_elements(rng, rep.group) + [rep.group.identity()]
        pairs = []
        for g in elements:
            copy = tuple(tuple(F(x.numerator, x.denominator) for x in row) for row in g)
            assert copy == g and all(x is not y for r, q in zip(copy, g) for x, y in zip(r, q) if x)
            pairs.append((g, rep.group._checked_pair(g), rep.group._checked_pair(copy)))
        identity = rep.group._checked_pair(rep.group.identity())
        assert len(reductions) == 2 * len(elements) + 1
        reductions.clear()
        for g, pair, copy_pair in pairs:
            v = _random_point(rng, rep)
            expected = linalg.mat_vec(_fraction_act_matrix(rep, g), v.coords)
            assert rep._act(pair, v).coords == expected
            assert rep._act(copy_pair, v).coords == expected
        assert len(rep._act_memo) == len(set(elements))
        v = _random_point(rng, rep)
        assert rep._act(identity, v) is v
        assert reductions == []


def test_act_rejects_a_non_member_on_every_call():
    sl2_tuple = ConjugationTuples(SL2, 2)
    v = sl2_tuple.point([[[1, 2], [0, 1]], [[0, 1], [1, 0]]])
    singular = ConjugationTuples(GL2, 1)
    off_block = ConjugationTuples(GroupSpec.make(("GL", 1), ("GL", 1)), 1)
    cases = (
        (sl2_tuple, v, [[2, 0], [0, 1]]),  # determinant 2 in SL_2
        (singular, singular.point([[[1, 0], [0, 0]]]), [[1, 1], [1, 1]]),
        (off_block, off_block.point([[[1, 0], [0, 2]]]), [[1, 1], [0, 1]]),
        (SYM4, SYM4.monomial(1), [[1, 0], [0, 3]]),
        (DirectSum((SYM4, ConjugationTuples(SL2, 1))), DirectSum((SYM4, ConjugationTuples(SL2, 1))).zero(), [[3, 0], [0, 1]]),
        (MAT2, MAT2.point([[[0, 1], [0, 0]]]), [[1, 1], [1, 1]]),  # singular
        (SYM4, SYM4.monomial(1), [[1, 1], [1, 1]]),
        (ConjugationTuples(GL3, 1), ConjugationTuples(GL3, 1).zero(), [[1, 2, 3], [2, 4, 6], [0, 0, 1]]),
    )
    for rep, point, g in cases:
        for _ in range(2):
            with pytest.raises(DomainError, match="acting element is not in the group"):
                rep.act(g, point)
            with pytest.raises(DomainError, match="acting element is not in the group"):
                rep.act_matrix(g)
        with pytest.raises(DomainError, match="acting element is not in the group"):
            Polynomial.coordinate(rep, 0).composed_with_action(g)
        # a frame moves points into it: support and the torus optimum
        with pytest.raises(DomainError, match="acting element is not in the group"):
            support(point, g)
        with pytest.raises(DomainError, match="acting element is not in the group"):
            optimize_torus([point], SubvarietySpec.zero_locus(), g)


def test_support_inverts_the_frame_once(monkeypatch):
    rng = random.Random(59)
    member_inverse = GroupSpec._member_inverse
    calls = []

    def counted(group, g, what="element"):
        calls.append(g)
        return member_inverse(group, g, what)

    for rep in (ConjugationTuples(GL3, 2), DirectSum((MAT2, SymPower(GL2, 2)))):
        for frame in _acting_elements(rng, rep.group):
            v = _random_point(rng, rep)
            moved = linalg.mat_vec(rep.act_matrix(linalg.inverse(frame)), v.coords)
            expected = frozenset(chi for chi, c in zip(rep.weights, moved) if c != 0)
            monkeypatch.setattr(GroupSpec, "_member_inverse", counted)
            calls.clear()
            assert support(v, frame) == expected
            assert len(calls) == 1
            monkeypatch.undo()


# ---------------------------------------------------------------------------
# The integer actions against the definition


def _fraction_act_matrix(rep, g):
    """The action matrix of the rational kinds, in Fraction arithmetic."""
    if isinstance(rep, DirectSum):
        blocks = [_fraction_act_matrix(p, g) for p in rep.parts]
        rows, offset = [], 0
        for p, block in zip(rep.parts, blocks):
            for r in block:
                rows.append((F(0),) * offset + tuple(r) + (F(0),) * (rep.dim - offset - p.dim))
            offset += p.dim
        return tuple(rows)
    if isinstance(rep, SymPower):
        d = rep.degree
        cols = []
        for j in range(d + 1):
            poly1 = [comb(d - j, k) * g[0][0] ** (d - j - k) * g[1][0] ** k for k in range(d - j + 1)]
            poly2 = [comb(j, k) * g[0][1] ** (j - k) * g[1][1] ** k for k in range(j + 1)]
            col = [F(0)] * (d + 1)
            for k1, c1 in enumerate(poly1):
                for k2, c2 in enumerate(poly2):
                    col[k1 + k2] += c1 * c2
            cols.append(col)
        return tuple(tuple(cols[j][i] for j in range(d + 1)) for i in range(d + 1))
    ginv = linalg.inverse(g)
    m, n = rep.m, rep.m * rep.m
    block = [[g[i][k] * ginv[l][j] for k in range(m) for l in range(m)] for i in range(m) for j in range(m)]
    return tuple(
        tuple(block[r][c - t * n] if t * n <= c < (t + 1) * n else F(0) for c in range(rep.dim))
        for t in range(rep.count)
        for r in range(n)
    )


def _member_with_denominators(rng, group):
    """A seeded element of GL_2, SL_2 or GL_3 whose entries have
    denominators among 2, 3 and 6: a dense one on GL, a product of two
    shears and a torus element on SL."""
    m = group.dimension
    if group.factors[0].family == "SL":
        a = F(rng.choice((2, -2, 3, -3)), rng.choice((3, 2, 1)))
        u = linalg.mat([[1, F(rng.randint(-5, 5), rng.choice((2, 3, 6)))], [0, 1]])
        lower = linalg.mat([[1, 0], [F(rng.randint(-5, 5), rng.choice((2, 3, 6))), 1]])
        return linalg.mat_mul(linalg.mat_mul(u, linalg.mat([[a, 0], [0, 1 / a]])), lower)
    while True:
        g = linalg.mat(
            [[F(rng.randint(-5, 5), rng.choice((1, 2, 3, 6))) for _ in range(m)] for _ in range(m)]
        )
        if linalg.det(g):
            return g


def test_integer_action_matches_definition_with_rational_entries():
    rng = random.Random(61)
    reps = [ConjugationTuples(group, count) for group in (GL2, SL2, GL3) for count in (1, 2)]
    reps += [SymPower(group, degree) for group in (GL2, SL2) for degree in (3, 4, 5, 6)]
    reps += [DirectSum((ConjugationTuples(GL2, 2), SymPower(GL2, 5))), DirectSum((SymPower(SL2, 3), MAT_SL2))]
    denominators = set()
    for rep in reps:
        for _ in range(6):
            g = _member_with_denominators(rng, rep.group)
            denominators |= {x.denominator for row in g for x in row}
            matrix = rep.act_matrix(g)
            assert matrix == _fraction_act_matrix(rep, g)
            assert all(type(x) is F for row in matrix for x in row)
            for _ in range(2):
                coords = [F(rng.randint(-3, 3), rng.choice((1, 2, 3, 6))) for _ in range(rep.dim)]
                coords[rng.randrange(rep.dim)] = F(0)
                v = Point(rep, coords)
                moved = rep._act(rep.group._checked_pair(g), v)
                assert moved.coords == linalg.mat_vec(matrix, v.coords)
                assert all(type(x) is F for x in moved.coords)
    assert {2, 3, 6} <= denominators


def _two_product_apply(rep, pair, coords):
    """Reference: the conjugation-tuple move before the conjugation
    operator, each matrix scaled and moved by the two products g @ h @ g^-1;
    a direct sum moves part by part, its other kinds by their action
    matrix's scaled value applied to the rational coordinates."""
    if isinstance(rep, DirectSum):
        out, offset = [], 0
        for p in rep.parts:
            out.extend(_two_product_apply(p, pair, coords[offset : offset + p.dim]))
            offset += p.dim
        return tuple(out)
    if not isinstance(rep, ConjugationTuples):
        return tuple(x for (x,) in (rep._action(*pair) @ linalg._Scaled.of([[x] for x in coords])).fractions())
    g, inverse = pair
    m = rep.m
    out = []
    for t in range(0, len(coords), m * m):
        h = linalg._Scaled.of(tuple(coords[t + i * m : t + (i + 1) * m] for i in range(m)))
        for row in (g @ h @ inverse).fractions():
            out.extend(row)
    return tuple(out)


def test_conjugation_operator_act_matches_two_products():
    # conjugation tuples of counts 1-3 over GL_2-GL_4, SL_3 and GL_2 x SL_2,
    # and direct sums holding one, on seeded sparse and dense rational
    # points: the operator moves each point to the two products' coordinates
    rng = random.Random(151)
    groups = [GL2, GL3, GroupSpec.make(("GL", 4)), GroupSpec.make(("SL", 3)), GroupSpec.make(("GL", 2), ("SL", 2))]
    reps = [ConjugationTuples(group, count) for group in groups for count in (1, 2, 3)]
    reps += [DirectSum((SymPower(GL2, 3), ConjugationTuples(GL2, 2))), DirectSum((ConjugationTuples(GL3, 1), ConjugationTuples(GL3, 2)))]
    checked = 0
    for rep in reps:
        for g in _acting_elements(rng, rep.group):
            pair = rep.group._checked_pair(g)
            for density in (0.2, 0.6, 1.0):
                coords = [F(rng.randint(-5, 5), rng.choice((1, 2, 3, 6))) if rng.random() < density else F(0) for _ in range(rep.dim)]
                v = Point(rep, coords)
                expected = _two_product_apply(rep, pair, v.coords)
                moved = rep._act(pair, v).coords
                assert moved == expected and all(type(x) is F for x in moved)
                checked += 1
    assert checked == 333, checked


def _fraction_evaluate(f, v):
    """The evaluation loop before it skipped zero coordinates."""
    total = F(0)
    for mono, coeff in f.terms:
        val = coeff
        for i, e in mono:
            val *= v.coords[i] ** e
            if val == 0:
                break
        total += val
    return total


def test_evaluate_matches_fraction_loop():
    rng = random.Random(67)
    rep = ConjugationTuples(GL2, 2)
    seen = dict(constant=0, power=0, zero_hit=0, zero_value=0)
    for _ in range(300):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            indices = sorted(rng.sample(range(rep.dim), rng.randint(0, 3)))
            mono = tuple((i, rng.choice((1, 1, 2, 3))) for i in indices)
            terms[mono] = F(rng.randint(-4, 4), rng.choice((1, 2, 3)))
        f = Polynomial.from_dict(rep, terms)
        v = Point(rep, [rng.choice((F(0), F(0), F(1), F(-2), F(1, 2), F(3, 4))) for _ in range(rep.dim)])
        value = f.evaluate(v)
        assert value == _fraction_evaluate(f, v) and type(value) is F
        seen["constant"] += any(not mono for mono, _ in f.terms)
        seen["power"] += any(e > 1 for mono, _ in f.terms for _, e in mono)
        seen["zero_hit"] += any(not v.coords[i] for mono, _ in f.terms for i, _ in mono)
        seen["zero_value"] += value == 0
    assert all(count >= 20 for count in seen.values()), seen


def _pickle_reps():
    reps = [ConjugationTuples(GL2, 2), ConjugationTuples(GroupSpec.make(("GL", 2), ("SL", 2)), 1), SymPower(SL2, 4)]
    return reps + [DirectSum((SymPower(GL2, 3), ConjugationTuples(GL2, 1)))]


def test_point_integer_coordinates_are_kept_out_of_equality_and_pickles():
    # the integer coordinates and their scale are computed once per point,
    # on first use; equality, hash, repr and the pickled bytes are a fresh
    # point's, and an unpickled copy computes them again.  A representation
    # whose act memo, weight classes and torus memo are filled pickles to a
    # fresh one's bytes, and an unpickled copy starts with empty memos
    import pickle

    from destab import SearchConfig, optimize

    rng = random.Random(181)
    reps = _pickle_reps()
    for rep, fresh_rep in zip(reps, _pickle_reps()):
        g = _acting_elements(rng, rep.group)[0]
        v = _random_point(rng, rep)
        moved = rep.act(g, v)
        optimize([moved], SubvarietySpec.zero_locus(), SearchConfig.default(rep.group, exponent_box=1, shear_values=()))
        assert rep._act_memo and rep._torus_memo and rep._weight_classes.characters
        assert pickle.dumps(rep) == pickle.dumps(fresh_rep)
        copy = pickle.loads(pickle.dumps(rep))
        assert copy == rep and not {"_act_memo", "_torus_memo", "_weight_classes"} & set(copy.__dict__)
        assert copy.act(g, Point(copy, v.coords)).coords == moved.coords
    for rep in reps:
        for _ in range(4):
            coords = [F(rng.randint(-5, 5), rng.choice((1, 2, 3, 6))) if rng.random() < 0.7 else F(0) for _ in range(rep.dim)]
            v, fresh = Point(rep, coords), Point(rep, coords)
            assert "_ints" not in v.__dict__
            support(v, rep.group.identity())
            pickled = pickle.dumps(fresh)  # after the call, which fills the representation's act memo
            w, u = v._ints
            assert v._ints is v._ints and "_ints" in v.__dict__
            assert tuple(F(x, u) for x in w) == v.coords and math.gcd(u, *w) == 1
            assert v == fresh and hash(v) == hash(fresh) and repr(v) == repr(fresh)
            assert pickle.dumps(v) == pickled
            copy = pickle.loads(pickle.dumps(v))
            assert copy == v and "_ints" not in copy.__dict__ and copy._ints == v._ints


def test_points_with_integer_coordinates_round_trip_through_workers(monkeypatch):
    # the worker-process corpus path pickles each case; points whose integer
    # coordinates were computed before the cases leave give the records of
    # a serial run
    from destab import corpus

    cases, check = corpus.PROFILES["ruconj"]

    def warmed(seed, size):
        batch = cases(seed, size)
        for _lam, _u, v in batch:
            support(v)
            assert "_ints" in v.__dict__
        return batch

    monkeypatch.setitem(corpus.PROFILES, "ruconj", (warmed, check))
    serial = corpus.run_profile("ruconj", 1, 10)
    assert corpus.run_profile("ruconj", 1, 10, workers=2) == serial
    assert all(record["ok"] for record in serial) and sum(record["holds"] for record in serial) >= 5
    # the cases share representations whose act memos grow as the cases are
    # drawn; the memos stay out of each pickled case, so the largest case
    # does not grow with the number of cases drawn
    import pickle

    def largest(size):
        return max(len(pickle.dumps(case)) for case in cases(1, size))

    assert largest(100) <= largest(20) * 1.2
