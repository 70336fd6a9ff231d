import random
from fractions import Fraction as F

import pytest

from destab import (
    Cocharacter,
    ConjugationTuples,
    DimensionError,
    DomainError,
    GroupSpec,
    MembershipClass,
    ParabolicDescriptor,
    PreconditionError,
    SymPower,
    UnsupportedRepresentationError,
    c_lambda,
    classify,
    combine,
    composition_threshold,
    find_ru_conjugator,
    lie_c_lambda,
    lie_classify,
    limit,
)
from destab import linalg, parabolic
from destab.corpus import (
    random_cocharacter,
    random_frame,
    random_parabolic_element,
    random_point_with_limit,
    random_radical_element,
    subgroup_corpus,
)
from destab.instability import _entry_pattern, admissible_exponents

GL2 = GroupSpec.make(("GL", 2))
GL3 = GroupSpec.make(("GL", 3))
GL4 = GroupSpec.make(("GL", 4))
SL2 = GroupSpec.make(("SL", 2))
LAM2 = Cocharacter.standard(GL2, (1, -1))
MAT2 = ConjugationTuples(GL2, 1)


def test_classify_examples():
    assert classify([[2, 3], [0, 5]], LAM2) is MembershipClass.IN_P_NOT_LEVI_NOT_RU
    assert classify([[2, 0], [0, 5]], LAM2) is MembershipClass.IN_LEVI
    assert classify([[1, 0], [1, 1]], LAM2) is MembershipClass.NOT_IN_P
    assert classify([[1, 5], [0, 1]], LAM2) is MembershipClass.IN_RU
    # the identity is the overlap of the radical and the Levi
    assert classify([[1, 0], [0, 1]], LAM2) is MembershipClass.IN_RU


def test_classify_with_base():
    base = linalg.mat([[1, 0], [1, 1]])
    lam = Cocharacter.based(GL2, base, (1, -1))
    # the radical of the based parabolic is base . (upper unipotent) . base^{-1}
    u = linalg.mat_mul(linalg.mat_mul(base, [[1, 1], [0, 1]]), linalg.inverse(base))
    assert u == linalg.mat([[0, 1], [-1, 2]])
    assert classify(u, lam) is MembershipClass.IN_RU
    assert classify([[1, 5], [0, 1]], lam) is MembershipClass.NOT_IN_P


def test_c_lambda_examples():
    sl_lam = Cocharacter.standard(SL2, (1, -1))
    assert c_lambda([[2, F(-3, 2)], [0, F(1, 2)]], sl_lam) == linalg.mat(
        [[2, 0], [0, F(1, 2)]]
    )
    levi = linalg.mat([[2, 0], [0, 5]])
    assert c_lambda(levi, LAM2) == levi
    assert c_lambda(([[1, 1], [0, 1]],), LAM2) == (linalg.identity(2),)


def test_c_lambda_names_offending_component():
    good = [[1, 1], [0, 1]]
    bad = [[1, 0], [1, 1]]
    with pytest.raises(PreconditionError, match="component 1"):
        c_lambda((good, bad), LAM2)


def test_c_lambda_is_homomorphism():
    rng = random.Random(11)
    for _ in range(25):
        lam = random_cocharacter(rng, GL3)
        g = random_parabolic_element(rng, lam)
        h = random_parabolic_element(rng, lam)
        assert c_lambda(linalg.mat_mul(g, h), lam) == linalg.mat_mul(
            c_lambda(g, lam), c_lambda(h, lam)
        )


def test_lie_classify_examples():
    assert lie_classify([[0, 1], [0, 0]], LAM2) is MembershipClass.IN_RU
    assert lie_classify([[1, 0], [0, -1]], LAM2) is MembershipClass.IN_LEVI
    assert lie_classify([[0, 0], [1, 0]], LAM2) is MembershipClass.NOT_IN_P
    assert lie_c_lambda([[1, 1], [0, -1]], LAM2) == linalg.mat([[1, 0], [0, -1]])


def test_lie_c_lambda_rejects_element_outside_parabolic_algebra():
    with pytest.raises(PreconditionError, match="element is not in the parabolic's Lie algebra"):
        lie_c_lambda([[0, 0], [1, 0]], LAM2)
    with pytest.raises(PreconditionError, match="component 1 is not in the parabolic's Lie algebra"):
        lie_c_lambda(([[0, 1], [0, 0]], [[0, 0], [1, 0]]), LAM2)


def test_find_ru_conjugator_paper_instance():
    rep = ConjugationTuples(SL2, 1)
    lam = Cocharacter.standard(SL2, (1, -1))
    v = rep.point([[[2, F(-3, 2)], [0, F(1, 2)]]])
    v_prime = rep.point([[[2, 0], [0, F(1, 2)]]])
    u = find_ru_conjugator(v, v_prime, lam)
    assert u == linalg.mat([[1, -1], [0, 1]])


def test_find_ru_conjugator_identity_case():
    rep = ConjugationTuples(GL2, 1)
    v = rep.point([[[2, 0], [0, 5]]])
    u = find_ru_conjugator(v, v, LAM2)
    assert u == linalg.identity(2)
    assert classify(u, LAM2) is MembershipClass.IN_RU


def test_find_ru_conjugator_none():
    rep = ConjugationTuples(GL2, 1)
    v = rep.point([[[1, 1], [0, 1]]])
    v_prime = rep.point([[[1, 0], [0, 1]]])
    assert find_ru_conjugator(v, v_prime, LAM2) is None


def test_find_ru_conjugator_rejects_sym_power():
    sym = SymPower(GL2, 2)
    v = sym.monomial(0)
    with pytest.raises(UnsupportedRepresentationError):
        find_ru_conjugator(v, v, LAM2)


def test_find_ru_conjugator_rejects_points_of_two_representations():
    # the points' own representation is the one solved in; a second point
    # of another one is refused
    v = ConjugationTuples(GL2, 1).point([[[2, 0], [0, 5]]])
    for other in (ConjugationTuples(GL2, 2).point([[[2, 0], [0, 5]], [[1, 0], [0, 1]]]), SymPower(GL2, 2).monomial(0)):
        with pytest.raises(DimensionError, match="^points must belong to the given representation$"):
            find_ru_conjugator(v, other, LAM2)


def test_find_ru_conjugator_product_group_stays_in_factor():
    prod = GroupSpec.make(("GL", 2), ("GL", 2))
    rep = ConjugationTuples(prod, 1)
    lam = Cocharacter.standard(prod, (1, -1, 0, 0))
    h = [[2, 1, 0, 0], [0, 3, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
    v = rep.point([h])
    v_prime = rep.point([c_lambda(h, lam)])
    u = find_ru_conjugator(v, v_prime, lam)
    assert u is not None
    # the second factor of the radical is trivial for a first-factor cocharacter
    for i in range(2, 4):
        for j in range(2, 4):
            assert u[i][j] == (1 if i == j else 0)


def test_ru_conjugacy_lemma_both_directions():
    rng = random.Random(23)
    for case in range(40):
        rep = MAT2 if case % 2 else SymPower(GL2, 3)
        lam = random_cocharacter(rng, rep.group)
        u = random_radical_element(rng, lam)
        if case % 3 == 0:
            fixed = random_point_with_limit(rng, rep, lam, strict_ok=False)
            v = rep.act(linalg.inverse(u), fixed)
        else:
            v = random_point_with_limit(rng, rep, lam)
        lim = limit(v, lam)
        lhs = lim is not None and lim == rep.act(u, v)
        moved = lam.conjugated_by(linalg.inverse(u))
        from destab import grade

        rhs = set(grade(v, moved).components) <= {0}
        assert lhs == rhs


def test_p_minus_times_radical_recovers_limit():
    # an element of the opposite parabolic moving u.v to a fixed vector
    # certifies that the limit is the radical translate
    from destab import grade

    rng = random.Random(5)
    rep = MAT2
    for _ in range(20):
        lam = random_cocharacter(rng, GL2)
        u = random_radical_element(rng, lam)
        w = random_point_with_limit(rng, rep, lam, strict_ok=False)  # lambda-fixed
        v = rep.act(linalg.inverse(u), w)
        levi = c_lambda(random_parabolic_element(rng, lam), lam)
        x = levi  # Levi elements sit in both parabolics
        moved = rep.act(x, rep.act(u, v))
        assert set(grade(moved, lam).components) <= {0}
        assert limit(v, lam) == rep.act(u, v)


def test_opposite_radical_instances_recover_limit():
    # an opposite-radical element y fixes the block matrix w exactly when
    # the off-block row is a left eigenvector of w's big block; build such
    # pairs and check that y.(u.v) being fixed forces limit(v) = u.v
    from destab import grade

    rng = random.Random(19)
    rep = ConjugationTuples(GL3, 1)
    lam = Cocharacter.standard(GL3, (1, 1, -2))
    checked = 0
    for _ in range(40):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        c, p, q = rng.randint(1, 3), rng.randint(-2, 2), rng.randint(-2, 2)
        if (a, b) == (0, 0):
            continue
        big = [[c + b * p, b * q], [-a * p, c - a * q]]
        w = rep.point([[[big[0][0], big[0][1], 0], [big[1][0], big[1][1], 0], [0, 0, c]]])
        y = linalg.mat([[1, 0, 0], [0, 1, 0], [a, b, 1]])
        assert classify(y, lam) is MembershipClass.NOT_IN_P or y == linalg.identity(3)
        u = random_radical_element(rng, lam)
        v = rep.act(linalg.inverse(u), w)
        moved = rep.act(y, rep.act(u, v))
        assert set(grade(moved, lam).components) <= {0}  # hypothesis by construction
        lim = limit(v, lam)
        assert lim is not None and lim == rep.act(u, v)
        checked += 1
    assert checked >= 30


def test_parabolic_descriptor_equality_same_ordering():
    a = ParabolicDescriptor.from_cocharacter(Cocharacter.standard(GL3, (2, 2, 0)))
    b = ParabolicDescriptor.from_cocharacter(Cocharacter.standard(GL3, (5, 5, 1)))
    c = ParabolicDescriptor.from_cocharacter(Cocharacter.standard(GL3, (5, 1, 1)))
    assert a == b
    assert a != c
    assert a.blocks == ((2, 1),)


def _flag_stabilization_contains(descr, g):
    """Reference: membership as ``ParabolicDescriptor.contains`` tested it
    before it compared conjugated flags, each flag row moved by g and
    tested against its space."""
    g = linalg.mat(g)
    descr.group.require_member(g)
    for chain in descr.flags:
        for space in chain:
            for row in space:
                if not linalg.in_row_space(linalg.mat_vec(g, row), space):
                    return False
    return True


def test_parabolic_descriptor_membership_matches_classify():
    # on GL_3 and GL_2 x SL_2: seeded elements of P, frames and radical
    # elements of another parabolic, and fixed elements; membership agrees
    # with classify and with the flag-stabilization reference, and a
    # non-member of the group is refused by both with the same error
    rng = random.Random(3)
    gl2sl2 = GroupSpec.make(("GL", 2), ("SL", 2))
    fixed = {
        GL3: [linalg.mat([[1, 0, 0], [1, 1, 0], [1, 1, 1]]), linalg.mat([[0, 0, 1], [0, 1, 0], [1, 0, 0]])],
        gl2sl2: [linalg.mat([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])],
    }
    outside = {  # singular, and determinant 2 on the SL_2 block
        GL3: linalg.mat([[1, 2, 3], [2, 4, 6], [0, 0, 1]]),
        gl2sl2: linalg.mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]]),
    }
    seen = {True: 0, False: 0}
    for group in (GL3, gl2sl2):
        for _ in range(20):
            lam = random_cocharacter(rng, group)
            descr = ParabolicDescriptor.from_cocharacter(lam)
            other = random_cocharacter(rng, group)
            candidates = [
                random_parabolic_element(rng, lam),
                random_frame(rng, group),
                random_radical_element(rng, other),
                *fixed[group],
            ]
            for g in candidates:
                inside = descr.contains(g)
                assert inside == (classify(g, lam) is not MembershipClass.NOT_IN_P)
                assert inside == _flag_stabilization_contains(descr, g)
                seen[inside] += 1
            for check in (descr.contains, lambda g: _flag_stabilization_contains(descr, g)):
                with pytest.raises(DomainError, match="^element is not in the group$"):
                    check(outside[group])
    assert min(seen.values()) >= 30, seen


def test_parabolic_descriptor_product_blocks_independent():
    prod = GroupSpec.make(("GL", 2), ("GL", 2))
    a = ParabolicDescriptor.from_cocharacter(Cocharacter.standard(prod, (1, 0, 1, 0)))
    b = ParabolicDescriptor.from_cocharacter(Cocharacter.standard(prod, (2, 0, 1, 0)))
    assert a == b


def test_whole_group_descriptor():
    d = ParabolicDescriptor.from_cocharacter(Cocharacter.standard(GL3, (0, 0, 0)))
    assert d.is_whole_group
    assert d.blocks == ((3,),)


def test_levi_intersection_is_levi_of_nested_parabolic():
    # Parabolic descriptors with equal partitions denote one subgroup;
    # conjugating a Levi by the radical yields another Levi of it, and the
    # intersection with the parabolic is that Levi again.
    rng = random.Random(9)
    for group, d_exp, e_exp in [
        (GL3, (2, 2, 0), (7, 7, 1)),
        (GL3, (3, 1, 0), (4, 2, 1)),
        (GL4, (1, 1, 0, 0), (5, 5, 2, 2)),
        (GL4, (2, 1, 1, 0), (6, 3, 3, 1)),
    ]:
        p = Cocharacter.standard(group, d_exp)
        q = Cocharacter.standard(group, e_exp)
        assert ParabolicDescriptor.from_cocharacter(p) == ParabolicDescriptor.from_cocharacter(q)
        u = random_radical_element(rng, q)
        mu = q.conjugated_by(u)
        # L_mu is an R-Levi of P: its defining cocharacter also defines P
        assert ParabolicDescriptor.from_cocharacter(mu) == ParabolicDescriptor.from_cocharacter(p)
        # membership agreement on samples: x in P cap L_mu iff c_mu fixes it
        for _ in range(5):
            x = random_parabolic_element(rng, mu)
            levi_part = c_lambda(x, mu)
            assert classify(levi_part, mu) in (
                MembershipClass.IN_LEVI,
                MembershipClass.IN_RU,
            )
            assert classify(levi_part, p) is not MembershipClass.NOT_IN_P


def test_find_ru_conjugator_completeness_on_solvable_instances():
    # whenever some radical element maps v to v', the solver must find one
    rng = random.Random(31)
    for case in range(30):
        group = GL3 if case % 2 else GL2
        rep = ConjugationTuples(group, rng.randint(1, 2))
        lam = random_cocharacter(rng, group)
        u0 = random_radical_element(rng, lam)
        mats = [
            [[rng.randint(-2, 2) for _ in range(group.dimension)] for _ in range(group.dimension)]
            for _ in range(rep.count)
        ]
        v = rep.point(mats)
        v_prime = rep.act(u0, v)
        u = find_ru_conjugator(v, v_prime, lam)
        assert u is not None
        assert rep.act(u, v) == v_prime
        assert classify(u, lam) is MembershipClass.IN_RU


def _entrywise_conjugator_system(hs, hs_prime, free):
    """Reference: (u h - h' u)_ij expanded entry by entry over u = 1 + sum x_ab E_ab."""
    index = {pos: k for k, pos in enumerate(free)}

    def u_entry(i, j):
        """Entry of u as (constant, coefficient row over free variables)."""
        if (i, j) in index:
            row = [F(0)] * len(free)
            row[index[(i, j)]] = F(1)
            return F(0), row
        return (F(1) if i == j else F(0)), [F(0)] * len(free)

    rows = []
    rhs = []
    for h, hp in zip(hs, hs_prime):
        m = len(h)
        for i in range(m):
            for j in range(m):
                const = F(0)
                coeffs = [F(0)] * len(free)
                for k in range(m):
                    c0, cv = u_entry(i, k)
                    if h[k][j] != 0:
                        const += c0 * h[k][j]
                        if any(cv):
                            for t, x in enumerate(cv):
                                coeffs[t] += x * h[k][j]
                    c0, cv = u_entry(k, j)
                    if hp[i][k] != 0:
                        const -= hp[i][k] * c0
                        if any(cv):
                            for t, x in enumerate(cv):
                                coeffs[t] -= hp[i][k] * x
                if any(coeffs) or const != 0:
                    rows.append(tuple(coeffs))
                    rhs.append(-const)
    return tuple(rows), tuple(rhs)


def test_conjugator_system_matches_entrywise_reference():
    # corpus tuples moved into a random frame, against their limits along a
    # random admissible cocharacter of that frame (or, when no ordering is
    # admissible, against a random radical conjugate)
    rng = random.Random(7)
    with_limit = 0
    for h in subgroup_corpus(1, 100):
        group = h.group
        rep = h.tuple_rep()
        frame = random_frame(rng, group)
        v = rep.act(frame, h.tuple_point())
        orderings = admissible_exponents(group, 4, _entry_pattern(h.generators))
        if orderings:
            lam = Cocharacter.based(group, frame, rng.choice(orderings))
            v_prime = limit(v, lam)
            with_limit += 1
        else:
            lam = random_cocharacter(rng, group)
            v_prime = rep.act(random_radical_element(rng, lam), v)
        hs = [lam._to_frame(g).fractions() for g in rep.matrices(v)]
        hs_prime = [lam._to_frame(g).fractions() for g in rep.matrices(v_prime)]
        free = parabolic._radical_positions(lam)
        rows, rhs = parabolic._conjugator_system(hs, hs_prime, free)
        dense = []
        for terms in rows:  # each row is given by its nonzero terms
            coeffs = [F(0)] * len(free)
            for k, c in terms:
                coeffs[k] = c
            dense.append(tuple(coeffs))
        assert (tuple(dense), tuple(rhs)) == _entrywise_conjugator_system(hs, hs_prime, free)
        assert all(isinstance(c, F) and c != 0 for terms in rows for _, c in terms)
        assert all(isinstance(x, F) for x in rhs)
    assert with_limit >= 40


def test_torus_sits_inside_every_standard_levi():
    rng = random.Random(13)
    for _ in range(15):
        lam = Cocharacter.standard(GL3, tuple(rng.randint(-3, 3) for _ in range(3)))
        t = linalg.mat([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
        assert classify(t, lam) in (MembershipClass.IN_LEVI, MembershipClass.IN_RU)
        # the radical and the Levi overlap only at the identity
        u = random_radical_element(rng, lam)
        if u != linalg.identity(3):
            assert classify(u, lam) is MembershipClass.IN_RU
            assert classify(u, lam) is not MembershipClass.IN_LEVI


def test_composition_threshold_and_combined_limits():
    rep = ConjugationTuples(GL3, 1)
    lam = Cocharacter.standard(GL3, (1, 0, -1))
    mu = Cocharacter.standard(GL3, (0, 2, -1))
    t0 = composition_threshold(rep, lam, mu)
    assert t0 >= 1
    from destab.groups import pairing_vec

    for t in (t0, t0 + 3):
        comb = combine(lam, mu, t)
        for chi in rep.weights:
            pl = pairing_vec(lam.torus.exponents, chi)
            pc = pairing_vec(comb.torus.exponents, chi)
            if pl != 0:
                assert pc * pl > 0
