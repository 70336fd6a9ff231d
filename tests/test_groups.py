import itertools
import math
import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from destab import (
    Character,
    Cocharacter,
    DimensionError,
    DomainError,
    GroupSpec,
    Norm,
    TorusCocharacter,
    norm_sq,
    pairing,
    weyl_conjugate,
)
from destab import linalg
from destab.groups import fold_permutation_base

GL2 = GroupSpec.make(("GL", 2))
GL3 = GroupSpec.make(("GL", 3))
SL2 = GroupSpec.make(("SL", 2))
PROD = GroupSpec.make(("GL", 2), ("SL", 2))


def test_pairing_examples():
    assert pairing(TorusCocharacter(GL2, (1, -1)), Character((1, -1))) == 2
    assert pairing(TorusCocharacter(GL3, (0, 0, 0)), Character((5, -2, 7))) == 0
    assert pairing(TorusCocharacter(GL3, (2, 0, -2)), Character((1, 1, 1))) == 0


def test_norm_sq_examples():
    assert norm_sq(TorusCocharacter(GL2, (1, -1))) == 2
    assert norm_sq(TorusCocharacter(GL2, (3, -3))) == 18
    base = linalg.mat([[1, 5], [0, 1]])
    assert norm_sq(Cocharacter.based(GL2, base, (1, -1))) == 2


def test_weyl_conjugate_examples():
    lam = TorusCocharacter(GL2, (1, -1))
    assert weyl_conjugate((1, 0), lam).exponents == (-1, 1)
    assert weyl_conjugate((0, 1), lam).exponents == (1, -1)
    lam3 = TorusCocharacter(GL3, (2, 1, 0))
    assert weyl_conjugate((1, 2, 0), lam3).exponents == (0, 2, 1)


def test_weyl_conjugate_rejects_cross_block():
    lam = TorusCocharacter(PROD, (1, 0, 1, -1))
    with pytest.raises(DomainError):
        weyl_conjugate((2, 1, 0, 3), lam)


def test_sl_sum_zero_enforced():
    with pytest.raises(DomainError):
        TorusCocharacter(SL2, (1, 0))
    TorusCocharacter(PROD, (5, 7, 2, -2))


def test_primitive():
    lam = TorusCocharacter(GL2, (4, -6))
    assert not lam.is_primitive
    assert lam.primitive().exponents == (2, -3)
    assert TorusCocharacter(GL2, (0, 0)).primitive().exponents == (0, 0)


def test_membership():
    assert GL2.contains(linalg.mat([[1, 2], [3, 7]]))
    assert not GL2.contains(linalg.mat([[1, 2], [2, 4]]))
    assert not SL2.contains(linalg.mat([[2, 0], [0, 1]]))
    assert SL2.contains(linalg.mat([[2, 0], [0, F(1, 2)]]))
    assert not PROD.contains(linalg.mat([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))


def test_weyl_representatives_land_in_group():
    for g in SL2.weyl_representatives():
        assert SL2.contains(g)
    assert len(GL3.weyl_representatives()) == 6
    assert len(PROD.weyl_representatives()) == 4
    for g in PROD.weyl_representatives():
        assert PROD.contains(g)
    sl3 = GroupSpec.make(("SL", 3))
    reps = sl3.weyl_representatives()
    assert len(reps) == 6
    for g in reps:
        assert sl3.contains(g)
        assert linalg.det(g) == 1


def test_norm_must_be_invariant():
    with pytest.raises(DomainError):
        GroupSpec.make(("GL", 2), gram=[[1, 0], [0, 2]])
    GroupSpec.make(("GL", 2), gram=[[2, 1], [1, 2]])
    # distinct factors may carry distinct scales
    GroupSpec.make(("GL", 1), ("GL", 1), gram=[[1, 0], [0, 2]])


def _fraction_value_sq(norm, d):
    """Reference: the dense Fraction product that the integer sum replaced."""
    v = linalg.vec(d)
    return linalg.dot(v, linalg.mat_vec(norm.gram, v))


def test_norm_value_sq_matches_fraction_reference():
    rng = random.Random(3)
    norms = [
        Norm.standard(2),
        Norm.standard(5),
        GroupSpec.make(("GL", 2), gram=[[2, 1], [1, 2]]).norm,
        GroupSpec.make(("GL", 3), gram=[[3, -1, -1], [-1, 3, -1], [-1, -1, 3]]).norm,
        GroupSpec.make(("GL", 1), ("GL", 1), gram=[[1, 0], [0, 2]]).norm,
    ]
    for norm in norms:
        n = len(norm.gram)
        for d in [(0,) * n] + [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(200)]:
            value = norm.value_sq(d)
            assert type(value) is F
            assert value == _fraction_value_sq(norm, d)
        with pytest.raises(linalg.DimensionMismatch):
            norm.value_sq((1,) * (n + 1))
    assert norms[2].value_sq((1, -1)) == 2 and norms[2].value_sq((1, 1)) == 6
    # the integer Gram matrix is not part of the norm's value or repr
    assert norms[0] == Norm(linalg.identity(2)) and "_int_gram" not in repr(norms[0])


def test_norm_rejects_bad_gram():
    with pytest.raises(DomainError):
        Norm(linalg.mat([[1, 2], [0, 1]]))
    with pytest.raises(DomainError):
        Norm(linalg.mat([[-1, 0], [0, 1]]))
    # a Gram that is not square is refused before any other check
    for rows in ([[1, 0], [0, 1], [0, 0]], [[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [5, 7]]):
        with pytest.raises(DimensionError, match="^Gram matrix must be square$"):
            Norm(linalg.mat(rows))


def _transposition_invariant(gram, group):
    """Reference: the invariance check that moved the Gram by each in-block
    transposition of neighbours and compared the result with the Gram."""
    m = group.dimension
    for block in group.block_slices:
        for i, j in zip(block, list(block)[1:]):
            perm = list(range(m))
            perm[i], perm[j] = perm[j], perm[i]
            if tuple(tuple(gram[perm[a]][perm[b]] for b in range(m)) for a in range(m)) != tuple(map(tuple, gram)):
                return False
    return True


def _block_constant_invariant(gram, group):
    """``Norm.check_invariance`` on a square integer Gram, symmetric or not."""
    try:
        Norm.check_invariance(SimpleNamespace(gram=gram, _int_gram=gram), group)
    except DomainError:
        return False
    return True


def test_norm_invariance_matches_transposition_reference():
    # seeded block-constant Grams are invariant under both checks; each
    # entry broken alone, and with its mirror entry, covers every orbit kind
    # (a block's diagonal, a block's off-diagonal, two blocks), and both
    # checks agree on each.  The symmetric ones are also built as norms,
    # which refuse exactly the non-invariant ones with the same message
    rng = random.Random(31)
    shapes = [(("GL", 1),), (("GL", 3),), (("SL", 2), ("GL", 1)), (("GL", 2), ("SL", 3)), (("GL", 1), ("GL", 2), ("SL", 2))]
    seen = dict(invariant=0, broken=0, refused=0)
    for shape, _ in itertools.product(shapes, range(6)):
        group = GroupSpec.make(*shape)
        m, blocks, k = group.dimension, group._block_indices, len(group.factors)
        between = {(a, b): rng.randint(-2, 2) for a in range(k) for b in range(a + 1, k)}
        diag = [rng.randint(3 * m + 1, 3 * m + 5) for _ in range(k)]  # diagonally dominant: positive definite
        off = [rng.randint(-2, 2) for _ in range(k)]

        def entry(i, j):
            a, b = sorted((blocks[i], blocks[j]))
            return between[a, b] if a != b else diag[a] if i == j else off[a]

        gram = [[entry(i, j) for j in range(m)] for i in range(m)]
        assert _transposition_invariant(gram, group) and _block_constant_invariant(gram, group)
        assert GroupSpec.make(*shape, gram=gram).norm.gram == linalg.mat(gram)
        for i, j, mirror in itertools.product(range(m), range(m), (False, True)):
            broken = [row[:] for row in gram]
            broken[i][j] += 1
            if mirror and i != j:
                broken[j][i] += 1
            invariant = _transposition_invariant(broken, group)
            assert _block_constant_invariant(broken, group) == invariant
            seen["invariant" if invariant else "broken"] += 1
            if mirror or i == j:
                if invariant:
                    GroupSpec.make(*shape, gram=broken)
                else:
                    with pytest.raises(DomainError, match="^Gram matrix is not invariant under block permutations$"):
                        GroupSpec.make(*shape, gram=broken)
                    seen["refused"] += 1
    assert min(seen.values()) >= 30, seen


def test_cocharacter_evaluate():
    lam = Cocharacter.standard(GL2, (1, -1))
    assert lam.evaluate(F(2)) == linalg.mat([[2, 0], [0, F(1, 2)]])
    based = Cocharacter.based(GL2, [[1, 1], [0, 1]], (1, -1))
    g = based.evaluate(F(3))
    assert linalg.det(g) == 1
    assert g != lam.evaluate(F(3))


def test_fold_permutation_base():
    w = linalg.mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    lam = Cocharacter.based(GL3, w, (2, 1, 0))
    folded = fold_permutation_base(lam)
    assert folded.base == GL3.identity()
    for a in (F(2), F(3)):
        assert folded.evaluate(a) == lam.evaluate(a)
    sheared = Cocharacter.based(GL3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]], (2, 1, 0))
    assert fold_permutation_base(sheared) == sheared


exps2 = st.tuples(st.integers(-5, 5), st.integers(-5, 5))


@settings(max_examples=60, deadline=None)
@given(exps2, st.permutations([0, 1]))
def test_norm_weyl_invariance(exps, perm):
    lam = TorusCocharacter(GL2, exps)
    assert norm_sq(weyl_conjugate(tuple(perm), lam)) == norm_sq(lam)


@settings(max_examples=60, deadline=None)
@given(exps2, exps2, st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
def test_pairing_bilinearity(d1, d2, chi):
    l1, l2 = TorusCocharacter(GL2, d1), TorusCocharacter(GL2, d2)
    c = Character(chi)
    assert pairing(l1 + l2, c) == pairing(l1, c) + pairing(l2, c)
    assert pairing(l1, c + c) == 2 * pairing(l1, c)


def test_cocharacter_base_checked_and_inverted_by_one_reduction():
    gl2sl2 = GroupSpec.make(("GL", 2), ("SL", 2))
    base = linalg.mat([[2, 1, 0, 0], [F(1, 2), 3, 0, 0], [0, 0, 2, F(3, 2)], [0, 0, 2, 2]])
    lam = Cocharacter.based(gl2sl2, base, (1, 0, 1, -1))
    assert lam.base_inverse == linalg.inverse(base)
    for bad in (
        [[2, 1, 0, 0], [1, 3, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]],  # SL block of determinant 3
        [[1, 2, 0, 0], [2, 4, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],  # singular GL block
        [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],  # crosses the blocks
    ):
        with pytest.raises(DomainError, match="^cocharacter base is not in the group$"):
            Cocharacter.based(gl2sl2, bad, (1, 0, 1, -1))
        assert not gl2sl2.contains(linalg.mat(bad))


def test_frame_tables_match_their_definition():
    # the cached tables hold what building them again gives, for every
    # sequence of shear values asked for
    for factors in ((("GL", 1),), (("SL", 3),), (("GL", 2), ("SL", 2)), (("GL", 1), ("GL", 1), ("GL", 1))):
        group = GroupSpec.make(*factors)
        m = group.dimension
        for values in ((-2, -1, 1, 2), (1,), (2, 0, "-1/2"), ()):
            expected = []
            for block in group.block_slices:
                for i, j in itertools.product(block, block):
                    for c in values if i != j else ():
                        if F(c):
                            expected.append(linalg.mat([[F(c) if (a, b) == (i, j) else int(a == b) for b in range(m)] for a in range(m)]))
            assert group.shears(values) == tuple(expected)
            assert all(group.contains(g) for g in expected)
        weyl = group.weyl_representatives()
        assert len(set(weyl)) == len(weyl) == math.prod(math.factorial(rank) for _, rank in factors)
        assert all(group.contains(w) and {abs(x) for row in w for x in row} <= {0, 1} for w in weyl)


def test_group_shape_is_kept_out_of_equality_and_pickles():
    # dimension, block slices and block indices are computed once per
    # instance and the frame tables once per group shape; equality, hash,
    # repr and the pickled bytes are a fresh group's
    import pickle

    for factors in ((("GL", 3),), (("GL", 2), ("SL", 2)), (("GL", 1), ("SL", 3), ("GL", 2))):
        group, fresh = GroupSpec.make(*factors), GroupSpec.make(*factors)
        pickled = pickle.dumps(fresh)
        m = sum(rank for _, rank in factors)
        starts = [sum(rank for _, rank in factors[:b]) for b in range(len(factors))]
        slices = tuple(range(start, start + rank) for start, (_, rank) in zip(starts, factors))
        assert group.dimension == m and group.block_slices == slices
        assert group.block_slices is group.block_slices
        assert [group.block_of(i) for i in range(m)] == [b for b, r in enumerate(slices) for _ in r]
        for index in (-1, m, m + 3):
            with pytest.raises(DimensionError):
                group.block_of(index)
        weyl, shears = group.weyl_representatives(), group.shears([1, -1])
        assert group.weyl_representatives() is weyl
        assert group.shears((1, -1)) is shears and group.shears([1, -1]) == group.shears((1, -1))
        assert group.shears() is group.shears((-2, -1, 1, 2)) and group.shears((1, -1)) != group.shears((-1, 1))
        with pytest.raises(TypeError):
            group.shears((1.0, -1))  # keyed on exact values: a float is still refused
        assert group == fresh and hash(group) == hash(fresh) and repr(group) == repr(fresh)
        assert pickle.dumps(group) == pickled
        copy = pickle.loads(pickled)
        assert copy == group and copy.block_slices == slices and copy.block_of(m - 1) == len(slices) - 1
        assert "_weyl_representatives" not in copy.__dict__ and "_shear_tables" not in copy.__dict__
        assert copy.weyl_representatives() == weyl and copy.shears((1, -1)) == shears


def test_frame_tables_are_shared_per_group_shape():
    # two instances of one shape and a parsed document's group hold the
    # same table objects, equal to a fresh build; another shape or another
    # sequence of values gets its own
    from destab import documents, groups

    first, second = GroupSpec.make(("GL", 3)), GroupSpec.make(("GL", 3))
    parsed = documents.parse_group({"factors": [{"family": "GL", "rank": 3}], "gram": "identity"})
    weighted = GroupSpec.make(("GL", 3), gram=[[2, 1, 1], [1, 2, 1], [1, 1, 2]])  # another norm, one shape
    assert first is not second and first == second == parsed != weighted
    values = (-2, -1, 1, 2)
    fresh_weyl = groups._weyl_table.__wrapped__(first.factors)
    fresh_shears = groups._shear_table_of.__wrapped__(first.factors, tuple(map(F, values)))
    for group in (second, parsed, weighted):
        assert group.weyl_representatives() is first.weyl_representatives()
        assert group._weyl_pairs is first._weyl_pairs
        assert group._shear_table(values) is first._shear_table([F(x) for x in values])
        assert group.shears() is first.shears(values)
    assert (first.weyl_representatives(), first._weyl_pairs) == fresh_weyl
    assert first._shear_table(values) == fresh_shears
    assert first._shear_table((1, -1)) is not first._shear_table((-1, 1))
    gl2_sl2 = GroupSpec.make(("GL", 2), ("SL", 2))
    assert gl2_sl2._shear_table(values) == groups._shear_table_of.__wrapped__(gl2_sl2.factors, tuple(map(F, values)))
    assert len(gl2_sl2.weyl_representatives()) == 4 and gl2_sl2._shear_table(values) != first._shear_table(values)
    for group in (first, parsed):
        assert not {"_weyl_representatives", "_weyl_pairs", "_shear_tables"} & set(vars(group))
