import random
import time
from fractions import Fraction as F
from functools import partial
import math
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from destab import GroupSpec, linalg
from destab.errors import DomainError


def _solve(a, b):
    """One solution of a x = b through the integer solver, or None."""
    solution = linalg._solve_terms([linalg._terms(row) for row in a], linalg.vec(b), len(a[0]) if a else 0)
    return None if solution is None else tuple(F(z, solution[1]) for z in solution[0])


def _pivots(a):
    """The pivot columns of the integer reduction of a."""
    return tuple(linalg._reduce([linalg._integer_row(row) for row in a])[0])


def test_rref_and_rank():
    a = linalg.mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert _pivots(a) == (0, 1)
    assert linalg.rank(a) == 2


def test_solve_affine_consistent():
    a = linalg.mat([[1, 1], [1, -1]])
    x = _solve(a, linalg.vec([3, 1]))
    assert x == (F(2), F(1))


def test_solve_affine_inconsistent():
    a = linalg.mat([[1, 1], [2, 2]])
    assert _solve(a, linalg.vec([1, 3])) is None


def test_solve_affine_underdetermined_picks_particular():
    a = linalg.mat([[1, 1, 0]])
    x = _solve(a, linalg.vec([5]))
    assert x is not None
    assert sum(c * v for c, v in zip(a[0], x)) == 5


def test_nullspace():
    a = linalg.mat([[1, 2, 3]])
    basis = linalg.nullspace(a)
    assert len(basis) == 2
    for v in basis:
        assert linalg.dot(a[0], v) == 0


def test_nullspace_of_empty_system():
    assert len(linalg.nullspace((), ncols=4)) == 4


def test_det_inverse_roundtrip():
    a = linalg.mat([[2, 1], [7, 4]])
    assert linalg.det(a) == 1
    assert linalg.mat_mul(a, linalg.inverse(a)) == linalg.identity(2)


def _dense_mat_mul(a, b):
    """Reference: the dense product that the zero-skipping one replaced."""
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    if a and len(a[0]) != k:
        raise linalg.DimensionMismatch(len(a[0]), k)
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def test_mat_mul_matches_dense_reference():
    rng = random.Random(5)

    def draw(n, k, density):
        return linalg.mat(
            [[F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density else 0 for _ in range(k)] for _ in range(n)]
        )

    shapes = [(rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)) for _ in range(150)]
    pairs = [(draw(n, k, rng.choice((0.2, 0.5, 1.0))), draw(k, m, rng.choice((0.2, 0.5, 1.0)))) for n, k, m in shapes]
    a = draw(3, 4, 1.0)
    pairs += [
        (linalg.zeros(3, 4), draw(4, 2, 1.0)),  # zero rows
        (a, linalg.mat([[1, 0], [2, 0], [3, 0], [4, 0]])),  # a zero column
        (draw(3, 2, 0.5), linalg.zeros(2, 5)),
        (a, ((),) * 4),  # no columns
        (((),) * 3, ()),  # no inner dimension
        ((), draw(2, 2, 1.0)),  # no rows
        ((), ()),
    ]
    for a, b in pairs:
        assert linalg.mat_mul(a, b) == _dense_mat_mul(a, b)
    for a, b in [(draw(2, 3, 1.0), draw(2, 3, 1.0)), (draw(1, 2, 1.0), ()), (((),), draw(1, 1, 1.0))]:
        with pytest.raises(linalg.DimensionMismatch):
            _dense_mat_mul(a, b)
        with pytest.raises(linalg.DimensionMismatch):
            linalg.mat_mul(a, b)


def test_integer_product_matches_dense_reference():
    # mixed denominators, zero rows and columns, and entries above 2^64
    rng = random.Random(25)
    mats = _kernel_matrices(25, 120)
    pairs = []
    for a in mats:
        b = rng.choice([c for c in mats if len(c) == len(a[0])] or [linalg.identity(len(a[0]))])
        pairs.append((a, b))
    pairs += [(linalg.zeros(2, 3), linalg.identity(3)), (linalg.identity(2), linalg.zeros(2, 4)), ((), ())]
    for a, b in pairs:
        sa, sb = linalg._Scaled.of(a), linalg._Scaled.of(b)
        assert sa.scale == lcm(1, *[x.denominator for row in a for x in row])
        assert all(type(x) is int for row in sa.rows + sb.rows for x in row)
        assert sa.fractions() == a and sb.fractions() == b
        product = (sa @ sb).fractions()
        assert product == _dense_mat_mul(a, b) == linalg.mat_mul(a, b)
        assert all(type(x) is F for row in linalg.mat_mul(a, b) for x in row)
    entries = [x for a, b in pairs for row in a + b for x in row]
    assert any(abs(x.numerator) > 2**64 for x in entries)
    with pytest.raises(linalg.DimensionMismatch):
        linalg._Scaled(((1, 2),), 1) @ linalg._Scaled(((1, 2),), 1)


def _fraction_mat_vec(a, v):
    """Reference: the Fraction loop for a matrix times a vector."""
    return tuple(sum((x * y for x, y in zip(row, v)), F(0)) for row in a)


def test_scaled_value_matches_fraction_references():
    # denominators 2, 3 and 6, zero rows and columns, entries above 2^64
    rng = random.Random(26)

    def entry():
        if rng.random() < 0.3:
            return F(0)
        if rng.random() < 0.2:
            return F(rng.choice((-1, 1)) * rng.randint(2**64, 2**70), rng.choice((1, 2, 3, 6)))
        return F(rng.randint(-9, 9), rng.choice((1, 2, 3, 6)))

    def draw(n, m):
        a = [[entry() for _ in range(m)] for _ in range(n)]
        if rng.random() < 0.3:
            a[rng.randrange(n)] = [F(0)] * m
        if rng.random() < 0.3:
            j = rng.randrange(m)
            for row in a:
                row[j] = F(0)
        return linalg.mat(a)

    seen = dict(scales=set(), unequal=0, huge=0)
    for _ in range(200):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, b = draw(n, k), draw(k, m)
        sa, sb = linalg._Scaled.of(a), linalg._Scaled.of(b)
        # canonical: the lcm of the denominators, and no factor shared by
        # the scale and every entry
        assert sa.scale == lcm(*[x.denominator for row in a for x in row])
        assert gcd(sa.scale, *[x for row in sa.rows for x in row]) == 1
        assert sa.fractions() == a and linalg._Scaled.of(sa.fractions()) == sa
        product = sa @ sb
        assert product.scale == sa.scale * sb.scale
        assert product.fractions() == _dense_mat_mul(a, b)
        # equal matrices at different scales: equal values with equal hashes
        canonical = linalg._Scaled.of(product.fractions())
        assert canonical == product and hash(canonical) == hash(product)
        seen["scales"].add(canonical.scale == product.scale)
        doubled = linalg._Scaled(tuple(tuple(3 * x for x in row) for row in sa.rows), 3 * sa.scale)
        assert doubled == sa and hash(doubled) == hash(sa) and not doubled != sa
        other = draw(n, k)
        assert (linalg._Scaled.of(other) == sa) == (other == a)
        seen["unequal"] += other != a
        v = tuple(entry() for _ in range(k))
        moved = tuple(x for (x,) in (sa @ linalg._Scaled.of([[x] for x in v])).fractions())
        assert moved == _fraction_mat_vec(a, v) == linalg.mat_vec(a, v)
        assert all(type(x) is F for x in moved)
        seen["huge"] += any(abs(x.numerator) > 2**64 for row in a for x in row)
    assert seen["scales"] == {True, False} and seen["unequal"] > 100 and seen["huge"] > 50


def test_singular_inverse_raises():
    with pytest.raises(ValueError):
        linalg.inverse(linalg.mat([[1, 2], [2, 4]]))


def test_primitive_direction():
    assert linalg.primitive_direction([F(2, 3), F(-4, 3)]) == (1, -2)
    assert linalg.primitive_direction([F(6), F(9)]) == (2, 3)
    with pytest.raises(ValueError):
        linalg.primitive_direction([F(0), F(0)])


def test_in_row_space():
    basis = linalg.row_space(linalg.mat([[1, 0, 1], [0, 1, 1]]))
    assert linalg.in_row_space(linalg.vec([2, 3, 5]), basis)
    assert not linalg.in_row_space(linalg.vec([0, 0, 1]), basis)


def test_positive_definite():
    assert linalg.is_positive_definite(linalg.identity(3))
    assert not linalg.is_positive_definite(linalg.mat([[1, 2], [2, 1]]))


def _minors_positive_definite(a):
    """Reference: Sylvester's criterion with one determinant per leading
    principal minor, which the single elimination replaced."""
    return all(linalg.det(tuple(row[: k + 1] for row in a[: k + 1])) > 0 for k in range(len(a)))


def test_positive_definite_matches_leading_minor_reference():
    # seeded Grams B^T B + D: definite when B has full column rank or D > 0,
    # singular when B is short and D = 0, indefinite when D has a negative
    # entry large enough; rational entries too
    rng = random.Random(12)
    outcomes = {True: 0, False: 0}
    kinds = set()
    for _ in range(150):
        n = rng.randint(1, 6)
        b = linalg.mat([[F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(n)] for _ in range(rng.randint(1, n + 1))])
        shift = rng.choice((0, 0, 1, -1, -4, F(1, 2)))
        d = [[shift if i == j and (shift >= 0 or rng.random() < 0.5) else 0 for j in range(n)] for i in range(n)]
        a = linalg.mat_add(linalg.mat_mul(linalg.transpose(b), b), linalg.mat(d))
        definite = linalg.is_positive_definite(a)
        assert definite == _minors_positive_definite(a)
        outcomes[definite] += 1
        kinds.add((definite, linalg.det(a) == 0, linalg.det(a) < 0))
    assert min(outcomes.values()) >= 30, outcomes
    assert {(False, True, False), (False, False, True), (True, False, False)} <= kinds, kinds


def test_positive_definite_at_rank_200_within_budget():
    # the Gram checks of a rank-200 group document: the standard Gram, a
    # dense invariant one, 3 I + J, and that one with its last diagonal
    # entry set to -1, whose last leading minor alone is negative
    n = 200
    dense = tuple(tuple(F(3 if i == j else 1) for j in range(n)) for i in range(n))
    last = dense[:-1] + (dense[-1][:-1] + (F(-1),),)
    start = time.monotonic()
    assert linalg.is_positive_definite(linalg.identity(n))
    assert linalg.is_positive_definite(dense)
    assert not linalg.is_positive_definite(last)
    assert time.monotonic() - start < 3.0


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(small_fracs, min_size=3, max_size=3), min_size=2, max_size=4))
def test_nullspace_vectors_annihilate(rows):
    a = linalg.mat(rows)
    for v in linalg.nullspace(a):
        assert all(linalg.dot(row, v) == 0 for row in a)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.lists(small_fracs, min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(small_fracs, min_size=3, max_size=3),
)
def test_solve_affine_solves(rows, rhs):
    a = linalg.mat(rows)
    b = linalg.vec(rhs)
    x = _solve(a, b)
    if x is not None:
        assert linalg.mat_vec(a, x) == b


def _dense_rref_inplace(rows):
    """Reference: the dense Gauss-Jordan loop that the sparse pivot rows
    replaced."""
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = linalg.ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _dense_det(a):
    """Reference: the dense forward elimination that the echelon basis
    replaced."""
    n = len(a)
    rows = [list(r) for r in a]
    sign = linalg.ONE
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return linalg.ZERO
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[c][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    prod = sign
    for i in range(n):
        prod *= rows[i][i]
    return prod


def _dense_in_row_space(v, basis_rref):
    """Reference: the dense membership loop that the echelon reduction
    replaced."""
    w = list(v)
    for row in basis_rref:
        c = next(i for i, x in enumerate(row) if x != 0)
        if w[c] != 0:
            f = w[c]
            w = [x - f * y for x, y in zip(w, row)]
    return all(x == 0 for x in w)


def _seeded_matrices(seed, count=200):
    """Dense, sparse, rank-deficient, rectangular and zero rational matrices."""
    rng = random.Random(seed)

    def entry(density):
        return F(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < density else F(0)

    out = [linalg.zeros(3, 4), linalg.zeros(1, 1), linalg.identity(4), linalg.mat([[0, 2], [3, 0]])]
    for _ in range(count):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        a = [[entry(rng.choice((0.15, 0.4, 1.0))) for _ in range(m)] for _ in range(n)]
        if n > 1 and rng.random() < 0.4:  # a combination of two rows: rank-deficient
            f, g = F(rng.randint(-3, 3), rng.randint(1, 3)), F(rng.randint(-3, 3))
            a[rng.randrange(n)] = [f * x + g * y for x, y in zip(a[0], a[-1])]
        out.append(linalg.mat(a))
    return out


def _assert_rref_matches(a, rref_inplace):
    """``_rref`` of the integer rows of a against the RREF of a given
    Gauss-Jordan loop on its Fraction rows: the same basis, and the integer
    rows left in place are positive multiples of the RREF's rows, then
    zero."""
    ints, ref = [linalg._integer_row(row) for row in a], [list(r) for r in a]
    pivots = rref_inplace(ref)
    assert linalg._rref(ints) == tuple(tuple(r) for r in ref[: len(pivots)])
    assert all(row[c] > 0 and all(F(x, row[c]) == y for x, y in zip(row, r)) for row, c, r in zip(ints, pivots, ref))
    assert not any(any(row) for row in ints[len(pivots) :])
    assert all(type(x) is F for row in linalg._rref([linalg._integer_row(row) for row in a]) for x in row)


def test_rref_inplace_matches_dense_reference():
    for a in _seeded_matrices(11):
        _assert_rref_matches(a, _dense_rref_inplace)


def _reference_solve_affine(rref_inplace, a, b):
    """Reference: a solution read off a given Gauss-Jordan loop on
    Fraction rows, with free variables set to zero."""
    m = len(a[0]) if a else 0
    rows = [list(a[i]) + [F(b[i])] for i in range(len(a))]
    pivots = rref_inplace(rows)
    if pivots and pivots[-1] == m:
        return None
    x = [F(0)] * m
    for r, c in enumerate(pivots):
        x[c] = rows[r][m]
    return tuple(x)


def _reference_rank(rref_inplace, a):
    return len(rref_inplace([list(r) for r in a]))


def _reference_pivots(rref_inplace, a):
    return tuple(rref_inplace([list(r) for r in a]))


def _reference_row_space(rref_inplace, a):
    rows = [list(r) for r in a]
    return tuple(tuple(r) for r in rows[: len(rref_inplace(rows))])


def _reference_basis(rref_inplace, a):
    """Reference: the RREF rows as primitive integer rows."""
    return tuple(map(linalg.primitive_direction, _reference_row_space(rref_inplace, a)))


def _reference_nullspace(rref_inplace, a):
    """Reference: one kernel vector per free column of the RREF, 1 there
    and 0 at the other free columns."""
    m = len(a[0]) if a else 0
    rows = [list(r) for r in a]
    pivots = rref_inplace(rows)
    basis = []
    for free in range(m):
        if free in pivots:
            continue
        v = [F(0)] * m
        v[free] = F(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        basis.append(tuple(v))
    return tuple(basis)


def _basis(a):
    return linalg._basis([linalg._integer_row(row) for row in a])


def _kernel(a):
    """The kernel of a through ``linalg._kernel``, each vector over its
    denominator, checked to be 1 at its free column."""
    kernel = linalg._kernel([linalg._integer_row(row) for row in a], len(a[0]) if a else 0)
    assert all(k[f] == den for f, k, den in kernel)
    return tuple(tuple(F(x, den) for x in k) for _, k, den in kernel)


READERS = (_solve, linalg.rank, _pivots, linalg.row_space, _basis, linalg.nullspace, _kernel)
REFERENCES = (
    _reference_solve_affine,
    _reference_rank,
    _reference_pivots,
    _reference_row_space,
    _reference_basis,
    _reference_nullspace,
    _reference_nullspace,
)


def test_solvers_match_dense_reference():
    rng = random.Random(12)
    cases = []
    for a in _seeded_matrices(12):
        x = linalg.vec(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in a[0])
        consistent = linalg.mat_vec(a, x)
        inconsistent = tuple(b + (1 if i == 0 else 0) for i, b in enumerate(consistent))
        cases.append((a, consistent, inconsistent))

    def run(solve, rank, pivots, row_space, basis, nullspace, kernel):
        out = {"reductions": [], "solutions": [], "inverses": []}
        for a, consistent, inconsistent in cases:
            out["reductions"].append((pivots(a), rank(a), row_space(a), basis(a), nullspace(a), kernel(a)))
            out["solutions"].append((solve(a, consistent), solve(a, inconsistent)))
            if len(a) == len(a[0]):
                try:
                    out["inverses"].append(linalg.inverse(a))
                except ValueError as exc:
                    out["inverses"].append(str(exc))
        return out

    new = run(*READERS)
    assert new == run(*[partial(f, _dense_rref_inplace) for f in REFERENCES])
    assert all(s is not None for s, _ in new["solutions"])
    assert sum(s is None for _, s in new["solutions"]) >= 50
    assert {type(x) for x in new["inverses"]} == {str, tuple}


def test_det_matches_dense_reference():
    rng = random.Random(13)
    squares = [a for a in _seeded_matrices(13, 400) if len(a) == len(a[0])]
    perms = [linalg.mat([[0, 2], [3, 0]]), linalg.mat([[0, 0, 1], [0, 1, 0], [1, 0, 0]])]
    for n in range(1, 7):
        p = list(range(n))
        rng.shuffle(p)
        perms.append(linalg.mat([[3 if j == p[i] else 0 for j in range(n)] for i in range(n)]))
    values = set()
    for a in squares + perms + [(), linalg.zeros(2, 2)]:
        d = linalg.det(a)
        assert d == _dense_det(a)
        assert type(d) is F
        values.add(d)
    assert 0 in values and len(values) > 20
    assert any(linalg.det(p) < 0 for p in perms)


def test_in_row_space_matches_dense_reference():
    rng = random.Random(14)
    seen = {True: 0, False: 0}
    for a in _seeded_matrices(14):
        basis = linalg.row_space(a)
        m = len(a[0])
        probes = [tuple(sum((F(rng.randint(-2, 2)) * row[j] for row in a), F(0)) for j in range(m))]
        probes += [linalg.vec(rng.choice((0, 0, 1, -1, F(1, 2))) for _ in range(m)) for _ in range(3)]
        for v in probes:
            inside = linalg.in_row_space(v, basis)
            assert inside == _dense_in_row_space(v, basis)
            seen[inside] += 1
    assert min(seen.values()) >= 100, seen


def test_echelon_basis_membership_dependence_and_unit_pivots():
    rng = random.Random(15)
    for a in _seeded_matrices(15):
        echelon = []
        added = [linalg.echelon_add(echelon, row) for row in a]
        # a row is rejected exactly when it depends on the rows before it
        for k, appended in enumerate(added):
            assert appended is (linalg.rank(a[: k + 1]) > linalg.rank(a[:k]))
        assert len(echelon) == linalg.rank(a)
        reference = []
        for row in a:
            _fraction_echelon_add(reference, row)
        pivots = [terms[0][0] for terms in echelon]
        for k, terms in enumerate(echelon):
            # a primitive integer row with a positive pivot, whose unit-pivot
            # form is the row of the Fraction kernel
            assert terms[0][1] > 0 and all(type(x) is int and x != 0 for _, x in terms)
            assert gcd(*(x for _, x in terms)) == 1
            assert [(j, F(x, terms[0][1])) for j, x in terms] == reference[k]
            assert [j for j, _ in terms] == sorted(j for j, _ in terms)
            assert not {j for j, _ in terms} & set(pivots[:k])
        # the same span as the rows: membership agrees with the RREF basis
        basis = linalg.row_space(a)
        m = len(a[0])
        for v in [linalg.vec(rng.choice((0, 1, -2, F(1, 3))) for _ in range(m)) for _ in range(3)] + list(a):
            assert linalg.echelon_contains(echelon, v) == linalg.in_row_space(v, basis)
        before = [list(t) for t in echelon]
        for row in a:
            assert linalg.echelon_add(echelon, row) is False
        assert echelon == before
    echelon = []
    assert linalg.echelon_add(echelon, (F(0), F(2), F(4))) is True
    assert echelon == [[(1, 1), (2, 2)]]


# ---------------------------------------------------------------------------
# The unit-pivot Fraction kernel that the integer rows replaced, kept as the
# reference: every row is scaled to a unit pivot when it becomes a pivot row,
# and one step subtracts a multiple of it over its nonzero terms.


def _fraction_terms(row):
    return [(j, x) for j, x in enumerate(row) if x]


def _fraction_subtract(w, f, terms):
    for j, y in terms:
        w[j] -= f * y


def _fraction_rref_inplace(rows):
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = linalg.ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        terms = _fraction_terms(rows[r])
        for i in range(len(rows)):
            f = rows[i][c]
            if f and i != r:
                _fraction_subtract(rows[i], f, terms)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _fraction_echelon_reduce(echelon, v):
    w = list(v)
    for terms in echelon:
        f = w[terms[0][0]]
        if f:
            _fraction_subtract(w, f, terms)
    return w


def _fraction_echelon_add(echelon, v):
    terms = _fraction_terms(_fraction_echelon_reduce(echelon, v))
    if not terms:
        return None
    lead = terms[0][1]
    inv = linalg.ONE / lead
    echelon.append([(j, x * inv) for j, x in terms])
    return lead


def _fraction_echelon_contains(echelon, v):
    return not any(_fraction_echelon_reduce(echelon, v))


def _fraction_det(a):
    echelon = []
    prod = linalg.ONE
    for row in a:
        lead = _fraction_echelon_add(echelon, row)
        if lead is None:
            return linalg.ZERO
        prod *= lead
    pivots = [terms[0][0] for terms in echelon]
    inversions = sum(p > q for k, p in enumerate(pivots) for q in pivots[k + 1 :])
    return -prod if inversions % 2 else prod


def _kernel_matrices(seed, count=150):
    """Seeded rational matrices for the integer kernel: mixed denominators,
    zero rows, zero columns, rank-deficient rows, and entries above 2^64."""
    rng = random.Random(seed)

    def entry(kind):
        if rng.random() < 0.3:
            return F(0)
        if kind == "huge" and rng.random() < 0.5:
            return F(rng.choice((-1, 1)) * rng.randint(2**64, 2**72), rng.randint(1, 2**66))
        return F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 5, 6, 7, 12)))

    out = [linalg.zeros(2, 3), linalg.identity(3), linalg.mat([[0, F(1, 2)], [F(-2, 3), 0]])]
    for k in range(count):
        n, m = rng.randint(1, 7), rng.randint(1, 8)
        kind = "huge" if k % 3 == 0 else "small"
        a = [[entry(kind) for _ in range(m)] for _ in range(n)]
        if n > 1 and rng.random() < 0.4:  # a combination of two rows
            f, g = F(rng.randint(-3, 3), rng.randint(1, 5)), F(rng.randint(-3, 3), rng.randint(1, 7))
            a[rng.randrange(n)] = [f * x + g * y for x, y in zip(a[0], a[-1])]
        if rng.random() < 0.3:
            a[rng.randrange(n)] = [F(0)] * m
        if rng.random() < 0.3:
            zero_col = rng.randrange(m)
            for row in a:
                row[zero_col] = F(0)
        out.append(linalg.mat(a))
    return out


def test_kernel_matrices_cover_the_cases():
    mats = _kernel_matrices(21)
    entries = [x for a in mats for row in a for x in row]
    assert any(abs(x.numerator) > 2**64 for x in entries)
    assert any(any(x.denominator != row[0].denominator for x in row) for a in mats for row in a)
    assert any(not any(row) for a in mats for row in a)
    assert any(not any(row[j] for row in a) for a in mats for j in range(len(a[0])))


def test_integer_rref_matches_fraction_kernel():
    for a in _kernel_matrices(21) + _seeded_matrices(22):
        _assert_rref_matches(a, _fraction_rref_inplace)
        ints = [linalg._integer_row(row) for row in a]
        pivots = linalg._reduce(ints)[0]
        assert all(ints[r][c] > 0 for r, c in enumerate(pivots))
        assert not any(any(row) for row in ints[len(pivots) :])


def test_integer_solvers_match_fraction_kernel():
    rng = random.Random(23)
    cases = []
    for a in _kernel_matrices(23):
        x = linalg.vec(F(rng.randint(-3, 3), rng.randint(1, 5)) for _ in a[0])
        consistent = linalg.mat_vec(a, x)
        inconsistent = tuple(b + F(1, 3) * (i == len(a) - 1) for i, b in enumerate(consistent))
        cases.append((a, consistent, inconsistent))

    def run(solve, rank, pivots, row_space, basis, nullspace, kernel):
        out = {"reductions": [], "solutions": [], "inverses": []}
        for a, consistent, inconsistent in cases:
            out["reductions"].append((row_space(a), pivots(a), rank(a), basis(a), nullspace(a), kernel(a)))
            out["solutions"].append(tuple(solve(a, b) for b in (consistent, inconsistent)))
            if len(a) == len(a[0]):
                try:
                    out["inverses"].append(linalg.inverse(a))
                except ValueError as exc:
                    out["inverses"].append(str(exc))
        return out

    new = run(*READERS)
    assert run(*[partial(f, _fraction_rref_inplace) for f in REFERENCES]) == new
    for a, consistent, _ in cases:  # the denominator of a solution is its least one
        z, den = linalg._solve_terms([linalg._terms(row) for row in a], consistent, len(a[0]))
        assert den == lcm(*[F(x, den).denominator for x in z])
    assert all(s is not None for s, _ in new["solutions"])
    assert sum(s is None for _, s in new["solutions"]) >= 30
    assert sum(type(x) is str for x in new["inverses"]) >= 5
    assert sum(type(x) is tuple for x in new["inverses"]) >= 5


def test_integer_det_and_echelon_match_fraction_kernel():
    rng = random.Random(24)
    mats = _kernel_matrices(24, 300)
    dets = set()
    for a in mats:
        if len(a) == len(a[0]):
            d = linalg.det(a)
            assert d == _fraction_det(a) and type(d) is F
            dets.add(d != 0)
        echelon, reference = [], []
        for row in a:
            # the leading entry of the reduced row, over its scale
            w, s, t = linalg._echelon_reduce(echelon, row)
            lead = next((F(x * t, s) for x in w if x), None)
            assert lead == _fraction_echelon_add(reference, row)
            assert linalg.echelon_add(echelon, row) is (lead is not None)
        m = len(a[0])
        probes = [tuple(sum((F(rng.randint(-2, 2), rng.randint(1, 3)) * row[j] for row in a), F(0)) for j in range(m))]
        probes += [linalg.vec(rng.choice((0, 0, 1, -1, F(1, 2), F(2**65, 3))) for _ in range(m)) for _ in range(3)]
        for v in probes:
            assert linalg.echelon_contains(echelon, v) == _fraction_echelon_contains(reference, v)
    assert dets == {True, False}


def _rref_inverse(a):
    """Reference: the inverse read off the RREF of [a | I], with no
    determinant, as ``inverse`` computed it before the reduction tracked
    one."""
    n = len(a)
    rows = [list(a[i]) + [linalg.ONE if i == j else linalg.ZERO for j in range(n)] for i in range(n)]
    pivots = _dense_rref_inplace(rows)
    if tuple(pivots[:n]) != tuple(range(n)):
        return None
    return tuple(tuple(rows[i][n:]) for i in range(n))


def _echelon_det(a):
    """Reference: the signed product of the leading entries met while
    building an echelon basis of the rows, as ``det`` computed it before it
    shared the reduction of ``inverse``.  A row comes back reduced and
    scaled by s/t, so its leading entry is lead t / s."""
    echelon = []
    num = den = 1
    for row in a:
        w, s, t = linalg._echelon_reduce(echelon, row)
        lead = next((x for x in w if x), 0)
        if not lead:
            return linalg.ZERO
        echelon.append(linalg._pivot_terms(w))
        num *= lead * t
        den *= s
    pivots = [terms[0][0] for terms in echelon]
    inversions = sum(p > q for k, p in enumerate(pivots) for q in pivots[k + 1 :])
    return F(-num if inversions % 2 else num, den)


def test_inverse_and_determinant_from_one_reduction_match_references():
    # square matrices of the kernel's seeded kinds, singular ones included,
    # frames (signed permutations times shears), row swaps, and an SL_2
    # block with determinant 2
    square = [a for seed in (31, 32) for a in _kernel_matrices(seed) if len(a) == len(a[0])]
    square += [linalg.mat_mul(p, s) for p in (linalg.mat([[0, -1, 0], [0, 0, 1], [1, 0, 0]]), linalg.identity(3))
               for s in (linalg.mat([[1, 0, 0], [0, 1, 0], [F(-1, 2), 0, 1]]), linalg.identity(3))]
    swaps = [linalg.mat([[0, 1], [1, 0]]), linalg.mat([[0, F(1, 2), 0], [0, 0, 3], [F(-2, 3), 0, 0]]),
             linalg.mat([[0, 0, 1, 0], [0, 0, 0, 2], [1, 0, 0, 0], [0, 1, 0, 0]])]
    sl_block = linalg.mat([[2, 1], [0, 1]])
    square += swaps + [sl_block, linalg.mat([[0, 2], [0, 5]])]
    singular = 0
    for a in square:
        scaled, d = linalg._Scaled.of(a).inverse()
        inv = None if scaled is None else scaled.fractions()
        assert (inv, d) == _reference_inverse_det(a)
        assert d == _dense_det(a) == _echelon_det(a) == linalg.det(a)
        assert inv == _rref_inverse(a)
        if inv is None:
            singular += 1
            with pytest.raises(ValueError, match="singular"):
                linalg.inverse(a)
        else:
            assert tuple(scaled) == tuple(linalg._Scaled.of(inv))  # the canonical rows and scale
            assert linalg.inverse(a) == inv and linalg.mat_mul(a, inv) == linalg.identity(len(a))
    assert singular >= 5 and len(square) - singular >= 20
    assert [linalg.det(a) for a in swaps] == [-1, -1, 2] and linalg.det(sl_block) == 2
    sl2 = GroupSpec.make(("SL", 2))
    with pytest.raises(DomainError, match="acting element is not in the group"):
        sl2._member_inverse(linalg._Scaled.of(sl_block), "acting element")
    member = linalg.mat([[F(1, 2), 1], [F(-1, 2), 1]])
    assert sl2._member_inverse(linalg._Scaled.of(member), "x").fractions() == linalg.inverse(member)


# ---------------------------------------------------------------------------
# The scaled inverse against the Fraction route it replaced, kept as the
# reference


def _reference_inverse_det(a):
    """Reference: the inverse as Fractions (None when a is singular) and
    det a, from one reduction of [a | I] with each row scaled by the lcm of
    its denominators: row i of the inverse is the right half of row i over
    its pivot, and det a is the pivots' product over the scales and the
    reduction's factor."""
    n = len(a)
    rows, scale = [], 1
    for i, row in enumerate(a):
        w, s = linalg._integer_terms(linalg._terms(row) + [(n + i, linalg.ONE)], 2 * n)
        rows.append(w)
        scale *= s
    pivots, num, den = linalg._reduce(rows)
    if pivots[:n] != list(range(n)):
        return None, linalg.ZERO
    d = F(math.prod(rows[i][i] for i in range(n)) * den, num * scale)
    return tuple(tuple(F(x, row[i]) if x else linalg.ZERO for x in row[n:]) for i, row in enumerate(rows)), d


def _reference_member_inverse(group, g, what="element"):
    """Reference: ``GroupSpec._member_inverse`` as Fractions, block by block
    through ``_reference_inverse_det``."""
    from destab.groups import _block_det_allowed

    blocks = group._blocks(g)
    if blocks is not None:
        parts = [_reference_inverse_det(sub) for sub in blocks]
        if all(_block_det_allowed(f, d) for f, (_, d) in zip(group.factors, parts)):
            m = group.dimension
            inverse = [[linalg.ZERO] * m for _ in range(m)]
            for block, (inv, _) in zip(group.block_slices, parts):
                for i, row in zip(block, inv):
                    inverse[i][block.start : block.stop] = row
            return tuple(map(tuple, inverse))
    raise DomainError(f"{what} is not in the group")


MEMBER_GROUPS = [GroupSpec.make(("GL", n)) for n in range(1, 6)]
MEMBER_GROUPS += [GroupSpec.make(("SL", n)) for n in range(2, 5)]
MEMBER_GROUPS += [GroupSpec.make(("GL", 2), ("SL", 2)), GroupSpec.make(("GL", 1), ("GL", 1), ("GL", 1))]


def _block_matrix(rng, group, kind):
    """A seeded square matrix of the group's size, block-diagonal unless
    kind is "off-block": dense rational blocks, a singular block when kind
    is "singular", SL blocks rescaled to determinant one unless kind is
    "sl-det"."""
    m = group.dimension
    g = [[F(0)] * m for _ in range(m)]
    for f, block in zip(group.factors, group.block_slices):
        sub = [[F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6))) if rng.random() < 0.7 else F(0) for _ in block] for _ in block]
        d = linalg.det(linalg.mat(sub))
        if f.family == "SL" and d and kind != "sl-det":
            for row in sub:
                row[0] /= d
        elif kind == "sl-det" and f.family == "SL" and d in (0, 1):
            sub = [[F(2) if i == j == 0 else F(int(i == j)) for j in block] for i in block]
        for a, i in enumerate(block):
            for b, j in enumerate(block):
                g[i][j] = sub[a][b]
    if kind == "singular":
        block = rng.choice(group.block_slices)
        g[block[-1]] = [F(0)] * m if len(block) == 1 else [2 * x for x in g[block[0]]]
    if kind == "off-block":
        i, j = rng.choice([(i, j) for i in range(m) for j in range(m) if group.block_of(i) != group.block_of(j)])
        g[i][j] = F(rng.choice((-1, 1)), rng.randint(1, 3))
    return linalg.mat(g)


def test_member_inverse_matches_fraction_reference():
    # seeded block matrices over GL_1-GL_5, SL_2-SL_4, GL_2 x SL_2 and
    # GL_1^3: the same rows and scale as the scaled Fraction inverse, and
    # the same verdict; singular, off-block, ragged and SL determinant != 1
    # inputs fail with the same error text
    rng = random.Random(149)
    members = refused = 0
    for group in MEMBER_GROUPS:
        m = group.dimension
        kinds = ["member"] * 12 + ["singular"] * 3 + ["sl-det"] * 3
        kinds += ["off-block"] * 3 if len(group.factors) > 1 else []
        cases = [_block_matrix(rng, group, kind) for kind in kinds]
        cases.append(tuple(tuple(F(int(i == j)) for j in range(m - (i == m - 1))) for i in range(m)))  # ragged
        cases.append(linalg.identity(m + 1))
        for g in cases:
            try:
                expected = linalg._Scaled.of(_reference_member_inverse(group, g, "acting element"))
            except DomainError as exc:
                with pytest.raises(DomainError) as caught:
                    group._checked_pair(g, "acting element")
                assert str(caught.value) == str(exc) == "acting element is not in the group"
                assert not group.contains(g)
                refused += 1
                continue
            scaled, got = group._checked_pair(g, "acting element")
            assert tuple(scaled) == tuple(linalg._Scaled.of(g))
            assert tuple(got) == tuple(expected)  # rows and scale, not only the value
            assert group.contains(g)
            members += 1
    assert members >= 90 and refused >= 60, (members, refused)
