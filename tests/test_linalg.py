import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from destab import linalg


def test_rref_and_rank():
    a = linalg.mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    basis, pivots = linalg.rref(a)
    assert pivots == (0, 1)
    assert linalg.rank(a) == 2


def test_solve_affine_consistent():
    a = linalg.mat([[1, 1], [1, -1]])
    x = linalg.solve_affine(a, linalg.vec([3, 1]))
    assert x == (F(2), F(1))


def test_solve_affine_inconsistent():
    a = linalg.mat([[1, 1], [2, 2]])
    assert linalg.solve_affine(a, linalg.vec([1, 3])) is None


def test_solve_affine_underdetermined_picks_particular():
    a = linalg.mat([[1, 1, 0]])
    x = linalg.solve_affine(a, linalg.vec([5]))
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
    x = linalg.solve_affine(a, b)
    if x is not None:
        assert linalg.mat_vec(a, x) == b
