"""Exact rational matrix arithmetic owned by the benchmark.

The checkers and the input builders use this module and never
``destab.linalg``: a check that shared code with the program it checks
could not catch a fault in that code.  Matrices are tuples of tuples of
``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction


def mat(rows) -> tuple:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity(n: int) -> tuple:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def mul(a, b) -> tuple:
    cols = list(zip(*b))
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols) for row in a)


def add(a, b) -> tuple:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def sub(a, b) -> tuple:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scale(c, a) -> tuple:
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def power(a, k: int) -> tuple:
    out = identity(len(a))
    for _ in range(k):
        out = mul(out, a)
    return out


def trace(a) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def is_zero(a) -> bool:
    return all(x == 0 for row in a for x in row)


def flat(a) -> tuple:
    return tuple(x for row in a for x in row)


def binary_act(g, coords) -> tuple:
    """g acting on sum c_j x^(d-j) y^j, with g.x = g00 x + g10 y, g.y = g01 x + g11 y."""
    d = len(coords) - 1

    def expand(a, b, n):
        out = [Fraction(0)] * (n + 1)
        coeff = 1
        for k in range(n + 1):
            out[k] = coeff * a ** (n - k) * b ** k
            coeff = coeff * (n - k) // (k + 1)
        return out

    out = [Fraction(0)] * (d + 1)
    for j, c in enumerate(coords):
        if c == 0:
            continue
        p1 = expand(g[0][0], g[1][0], d - j)
        p2 = expand(g[0][1], g[1][1], j)
        for k1, a in enumerate(p1):
            for k2, b in enumerate(p2):
                out[k1 + k2] += c * a * b
    return tuple(out)


def inverse(a) -> tuple:
    """Gauss-Jordan inverse; raises ValueError on a singular matrix."""
    n = len(a)
    rows = [list(a[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        rows[c], rows[piv] = rows[piv], rows[c]
        p = rows[c][c]
        rows[c] = [x / p for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return tuple(tuple(row[n:]) for row in rows)


def conj(g, h) -> tuple:
    """g h g^-1."""
    return mul(mul(g, h), inverse(g))


def transport(h, base) -> tuple:
    """base^-1 h base: h written in the frame whose columns are ``base``."""
    return mul(mul(inverse(base), h), base)


class Echelon:
    """Incrementally maintained echelon basis of a space of vectors."""

    def __init__(self):
        self.rows: list[tuple[int, list]] = []  # (pivot column, row with pivot 1)

    def reduce(self, v) -> list:
        w = list(v)
        for c, row in self.rows:
            if w[c] != 0:
                f = w[c]
                w = [x - f * y for x, y in zip(w, row)]
        return w

    def add(self, v) -> bool:
        """Add v; True when it enlarged the space."""
        w = self.reduce(v)
        c = next((i for i, x in enumerate(w) if x != 0), None)
        if c is None:
            return False
        p = w[c]
        self.rows.append((c, [x / p for x in w]))
        return True

    def __len__(self) -> int:
        return len(self.rows)


def rank(rows) -> int:
    e = Echelon()
    for r in rows:
        e.add(r)
    return len(e)


def algebra_basis(gens) -> list:
    """Basis of the associative algebra generated by ``gens`` and the identity."""
    n = len(gens[0])
    space = Echelon()
    basis = []
    frontier = [identity(n)]
    space.add(flat(frontier[0]))
    basis.append(frontier[0])
    while frontier:
        fresh = []
        for b in frontier:
            for g in gens:
                x = mul(b, g)
                if space.add(flat(x)):
                    basis.append(x)
                    fresh.append(x)
        frontier = fresh
    return basis


def is_semisimple_algebra(gens) -> bool:
    """Characteristic zero: the trace form on the algebra is nondegenerate.

    A subgroup of GL_n is completely reducible exactly when this holds for
    the algebra its generators span; for a single matrix it says that the
    matrix is semisimple, i.e. that its conjugation orbit is closed.
    """
    basis = algebra_basis(gens)
    gram = [[trace(mul(x, y)) for y in basis] for x in basis]
    return rank(gram) == len(basis)


def charpoly(a) -> tuple:
    """Characteristic polynomial det(tI - a), constant term first (Faddeev-LeVerrier)."""
    n = len(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = identity(n)
    for k in range(1, n + 1):
        am = mul(a, m)
        c = -trace(am) / k
        coeffs[n - k] = c
        m = add(am, scale(c, identity(n)))
    return tuple(coeffs)


def jordan_type(nil) -> tuple:
    """Block sizes of a nilpotent matrix, read off the ranks of its powers."""
    n = len(nil)
    ranks = [n]
    p = identity(n)
    while ranks[-1] > 0:
        p = mul(p, nil)
        ranks.append(rank(p))
        if len(ranks) > n + 1:
            raise ValueError("matrix is not nilpotent")
    # number of blocks of size >= k is rank(N^{k-1}) - rank(N^k)
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    sizes = []
    for k, count in enumerate(at_least, start=1):
        nxt = at_least[k] if k < len(at_least) else 0
        sizes.extend([k] * (count - nxt))
    return tuple(sorted(sizes, reverse=True))


def kempf_value(jordan) -> Fraction:
    """Optimal value a^2/|lambda|^2 of a nilpotent of the given Jordan type.

    The optimal cocharacter is half the Jacobson-Morozov h: on a block of
    size k its exponents are (k-1)/2, (k-3)/2, ..., with squared length
    k(k^2-1)/12, and it pairs to 1 with the nilpotent.
    """
    total = sum(k * (k * k - 1) for k in jordan)
    return Fraction(12, total)
