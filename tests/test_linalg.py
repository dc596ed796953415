import random
from fractions import Fraction
from itertools import combinations

import pytest

from helpers import charpoly, identity
from unideal.fields import kernel_map
from unideal.linalg import (
    Matrix,
    rank_and_row_basis,
    suffix_pivots,
)

F = Fraction


def frac_matrix(rows):
    return Matrix([[F(x) for x in row] for row in rows])


def test_rank_identity():
    m = identity(3)
    rank, basis, coords = rank_and_row_basis(m)
    assert rank == 3
    assert basis == [0, 1, 2]
    assert coords == identity(3)


def test_rank_all_ones():
    m = frac_matrix([[1] * 4] * 4)
    rank, basis, coords = rank_and_row_basis(m)
    assert rank == 1
    assert basis == [0]
    assert all(coords[i, 0] == 1 for i in range(4))


def test_rank_product_structure_and_reconstruction():
    rng = random.Random(7)
    for _ in range(30):
        n = 4
        u = [[F(rng.randint(-3, 3)) for _ in range(2)] for _ in range(n)]
        v = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(2)]
        m = Matrix([[sum(u[i][t] * v[t][j] for t in range(2)) for j in range(n)] for i in range(n)])
        rank, basis, coords = rank_and_row_basis(m)
        assert rank <= 2
        # coords * basis reproduces m entrywise
        for i in range(n):
            for j in range(n):
                got = sum((coords[i, t] * m[basis[t], j] for t in range(rank)), F(0))
                assert got == m[i, j]


def test_basis_is_row_subset():
    m = frac_matrix([[1, 1, 0], [2, 2, 0], [0, 0, 1]])
    rank, basis, _ = rank_and_row_basis(m)
    assert rank == 2
    assert basis == [0, 2]


def test_suffix_pivots_count_suffix_ranks():
    # rank(m[:, c:]) pivots lie at or past c, for every c, on matrices with
    # zero columns, zero rows, repeated rows and rows whose support ends early.
    rng = random.Random(8)
    for p in (None, 5, 10007):
        scalar = kernel_map(p)
        for _ in range(80):
            r, n = rng.randint(1, 5), rng.randint(0, 10)
            zero_cols = set(rng.sample(range(n), rng.randint(0, n)))
            rows = []
            for _ in range(r):
                if rows and rng.random() < 0.25:
                    rows.append(list(rng.choice(rows)))
                    continue
                end = rng.randint(0, n)
                rows.append([scalar(0 if j >= end or j in zero_cols else rng.randint(-2, 2)) for j in range(n)])
            m = Matrix(rows)
            pivots = suffix_pivots(m, p)
            assert pivots == sorted(set(pivots))
            for c in range(n + 1):
                assert sum(j >= c for j in pivots) == rank_and_row_basis(Matrix([row[c:] for row in rows]), p)[0]


def test_int_entries_eliminate_exactly():
    # Pivots other than +-1 used to turn int entries into floats.
    def exact(values):
        return all(type(v) in (int, F) for v in values)

    rng = random.Random(17)
    singular = 0
    for _ in range(40):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:
            rows[-1] = [3 * a - 2 * b for a, b in zip(rows[0], rows[1])]
        ints, fracs = Matrix(rows), frac_matrix(rows)
        rank, basis, coords = rank_and_row_basis(ints)
        assert (rank, basis, coords) == rank_and_row_basis(fracs)
        assert exact(c for row in coords.rows for c in row)
        assert suffix_pivots(ints) == suffix_pivots(fracs)
        chi = charpoly(ints)
        assert chi == charpoly(fracs) and exact(chi.coeffs)
        singular += rank < n
    assert singular >= 5


def det(rows):
    """Exact integer determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * rows[0][j] * det([r[:j] + r[j + 1 :] for r in rows[1:]]) for j in range(len(rows)))


def minor_rank(rows, p, c=0):
    """rank(rows[:, c:]) over GF(p): the order of its largest minor that does
    not vanish mod p."""
    ncols = len(rows[0]) if rows else 0
    for k in range(min(len(rows), ncols - c), 0, -1):
        for rs in combinations(range(len(rows)), k):
            for cs in combinations(range(c, ncols), k):
                if det([[rows[i][j] for j in cs] for i in rs]) % p:
                    return k
    return 0


@pytest.mark.parametrize("p", [2, 7, 2**61 - 1])
def test_residue_split(p):
    # Given p, both eliminations run on residues: every coordinate is an int
    # in [0, p), coords * basis == m mod p, and every suffix rank is that of
    # the integer minors mod p.  The last row is sometimes a combination of
    # two others plus p times anything, so the rank drops mod p only.
    rng = random.Random(p)
    drops = 0
    for _ in range(40):
        nrows, ncols = rng.randint(1, 4), rng.randint(0, 6)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        if nrows >= 3 and rng.random() < 0.5:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[-1] = [a * x + b * y + p * rng.randint(-2, 2) for x, y in zip(rows[0], rows[1])]
        m = Matrix([[x % p for x in row] for row in rows])
        rank, basis, coords = rank_and_row_basis(m, p)
        assert rank == len(basis) == minor_rank(rows, p)
        assert basis == sorted(basis)
        assert all(type(c) is int and 0 <= c < p for row in coords.rows for c in row)
        for i in range(nrows):
            for j in range(ncols):
                assert sum(coords[i, t] * m[basis[t], j] for t in range(rank)) % p == m[i, j]
        pivots = suffix_pivots(m, p)
        for c in range(ncols + 1):
            assert sum(j >= c for j in pivots) == minor_rank(rows, p, c)
        drops += rank < rank_and_row_basis(Matrix(rows))[0]
    assert drops > 0
