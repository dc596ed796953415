import random
from fractions import Fraction

from helpers import charpoly, identity
from unideal.fields import GF
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
    for field in (F, GF(5), GF(10007)):
        for _ in range(80):
            r, n = rng.randint(1, 5), rng.randint(0, 10)
            zero_cols = set(rng.sample(range(n), rng.randint(0, n)))
            rows = []
            for _ in range(r):
                if rows and rng.random() < 0.25:
                    rows.append(list(rng.choice(rows)))
                    continue
                end = rng.randint(0, n)
                rows.append([field(0 if j >= end or j in zero_cols else rng.randint(-2, 2)) for j in range(n)])
            m = Matrix(rows)
            pivots = suffix_pivots(m)
            assert pivots == sorted(set(pivots))
            for c in range(n + 1):
                assert sum(j >= c for j in pivots) == Matrix([row[c:] for row in rows]).rank()


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
