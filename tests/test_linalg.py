import random
from fractions import Fraction

import pytest

from helpers import charpoly, identity, matmul
from unideal.fields import GF, QQ, Mod
from unideal.linalg import (
    Matrix,
    congruence_diagonalize,
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


def _check_congruence(a, field=QQ):
    """P and D of `a` with A == P D P^T, P of full rank, D diagonal with
    rank(A) nonzero entries."""
    p, d = congruence_diagonalize(a, field)
    n = a.nrows
    assert matmul(matmul(p, d), p.transpose()) == Matrix([[field(x) for x in row] for row in a.rows])
    assert p.rank() == n
    assert all(d[i, j] == 0 for i in range(n) for j in range(n) if i != j)
    assert sum(1 for i in range(n) if d[i, i]) == a.rank()
    return p, d


def test_congruence_identity():
    a = identity(3)
    p, d = _check_congruence(a)
    assert p == identity(3)
    assert d == identity(3)


def test_congruence_hyperbolic_plane():
    a = frac_matrix([[0, 1], [1, 0]])
    p, d = _check_congruence(a)
    assert (d[0, 0], d[1, 1]) == (F(2), F(-1, 2))


def test_congruence_star_rank():
    # K_{1,3}: center 0 joined to 1,2,3; adjacency rank 2
    a = frac_matrix(
        [[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]
    )
    p, d = _check_congruence(a)
    assert sum(1 for i in range(4) if d[i, i]) == 2


def test_congruence_random_property():
    # a[0][0] == 0 != a[1][0] sends the first pivot to the swap branch when
    # a[1][1] != 0 and to the add branch when a[1][1] == 0; the rest is random.
    rng = random.Random(11)
    for field in (QQ, GF(7), GF(2**61 - 1)):
        for branch in ["swap", "add"] * 20:
            n = rng.randint(2, 6)
            base = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            a = [[field(base[i][j] + base[j][i]) for j in range(n)] for i in range(n)]
            a[0][0] = field(0)
            a[1][0] = a[0][1] = field(rng.choice([-2, -1, 1, 2]))
            a[1][1] = field(rng.choice([-2, -1, 1, 2]) if branch == "swap" else 0)
            _check_congruence(Matrix(a), field)


def test_congruence_rejects_asymmetric_and_char2():
    with pytest.raises(ValueError):
        congruence_diagonalize(frac_matrix([[0, 1], [2, 0]]))
    g = GF(2)
    with pytest.raises(ValueError):
        congruence_diagonalize(Matrix([[g(0), g(1)], [g(1), g(0)]]), g)


def test_congruence_works_in_odd_characteristic():
    g = GF(7)
    a = Matrix([[g(0), g(1)], [g(1), g(0)]])
    p, d = _check_congruence(a, g)
    assert sum(1 for i in range(2) if d[i, i]) == 2


def test_congruence_over_gf7_keeps_field_scalars():
    # P and D hold GF(7) scalars, also in columns the elimination never
    # touches.
    g = GF(7)
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 5)
        base = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        zero_row = rng.randrange(n + 1)  # n: no forced zero row
        a = Matrix([
            [g(0 if zero_row in (i, j) else base[i][j] + base[j][i]) for j in range(n)] for i in range(n)
        ])
        p, d = _check_congruence(a, g)
        assert all(isinstance(x, Mod) and x.p == 7 for row in p.rows + d.rows for x in row)


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
