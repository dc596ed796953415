"""Exact dense linear algebra over Q or a prime field.

Everything here is plain Gaussian elimination on small matrices of exact
scalars.  The nonstandard entry points are `rank_and_row_basis` (the basis
is a subset of the input rows, returned as their indices, so the
variable-separation transform reads its next level's forms by index, and
the coordinates split a symmetric matrix as C A[B,B] C^T for the cover
instance of `apps`) and `suffix_pivots` (one right-to-left column
elimination whose pivots give a column basis of every suffix m[:, c:] at
once, so that transform solves each level on at most nrows columns).

Both eliminations are kernels like `poly.SparsePoly` and
`division._Reducer`: they take the field as its modulus p (None for QQ),
and the caller maps the entries in first (`fields.kernel_map`).  Each pivot
is inverted once (`fields._inverse`) and eliminations multiply by that
inverse.  Over QQ the entries are ints and Fractions and the inverse is
exact, so int entries give ints and Fractions, never floats.  Over GF(p)
they are plain-int residues, a pivot is inverted with pow(c, -1, p), and
each eliminated vector is reduced mod p once, after its last elimination
step, so every output is an int in [0, p).
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Scalar, _inverse

__all__ = [
    "LinearForm",
    "Matrix",
    "rank_and_row_basis",
    "suffix_pivots",
]


@dataclass(frozen=True)
class LinearForm:
    """A linear form c1*x1 + ... + cn*xn + c0 over n variables."""

    coeffs: tuple
    const: Scalar = 0

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def evaluate(self, point) -> Scalar:
        acc = self.const
        for c, b in zip(self.coeffs, point):
            acc = acc + c * b
        return acc


class Matrix:
    """Immutable rectangular matrix of exact scalars."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)
        if self.rows and any(len(r) != len(self.rows[0]) for r in self.rows):
            raise ValueError("ragged rows")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.rows]})"

    def rank(self) -> int:
        return rank_and_row_basis(self)[0]


def rank_and_row_basis(m: Matrix, p: int | None = None):
    """Rank, the indices of a row-subset basis of the row space, and coordinates.

    Returns (rank, basis, coords) where `basis` lists, increasing, the
    indices of the first maximal independent subset of the rows of `m`, and
    `coords` is an nrows x rank matrix with coords * [m.rows[i] for i in
    basis] == m, over QQ when p is None, else mod p (the entries of `m`
    then residues, and those of `coords` ints in [0, p)).
    """
    if not m.rows:
        return 0, [], Matrix([])
    if m.ncols == 0:
        return 0, [], Matrix([[] for _ in m.rows])
    echelon: list[tuple[list, int, object, list]] = []  # (vector, pivot col, its inverse, combo over basis)
    basis: list[int] = []
    coords: list[list] = []
    for i, row in enumerate(m.rows):
        vec = list(row)
        combo = [0] * len(basis)
        for evec, piv, inv, ecombo in echelon:
            if vec[piv]:
                f = vec[piv] * inv if p is None else vec[piv] * inv % p
                vec = [x - f * y for x, y in zip(vec, evec)]
                for t, c in enumerate(ecombo):
                    combo[t] = combo[t] + f * c
        if p is not None:
            vec = [x % p for x in vec]
            combo = [c % p for c in combo]
        piv = next((j for j, x in enumerate(vec) if x), None)
        if piv is None:
            coords.append(combo)
        else:
            new_combo = [-c for c in combo] + [1]
            for entry in echelon:
                entry[3].append(0)
            echelon.append((vec, piv, _inverse(vec[piv], p), new_combo))
            coords.append([0] * len(basis) + [1])
            basis.append(i)
    rank = len(basis)
    coords = [list(c) + [0] * (rank - len(c)) for c in coords]
    return rank, basis, Matrix(coords)


def suffix_pivots(m: Matrix, p: int | None = None) -> list:
    """The columns j with rank(m[:, j:]) > rank(m[:, j+1:]), increasing.

    One elimination of the columns from the last to the first, each reduced
    against the columns kept so far: O(nrows^2 * ncols) scalar operations.
    For every c the pivots >= c are a basis of the column space of m[:, c:],
    so every row subset of m[:, c:] has the same left kernel (rank,
    independent rows, coordinates) on those at most nrows columns as on all
    of them.  Over QQ when p is None, else over GF(p) on residues.
    """
    echelon: list[tuple[list, int, object]] = []  # (column vector, pivot row, its inverse)
    pivots = []
    for j in range(m.ncols - 1, -1, -1):
        if len(echelon) == m.nrows:
            break  # full rank: no column further left adds to it
        vec = [row[j] for row in m.rows]
        for evec, piv, inv in echelon:
            if vec[piv]:
                f = vec[piv] * inv if p is None else vec[piv] * inv % p
                vec = [x - f * y for x, y in zip(vec, evec)]
        if p is not None:
            vec = [x % p for x in vec]
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is not None:
            echelon.append((vec, piv, _inverse(vec[piv], p)))
            pivots.append(j)
    pivots.reverse()
    return pivots
