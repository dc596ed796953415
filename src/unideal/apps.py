"""Low-rank permanent and low-rank vertex cover on top of remainder evaluation.

The permanent of A is the coefficient of x_1...x_n in the row-product
polynomial prod_i(sum_j a_ij x_j), so reducing that product modulo
<x_1^2, ..., x_n^2> and evaluating at the all-ones point returns Perm(A).
When rank(A) = r the row products live in r linear forms and the reduction
runs in n^O(r).

Vertex cover on a graph with adjacency rank r: with q(x) = sum over edges of
x_i x_j, the polynomial

    f = prod_{s=1..S} (q - s) * prod_{t=0..n-k-1} (sum_i x_i - t)

is outside <x_i^2 - x_i> exactly when some 0/1 point has q = 0 and at least
n - k ones, i.e. when the zero coordinates form a vertex cover of size <= k.
The row-basis split of the adjacency matrix A, the one `perm` uses, writes q
in rank(A) linear forms (see `build_vc_instance`), so f is a polynomial in
rank(A) + 1 of them.  S defaults to C(n,2), the full range the paper's
polynomial uses; tight=True shortens it to |E| with identical semantics.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .circuits import CircuitBuilder
from .division import UnivariateIdeal, random_zero_test, zero_test_sample_size
from .fields import GF, QQ, kernel_map
from .linalg import LinearForm, Matrix, rank_and_row_basis
from .lowrank import LowRankInput, RemEvaluator
from .poly import UnivariatePoly

__all__ = [
    "Graph",
    "ryser_permanent",
    "permanent_lowrank",
    "vc_degrees",
    "build_vc_instance",
    "vertex_cover_lowrank",
    "has_vertex_cover_brute",
    "blowup_graph",
]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: tuple  # of (u, v) with u < v

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError("self-loop")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError("vertex out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError("duplicate edge")
            seen.add(key)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        return cls(n, tuple(sorted((min(u, v), max(u, v)) for u, v in edges)))

    def adjacency(self) -> Matrix:
        a = [[0] * self.n for _ in range(self.n)]
        for u, v in self.edges:
            a[u][v] = a[v][u] = 1
        return Matrix(a)


def blowup_graph(base: "Graph", sizes) -> Graph:
    """Replace each base vertex by an independent class; adjacency rank is kept."""
    if len(sizes) != base.n:
        raise ValueError("one class size per base vertex")
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)
    edges = []
    for u, v in base.edges:
        for a in range(starts[u], starts[u + 1]):
            for b in range(starts[v], starts[v + 1]):
                edges.append((min(a, b), max(a, b)))
    return Graph.from_edges(starts[-1], edges)


def ryser_permanent(a: Matrix):
    """Exact permanent by inclusion-exclusion over column subsets, O(2^n n)."""
    n = a.nrows
    if n != a.ncols:
        raise ValueError("permanent of non-square matrix")
    if n > 20:
        raise ValueError("ryser guard: n <= 20")
    if n == 0:
        return Fraction(1)
    zero = a.rows[0][0] - a.rows[0][0]
    total = zero
    rowsums = [zero] * n
    prev_gray = 0
    for m in range(1, 2**n):
        gray = m ^ (m >> 1)
        diff = gray ^ prev_gray
        j = diff.bit_length() - 1
        if gray & diff:
            for i in range(n):
                rowsums[i] = rowsums[i] + a.rows[i][j]
        else:
            for i in range(n):
                rowsums[i] = rowsums[i] - a.rows[i][j]
        prev_gray = gray
        prod = rowsums[0]
        for i in range(1, n):
            prod = prod * rowsums[i]
        if (n - bin(gray).count("1")) % 2:
            total = total - prod
        else:
            total = total + prod
    return total


def _permanent_input(a: Matrix, p: int | None):
    """The row product of `a` as a low-rank input, its rank, and a scale.

    `a` holds kernel scalars of modulus p (`fields.kernel_map`), and the
    row-basis split runs on them.  perm is linear in every row, so over QQ
    each row's coordinates in the basis rows are scaled by the lcm of their
    denominators: the outer circuit has integer scalars, and for an
    integral `a` the compiled levels run on ints.  The input's remainder is
    `scale` times perm(a); over GF(p) the coordinates are residues and the
    scale is 1.
    """
    n = a.nrows
    rank, basis, coords = rank_and_row_basis(a, p)
    coord_rows = [[coords[i, j] for j in range(rank)] for i in range(n)]
    scale = 1
    if p is None:
        for i, row in enumerate(coord_rows):
            m = math.lcm(*(x.denominator for x in row))
            scale *= m
            coord_rows[i] = [x * m for x in row]
    b = CircuitBuilder(rank)
    outer = b.build(b.product([b.linear(LinearForm(tuple(row))) for row in coord_rows]))
    forms = tuple(LinearForm(a.rows[i]) for i in basis)
    return LowRankInput(outer, forms), rank, scale


def permanent_lowrank(a: Matrix, field=QQ):
    """Permanent of a matrix over `field` via remainder evaluation; exact,
    n^O(rank) time.  Any field works: the remainder modulo <x_i^2> keeps the
    multilinear part of the row product, evaluated at the one point (1..1)
    by `RemEvaluator.eval`, which streams the compiled levels.  Over QQ the
    rows' coordinates are scaled to integers first and the scale divided
    out at the end (see `_permanent_input`); over GF(p) the scale is 1 and
    the value is returned as is."""
    n = a.nrows
    if n != a.ncols:
        raise ValueError("permanent of non-square matrix")
    if n == 0:
        return field.one
    scalar = kernel_map(field.p)
    inp, rank, scale = _permanent_input(Matrix([list(map(scalar, row)) for row in a.rows]), field.p)
    if rank == 0:  # zero matrix; every row product vanishes
        return field.zero
    square = UnivariatePoly([0, 0, 1])
    ideal = UnivariateIdeal(tuple((i, square) for i in range(n)))
    value = RemEvaluator(inp, ideal, field).eval([1] * n)
    return value if scale == 1 else value / scale


def vc_degrees(g: Graph, k: int, tight: bool = False) -> tuple[int, int]:
    """(S, deg f) of the cover polynomial: S quadratic factors q - s and
    n - k linear factors, so deg f = 2S + n - k."""
    s_range = len(g.edges) if tight else g.n * (g.n - 1) // 2
    return s_range, 2 * s_range + (g.n - k)


def build_vc_instance(g: Graph, k: int, tight: bool = False, field=QQ):
    """Low-rank input, boolean ideal and degree bound for the cover
    polynomial, its forms over `field`: their coefficients are the
    split's coordinates, kernel scalars of modulus `field.p` (residues in
    [0, p) over GF(p)).

    With B the basis rows and C the coordinates of the adjacency matrix's
    row-basis split, A = C A[B,:]; taking columns B and using symmetry,
    A = C A[B,B] C^T.  A's diagonal is zero, so with y = C^T x,
    q = x^T A x / 2 = sum_{s<t} A[b_s,b_t] y_s y_t: the forms are the
    columns of C, rank(A) of them, plus the all-ones size form, and the
    quadratic gate has 0/1 coefficients.
    """
    n = g.n
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    s_range, deg_bound = vc_degrees(g, k, tight)
    adj = g.adjacency()  # 0/1 ints: kernel scalars of every field
    r, basis, coords = rank_and_row_basis(adj, field.p)
    forms = [LinearForm(col) for col in zip(*coords.rows)]
    forms.append(LinearForm((1,) * n))
    b = CircuitBuilder(r + 1)
    cross = [b.mul(b.input(s), b.input(t)) for s, t in combinations(range(r), 2) if adj[basis[s], basis[t]]]
    quad = b.add(*cross) if len(cross) > 1 else cross[0] if cross else b.const(0)
    factor_ids = [b.add(quad, b.const(-s)) for s in range(1, s_range + 1)]
    size_var = b.input(r)
    factor_ids += [b.add(size_var, b.const(-t)) for t in range(0, n - k)]
    outer = b.build(b.product(factor_ids))
    boolean = UnivariatePoly([0, -1, 1])
    ideal = UnivariateIdeal(tuple((i, boolean) for i in range(n)))
    return LowRankInput(outer, tuple(forms)), ideal, deg_bound


VC_PRIME = 2**61 - 1


def vertex_cover_lowrank(
    g: Graph, k: int, trials: int = 20, rng: random.Random | None = None, tight: bool = False
) -> bool:
    """Randomized decision "G has a vertex cover of size k".

    One-sided: True is always correct; a False answer is wrong with
    probability at most `division.zero_test_miss_bound(min(n, deg_bound),
    deg_bound, trials)`: the remainder is multilinear, of degree at most
    min(n, deg_bound).

    The whole test runs over GF(p) with p = VC_PRIME = 2^61 - 1: f has
    integer coefficients, and the instance over GF(p) represents f mod p, so
    the evaluator computes the remainder R_p of f mod p, the multilinear
    polynomial that agrees with f mod p on {0,1}^n.  At a 0/1 point every
    factor q - s and sum(x) - t of f is an integer of absolute value at most
    max(C(n,2), n), so when p exceeds that, f vanishes mod p at exactly the
    0/1 points where it vanishes, and R_p = 0 exactly when the exact
    remainder is.  When p also exceeds the zero test's sample-set size S
    (`division.zero_test_sample_size`), Schwartz-Zippel over GF(p) gives
    that bound.  When p is not larger than max(C(n,2), n, S), which takes
    about 1.5 * 10^8 declared vertices without `tight`, ValueError is
    raised before the instance is built.

    The evaluator is prepared once and its levels compiled once
    (`RemEvaluator.schedule`), so each of the up to `trials` points costs
    one sparse matrix-vector product per level.  The points are drawn one
    at a time from `rng`, and the test stops at the first nonzero value, so
    a YES answer usually pays the compile and one run.
    """
    rng = rng or random.Random(0)
    _, deg_bound = vc_degrees(g, k, tight)
    if VC_PRIME <= max(math.comb(g.n, 2), g.n, zero_test_sample_size(deg_bound)):
        raise ValueError(f"a graph on {g.n} vertices is too large for the zero test over GF({VC_PRIME})")
    field = GF(VC_PRIME)
    inp, ideal, _ = build_vc_instance(g, k, tight=tight, field=field)
    evaluator = RemEvaluator(inp, ideal, field)
    return random_zero_test(evaluator.schedule(), g.n, deg_bound, trials, rng, field=field)


def has_vertex_cover_brute(g: Graph, k: int) -> bool:
    """Exhaustive vertex-cover search, the oracle for the low-rank path."""
    if k >= g.n:
        return True
    for subset in combinations(range(g.n), k):
        chosen = set(subset)
        if all(u in chosen or v in chosen for u, v in g.edges):
            return True
    return False
