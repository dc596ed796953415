"""Instance generators translating combinatorial problems into ideal membership.

These are cross-validation fixtures: each generator emits a (circuit, ideal)
pair whose membership answer reproduces the source problem's answer, checkable
at micro scale by brute force.

- independent set: k variables ranging over vertex labels 1..n via
  p_i = prod_j (x_i - j); the circuit vanishes on a label tuple exactly when
  it repeats a vertex or hits an edge, so nonmembership = independent set.
- k-Lin-Eq (Ax = b over 0/1): each column contributes y^col + x^col; choosing
  the x-branch on a support set S makes the x-exponents sum the selected
  columns, and the power ideal <x_i^(b_i+1), y_i^(mu_i-b_i+1)> kills every
  monomial except those with x-exponent exactly b.
- 1-in-3 positive SAT -> k-Lin-Eq: clause rows are packed in base 4 so that
  per-clause sums (at most 3) cannot carry into the next clause's digit.
- graph coloring: f_G = prod of edge differences against <x_i^k - 1>.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .apps import Graph
from .circuits import Circuit, CircuitBuilder
from .division import UnivariateIdeal
from .poly import UnivariatePoly

__all__ = [
    "KLinEqInstance",
    "OneInThreeInstance",
    "reduce_independent_set",
    "reduce_klineq",
    "reduce_one_in_three",
    "graph_coloring_instance",
]


@dataclass(frozen=True)
class KLinEqInstance:
    """Does some 0/1 vector x satisfy A x = b?  Entries are small nonnegative ints."""

    a: tuple  # k rows, each a tuple of n ints
    b: tuple  # k ints

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise ValueError("row count mismatch")
        if self.a and any(len(r) != len(self.a[0]) for r in self.a):
            raise ValueError("ragged matrix")
        if any(x < 0 for r in self.a for x in r) or any(x < 0 for x in self.b):
            raise ValueError("entries must be nonnegative")

    @property
    def k(self) -> int:
        return len(self.a)

    @property
    def n(self) -> int:
        return len(self.a[0]) if self.a else 0


@dataclass(frozen=True)
class OneInThreeInstance:
    """Positive 3-SAT clauses; satisfaction requires exactly one true literal each."""

    v: int
    clauses: tuple  # of 3-tuples of distinct 0-based variable indices

    def __post_init__(self):
        for cl in self.clauses:
            if len(cl) != 3 or len(set(cl)) != 3:
                raise ValueError("clauses need exactly three distinct positive literals")
            if any(not 0 <= x < self.v for x in cl):
                raise ValueError("literal index out of range")


def reduce_independent_set(g: Graph, k: int):
    """Circuit f*D over k variables and ideal with k degree-n generators.

    Nonmembership holds exactly when G has an independent set of size k.
    Vertices are identified with the labels 1..n (the roots of every
    generator); D = prod over ordered pairs (x_i - x_j) rejects repeated
    labels, and each edge factor (x_i-u)^2 + (x_j-v)^2 rejects picking the
    edge (u, v) in either orientation.
    """
    n = g.n
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    gen = UnivariatePoly.from_roots(range(1, n + 1))
    ideal = UnivariateIdeal(tuple((i, gen) for i in range(k)))
    b = CircuitBuilder(k)
    xs = [b.input(i) for i in range(k)]
    factors = []
    for i in range(k):
        for j in range(i + 1, k):
            for u0, v0 in g.edges:
                for u, v in ((u0 + 1, v0 + 1), (v0 + 1, u0 + 1)):
                    du = b.add(xs[i], b.const(-u))
                    dv = b.add(xs[j], b.const(-v))
                    factors.append(b.add(b.mul(du, du), b.mul(dv, dv)))
    for i in range(k):
        for j in range(k):
            if i != j:
                factors.append(b.add(xs[i], b.mul(b.const(-1), xs[j])))
    return b.build(b.product(factors)), ideal


def reduce_klineq(inst: KLinEqInstance):
    """Product circuit over 2k variables plus its 2k-generator power ideal.

    Variables 0..k-1 are the x_i, variables k..2k-1 the y_i.  When some
    b_i exceeds the row sum mu_i the instance is trivially unsatisfiable and
    the constant-0 circuit (a member of any ideal) is returned.
    """
    k, n = inst.k, inst.n
    mu = [sum(r) for r in inst.a]
    exps = []
    for i in range(k):
        exps.append((i, inst.b[i] + 1))
        exps.append((k + i, max(mu[i] - inst.b[i] + 1, 1)))
    ideal = UnivariateIdeal(
        tuple(
            (var, UnivariatePoly([Fraction(0)] * e + [Fraction(1)]))
            for var, e in sorted(exps)
        )
    )
    b = CircuitBuilder(2 * k)
    if any(inst.b[i] > mu[i] for i in range(k)):
        return b.build(b.const(0)), ideal
    xs = [b.input(i) for i in range(k)]
    ys = [b.input(k + i) for i in range(k)]
    col_ids = []
    for col in range(n):
        xpows = [b.power(xs[i], inst.a[i][col]) for i in range(k) if inst.a[i][col]]
        ypows = [b.power(ys[i], inst.a[i][col]) for i in range(k) if inst.a[i][col]]
        col_ids.append(b.add(b.product(ypows), b.product(xpows)))
    return b.build(b.product(col_ids)), ideal


def reduce_one_in_three(inst: OneInThreeInstance, rows: int = 1) -> KLinEqInstance:
    """Pack clause constraints into `rows` base-4 digits per packed row.

    Each clause occupies one base-4 digit; a clause sum is at most 3, so sums
    can never carry into the neighbouring digit and A x = b holds exactly when
    every clause has exactly one true literal.
    """
    c = len(inst.clauses)
    if c == 0:
        return KLinEqInstance(((0,) * max(inst.v, 1),), (0,))
    if rows < 1:
        raise ValueError("need at least one packed row")
    per = -(-c // rows)  # clauses per packed row
    a = []
    b = []
    for r in range(rows):
        chunk = inst.clauses[r * per : (r + 1) * per]
        row = [0] * inst.v
        target = 0
        for t, cl in enumerate(chunk):
            digit = 4**t
            target += digit
            for lit in cl:
                row[lit] += digit
        a.append(tuple(row))
        b.append(target)
    return KLinEqInstance(tuple(a), tuple(b))


def graph_coloring_instance(g: Graph, k: int):
    """The edge-difference product against <x_i^k - 1>; membership = not k-colorable."""
    if k < 1:
        raise ValueError("need k >= 1")
    b = CircuitBuilder(g.n)
    xs = [b.input(i) for i in range(g.n)]
    factors = [
        b.add(xs[u], b.mul(b.const(-1), xs[v])) for u, v in g.edges
    ]
    coeffs = [Fraction(-1)] + [Fraction(0)] * (k - 1) + [Fraction(1)]
    gen = UnivariatePoly(coeffs)
    ideal = UnivariateIdeal(tuple((i, gen) for i in range(g.n)))
    return b.build(b.product(factors)), ideal
