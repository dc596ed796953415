"""Shared instance generators and independent oracles for the test suite.

Oracles here deliberately avoid the code paths they check: membership goes
through full expansion and monomial inspection, permanents through Ryser or
direct permutation sums, vertex cover through subset enumeration, the
characteristic polynomial through Hessenberg reduction of an explicit matrix
(checked against determinants by Gaussian elimination),
a prepared remainder evaluator's value through a sparse walk of its levels,
a circuit's value at a complex rational point through gate-by-gate
evaluation on `GaussianRational`s, a diagonal circuit through its literal
expansion, the detection circuit through Fischer's identity applied to each
coloring's product of forms (`power_decompose_product`), k-Lin-Eq and 1-in-3
SAT through enumeration of assignments.  `oracle_rem_eval` computes a low-rank
remainder with none of the engine's code: the dict-polynomial expansion and
the table division of `perfbench/oracles.py`, copied here, read the input's
gates, forms and generator coefficients as plain data.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from unideal.circuits import (
    Add,
    Circuit,
    CircuitBuilder,
    Const,
    DiagonalCircuit,
    Input,
    Mul,
    expand,
    map_scalars,
)
from unideal.division import UnivariateIdeal
from unideal.fields import _inverse, residue
from unideal.hadamard import PowerIdealSpec
from unideal.linalg import LinearForm, Matrix
from unideal.lowrank import LowRankInput
from unideal.poly import SparsePoly, UnivariatePoly

F = Fraction


def random_circuit(rng: random.Random, n: int, steps: int = 4, max_const: int = 3) -> Circuit:
    b = CircuitBuilder(n)
    ids = [b.input(i) for i in range(n)] + [b.const(F(rng.randint(-max_const, max_const)))]
    for _ in range(steps):
        x, y = rng.choice(ids), rng.choice(ids)
        ids.append(b.add(x, y) if rng.random() < 0.6 else b.mul(x, y))
    return b.build(ids[-1])


def random_circuit_capped_degree(rng: random.Random, n: int, max_deg: int, steps: int = 5) -> Circuit:
    """Random DAG whose syntactic degree never exceeds max_deg."""
    b = CircuitBuilder(n)
    ids = [b.input(i) for i in range(n)] + [b.const(F(rng.randint(-3, 3)))]
    degs = [1] * n + [0]
    for _ in range(steps):
        i, j = rng.randrange(len(ids)), rng.randrange(len(ids))
        if rng.random() < 0.5 and degs[i] + degs[j] <= max_deg:
            ids.append(b.mul(ids[i], ids[j]))
            degs.append(degs[i] + degs[j])
        else:
            ids.append(b.add(ids[i], ids[j]))
            degs.append(max(degs[i], degs[j]))
    return b.build(ids[-1])


def random_ideal(rng: random.Random, n: int, max_deg: int) -> UnivariateIdeal:
    gens = []
    for i in range(n):
        d = rng.randint(1, max_deg)
        coeffs = [F(rng.randint(-3, 3)) for _ in range(d)] + [F(rng.choice([1, -1, 2]))]
        gens.append((i, UnivariatePoly(coeffs)))
    return UnivariateIdeal(tuple(gens))


def random_forms(rng: random.Random, r: int, n: int, lo: int = -2, hi: int = 2):
    return tuple(
        LinearForm(tuple(F(rng.randint(lo, hi)) for _ in range(n))) for _ in range(r)
    )


def random_sparse(rng: random.Random, n: int, max_exp: int = 4, terms: int = 5) -> SparsePoly:
    return SparsePoly(
        n,
        {
            tuple(rng.randint(0, max_exp) for _ in range(n)): F(rng.randint(-5, 5))
            for _ in range(rng.randint(1, terms))
        },
    )


def in_field(x, p):
    """x as the engine returns a value over the field of modulus p: a
    Fraction over QQ (p None), else its residue in [0, p)."""
    return F(x) if p is None else residue(x, p)


def lift_ideal(ideal: UnivariateIdeal, p) -> UnivariateIdeal:
    return UnivariateIdeal(
        tuple((v, UnivariatePoly([in_field(c, p) for c in g.coeffs])) for v, g in ideal.generators)
    )


def lift_forms(forms, p):
    return tuple(
        LinearForm(tuple(in_field(c, p) for c in f.coeffs), in_field(f.const, p)) for f in forms
    )


def ideal_power_exponents(ideal: UnivariateIdeal):
    """Exponent list when every generator is a pure power x^e, else None."""
    out = []
    for _, p in sorted(ideal.generators):
        if any(c for c in p.coeffs[:-1]) or p.lc() != 1:
            return None
        out.append(p.degree())
    return tuple(out)


def brute_power_membership(c: Circuit, exponents) -> bool:
    """f in <x_i^e_i> iff every monomial has some exponent at or past e_i."""
    f = expand(c)
    return all(any(e[i] >= exponents[i] for i in range(len(exponents))) for e in f.terms)


def literal_scaled_hadamard(fp: SparsePoly, gp: SparsePoly, point):
    """The defining sum m! [m]f [m]g m, computed on full expansions."""
    total = F(0)
    for e, cf in fp.terms.items():
        cg = gp.terms.get(e)
        if cg:
            mfact = 1
            for x in e:
                mfact *= math.factorial(x)
            v = F(mfact) * cf * cg
            for i, x in enumerate(e):
                v *= point[i] ** x
            total += v
    return total


def diagonal_to_sparse(d: DiagonalCircuit) -> SparsePoly:
    """The literal expansion of scale * sum c_j * l_j^k, power by power."""
    out = SparsePoly.zero(d.n)
    for coef, form in d.summands:
        lin = SparsePoly(d.n, {tuple(int(j == i) for j in range(d.n)): cc for i, cc in enumerate(form.coeffs) if cc})
        out = out + (lin ** d.degree).scale(coef)
    return out.scale(d.scale)


def diagonal_evaluate(d: DiagonalCircuit, point):
    """scale * sum c_j * l_j(point)^k, summand by summand."""
    return d.scale * sum(coef * form.evaluate(point) ** d.degree for coef, form in d.summands)


def power_decompose_product(forms, k: int) -> DiagonalCircuit:
    """Degree-k homogeneous part of a product of affine forms, as powers.

    Fischer's identity

        l_1 * ... * l_m = (2^(m-1) m!)^(-1) * sum over eps in {+-1}^(m-1) of
                          (prod eps_i) (l_1 + sum_i eps_i l_{i+1})^m

    turns prod(forms) into 2^(m-1) m-th powers of affine forms; the degree-k
    part of each (t + u)^m is binom(m,k) u^(m-k) t^k.  The common factor
    binom(m,k) / (2^(m-1) m!) is the result's scale; each summand's
    coefficient is sign * u^(m-k), and all 2^(m-1) summands are kept, zero
    coefficients included.  Requires k <= m and characteristic 0 or > m.
    """
    forms = list(forms)
    m = len(forms)
    if m == 0:
        raise ValueError("need at least one form")
    if not 0 <= k <= m:
        raise ValueError("need 0 <= k <= len(forms)")
    n = forms[0].n
    scale = F(math.comb(m, k), 2 ** (m - 1) * math.factorial(m))
    summands = []
    for mask in range(2 ** (m - 1)):
        sign = 1
        lin = list(forms[0].coeffs)
        const = forms[0].const
        for i in range(m - 1):
            eps = 1 if not (mask >> i) & 1 else -1
            sign *= eps
            f = forms[i + 1]
            for j, cc in enumerate(f.coeffs):
                lin[j] = lin[j] + eps * cc
            const = const + eps * f.const
        summands.append((sign * const ** (m - k), LinearForm(tuple(lin), 0)))
    return DiagonalCircuit(n, k, tuple(summands), scale)


def reference_detection_circuit(spec: PowerIdealSpec, trials: int, rng: random.Random) -> DiagonalCircuit:
    """`hadamard.build_detection_circuit` coloring by coloring: each
    coloring's m = ceil(1.5k) affine forms 1 + (its copies of each variable)
    go through `power_decompose_product`, and the summands are concatenated
    under the common scale.  Draws from `rng` as the engine does."""
    n = spec.n
    k = spec.k
    if trials < 1:
        raise ValueError("need at least one coloring")
    if k == 0:
        return DiagonalCircuit(n, 0, ((1, LinearForm((0,) * n)),))
    if k > spec.m:
        raise ValueError("degree parameter exceeds the number of placeholder copies")
    owners = [i for i, e in enumerate(spec.exponents) for _ in range(e - 1)]
    kk = (3 * k + 1) // 2
    summands = []
    for _ in range(trials):
        counts = [[0] * n for _ in range(kk)]
        for owner in owners:
            counts[rng.randrange(kk)][owner] += 1
        forms = [LinearForm(tuple(counts[j]), 1) for j in range(kk)]
        dc = power_decompose_product(forms, k)
        summands.extend(dc.summands)
    return DiagonalCircuit(n, k, tuple(summands), dc.scale)


# The Mersenne prime the residue kernels' exact oracles are checked at: large
# enough that no value of the small test instances wraps unnoticed.
P61 = 2**61 - 1


def mod_p(x, p: int):
    """A circuit, a diagonal circuit or a point with its scalars mapped to
    residues mod p, as the residue kernels take them; a diagonal circuit
    keeps its scale, which `scaled_hadamard_eval` maps itself."""
    def r(v):
        return residue(v, p)

    if isinstance(x, Circuit):
        return map_scalars(x, r)
    if isinstance(x, DiagonalCircuit):
        summands = tuple((r(coef), LinearForm(tuple(map(r, form.coeffs)), r(form.const))) for coef, form in x.summands)
        return DiagonalCircuit(x.n, x.degree, summands, x.scale)
    return [r(v) for v in x]


def identity(n: int) -> Matrix:
    return Matrix([[F(int(i == j)) for j in range(n)] for i in range(n)])


def map_coeffs(f: SparsePoly, fn) -> SparsePoly:
    """f with every coefficient c replaced by fn(c), over f's modulus."""
    return SparsePoly(f.n, {e: fn(c) for e, c in f.terms.items()}, f.p)


def klineq_solutions(inst) -> list:
    """Every 0/1 solution x of A x = b, by enumeration (criterion 8's oracle)."""
    out = []
    for mask in range(2**inst.n):
        x = [(mask >> i) & 1 for i in range(inst.n)]
        if all(sum(r[i] * x[i] for i in range(inst.n)) == bi for r, bi in zip(inst.a, inst.b)):
            out.append(tuple(x))
    return out


def one_in_three_assignments(inst) -> list:
    """Every assignment with exactly one true literal per clause, by enumeration."""
    out = []
    for mask in range(2**inst.v):
        assign = [(mask >> i) & 1 for i in range(inst.v)]
        if all(sum(assign[x] for x in cl) == 1 for cl in inst.clauses):
            out.append(tuple(assign))
    return out


def permutation_permanent(a: Matrix):
    """Direct sum over permutations; the second independent permanent oracle."""
    import itertools

    n = a.nrows
    total = F(0)
    for perm in itertools.permutations(range(n)):
        prod = F(1)
        for i, j in enumerate(perm):
            prod *= a[i, j]
        total += prod
    return total


def random_low_rank_matrix(rng: random.Random, n: int, r: int) -> Matrix:
    u = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(r)]
    v = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(r)]
    return Matrix(
        [[sum(u[t][i] * v[t][j] for t in range(r)) for j in range(n)] for i in range(n)]
    )


def random_lowrank_instance(rng: random.Random, n_max=6, r_max=3, d_max=4):
    """Instance tuple for remainder-oracle equivalence tests, integer data."""
    n = rng.randint(1, n_max)
    r = rng.randint(1, r_max)
    outer = random_circuit_capped_degree(rng, r, d_max)
    forms = random_forms(rng, r, n)
    inp = LowRankInput(outer, forms)
    ideal = random_ideal(rng, n, d_max)
    alpha = [F(rng.randint(-4, 4)) for _ in range(n)]
    return inp, ideal, alpha


def multiset_permanent(u, v):
    """perm(U V) for U (n x r) and V (r x n), by multiset types.

    Expanding every entry of U V as sum_t U[i][t] V[t][j] and grouping the
    terms of the permutation sum by how often each t is used gives

        perm(U V) = sum over m in N^r with |m| = n of
                    prod_t m_t! * [y^m] prod_i (U_i . y) * [y^m] prod_j (V_{.j} . y),

    an integer identity, so it holds over any field.  Plain dicts of
    exponent tuples over the entries' own numbers, sharing no code with the
    package: O(n * C(n+r-1, r-1) * r) operations where Ryser needs 2^n.
    """
    n, r = len(u), len(v)

    def product_of_forms(rows):
        poly = {(0,) * r: 1}
        for row in rows:
            nxt = {}
            for e, c in poly.items():
                for t, a in enumerate(row):
                    if a:
                        e2 = e[:t] + (e[t] + 1,) + e[t + 1 :]
                        nxt[e2] = nxt.get(e2, 0) + c * a
            poly = nxt
        return poly

    left = product_of_forms(u)
    right = product_of_forms([[v[t][j] for t in range(r)] for j in range(n)])
    total = 0
    for m, c in left.items():
        if m in right:
            term = c * right[m]
            for k in m:
                term *= math.factorial(k)
            total += term
    return total


def det(m: Matrix):
    """det(M) by Gaussian elimination, each pivot inverted exactly once."""
    n = m.nrows
    if n != m.ncols:
        raise ValueError("determinant of non-square matrix")
    a = [list(r) for r in m.rows]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = det * a[col][col]
        inv = _inverse(a[col][col])
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def charpoly(m: Matrix) -> SparsePoly:
    """det(w*I - M), a monic SparsePoly in the one variable w, by exact
    Hessenberg reduction plus the minor recurrence.  M holds ints and Fractions.
    """
    n = m.nrows
    if n != m.ncols:
        raise ValueError("characteristic polynomial of non-square matrix")
    h = [list(r) for r in m.rows]
    for col in range(n - 2):
        piv = next((r for r in range(col + 1, n) if h[r][col]), None)
        if piv is None:
            continue
        if piv != col + 1:
            h[col + 1], h[piv] = h[piv], h[col + 1]
            for r in range(n):
                h[r][col + 1], h[r][piv] = h[r][piv], h[r][col + 1]
        inv = _inverse(h[col + 1][col])
        for r in range(col + 2, n):
            if h[r][col]:
                f = h[r][col] * inv
                h[r] = [x - f * y for x, y in zip(h[r], h[col + 1])]
                for t in range(n):
                    h[t][col + 1] = h[t][col + 1] + f * h[t][r]
    # p_m(w) = (w - h[m][m]) p_{m-1} - sum_i h[i][m] (prod subdiag) p_{i-1}
    w = SparsePoly.variable(1, 0)
    ps = [SparsePoly.const(1, 1)]
    for mm in range(n):
        p = ps[mm].mul(w) - ps[mm].scale(h[mm][mm])
        prod = 1
        for i in range(mm - 1, -1, -1):
            prod = prod * h[i + 1][i]
            if h[i][mm] and prod:
                p = p - ps[i].scale(h[i][mm] * prod)
        ps.append(p)
    return ps[n]


def walk_eval(ev, alpha):
    """(f mod I)(alpha) for a prepared `RemEvaluator`, walking its levels sparsely.

    Each level composes the incoming polynomial with the level's hats by
    Horner's rule, reducing after every product, then substitutes the
    point's consumed coordinates.  The reference for the compiled levels: it
    shares the evaluator's split (hats, reducers, level-0 expansion) but
    neither its compile nor its run, and it multiplies with `SparsePoly.mul`
    and reduces with `_Reducer.reduce`, never with the fused `_Reducer.mul`.
    """
    if len(alpha) != ev.inp.n:
        raise ValueError("point length mismatch")
    alpha = [ev._scalar(x) for x in alpha]
    g = ev._base
    for idx, lvl in enumerate(ev.levels):
        if idx:
            g = _compose_reduced(g, lvl)
        g = _substitute_prefix(g, lvl.s, alpha[lvl.offset : lvl.offset + lvl.s])
    if g.n != 0:
        raise AssertionError("recursion left live variables")
    return in_field(g.terms.get((), 0), ev.p)


def _compose_reduced(g: SparsePoly, lvl) -> SparsePoly:
    """g(hat_1, ..., hat_m) reduced by the level's generators, by Horner's
    rule in the last variable."""
    m, p, w = g.n, g.p, lvl.w
    if m == 0:
        return SparsePoly(w, {(0,) * w: c for c in g.terms.values()}, p)
    h = lvl.hats[m - 1]
    slices = {}
    for e, c in g.terms.items():
        slices.setdefault(e[-1], {})[e[:-1]] = c
    result = SparsePoly(w, {}, p)
    for k in range(max(slices, default=-1), -1, -1):
        result = lvl.reducer.reduce(result.mul(h))
        if k in slices:
            result = result + _compose_reduced(SparsePoly(m - 1, slices[k], p), lvl)
    return result


def _substitute_prefix(g: SparsePoly, s: int, values) -> SparsePoly:
    """Variables 0..s-1 of g at `values`; the others become variables 0.."""
    p = g.p
    out = {}
    for e, c in g.terms.items():
        for x, k in zip(values, e):
            if k:
                c = c * pow(x, k, p)
        out[e[s:]] = out.get(e[s:], 0) + c
    return SparsePoly(g.n - s, out, p)


@dataclass(frozen=True)
class GaussianRational:
    """a + b*i with exact rational a, b; combines with ints and Fractions."""

    re: Fraction
    im: Fraction = Fraction(0)

    @staticmethod
    def of(x) -> "GaussianRational":
        return x if isinstance(x, GaussianRational) else GaussianRational(Fraction(x))

    def __add__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -GaussianRational.of(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __pow__(self, e: int):
        out = GaussianRational(Fraction(1))
        for _ in range(e):
            out = out * self
        return out

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im


def circuit_abs2(c: Circuit, point) -> Fraction:
    """|c(z)|^2 at a point of GaussianRationals or (re, im) pairs, by `Circuit.evaluate`."""
    z = [x if isinstance(x, GaussianRational) else GaussianRational(*map(Fraction, x)) for x in point]
    return GaussianRational.of(c.evaluate(z)).abs2()


# --- a remainder oracle that shares no code with unideal ---------------------
# `_padd`, `_pmul` and `remainder` are copied from perfbench/oracles.py, which
# imports nothing from unideal; `oracle_expand` is its `expand` over the gates
# of a `LowRankInput`, each input variable standing for its linear form.


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def oracle_expand(inp: LowRankInput) -> dict:
    """outer(l_1, ..., l_r) over the x variables as {exponent tuple: Fraction}."""
    n = inp.n
    zero = (0,) * n

    def affine(coeffs, const, images) -> dict:
        acc = {zero: Fraction(const)} if const else {}
        for c, image in zip(coeffs, images):
            if c:
                acc = _padd(acc, {e: Fraction(c) * v for e, v in image.items()})
        return acc

    units = [{tuple(int(i == j) for i in range(n)): Fraction(1)} for j in range(n)]
    forms = [affine(f.coeffs, f.const, units) for f in inp.forms]
    vals: list = []
    for node in inp.outer.nodes:
        if isinstance(node, Input):
            vals.append(forms[node.var])
        elif isinstance(node, Const):
            vals.append({zero: Fraction(node.value)} if node.value else {})
        elif isinstance(node, (Add, Mul)):
            op = _padd if isinstance(node, Add) else _pmul
            acc = vals[node.children[0]]
            for i in node.children[1:]:
                acc = op(acc, vals[i])
            vals.append(acc)
        else:  # a linear gate over the forms
            vals.append(affine(node.form.coeffs, node.form.const, forms))
    return vals[inp.outer.out]


def remainder(f: dict, gens: dict) -> dict:
    """f mod <p_v(x_v)>, with gens[v] the coefficients of p_v, low to high.

    Rewrites x_v^e, e >= deg p_v, through a table of x^e mod p_v built by
    repeated multiplication by x; the result is the unique reduced remainder.
    """
    tables = {}
    for v, p in gens.items():
        d = len(p) - 1
        if d < 1:
            raise ValueError("constant generator")
        top = max((e[v] for e in f), default=0)
        table = []
        cur = [Fraction(0)] * d
        cur[0] = Fraction(1)
        for _ in range(top + 1):
            table.append(cur)
            lead = cur[-1]
            cur = [Fraction(0)] + cur[:-1]
            if lead:
                cur = [a - lead * Fraction(b) / Fraction(p[-1]) for a, b in zip(cur, p[:-1])]
        tables[v] = table
    out: dict = {}
    for e, c in f.items():
        terms = {e: Fraction(c)}
        for v, table in tables.items():
            nxt: dict = {}
            for ee, cc in terms.items():
                for j, t in enumerate(table[ee[v]]):
                    if t:
                        e2 = ee[:v] + (j,) + ee[v + 1 :]
                        nxt[e2] = nxt.get(e2, 0) + cc * t
            terms = nxt
        out = _padd(out, {e2: c2 for e2, c2 in terms.items() if c2})
    return out


def oracle_rem_eval(inp: LowRankInput, ideal: UnivariateIdeal, alpha) -> Fraction:
    """(f mod I)(alpha) over QQ by full expansion and table division."""
    gens = {v: list(g.coeffs) for v, g in ideal.generators if v < inp.n}
    total = Fraction(0)
    for e, c in remainder(oracle_expand(inp), gens).items():
        for x, k in zip(alpha, e):
            c *= Fraction(x) ** k
        total += c
    return total
