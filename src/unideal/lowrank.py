"""Remainder evaluation for polynomials that live in few linear forms.

A rank-r input is an outer circuit over formal variables z_1..z_r plus r
linear forms over x_1..x_n; the represented polynomial is f = outer(l_1..l_r).
`rem_eval` computes (f mod I)(alpha) for a univariate ideal I without ever
touching more than 2r variables at a time:

  1. split each form l_i into its part over the first s = min(r, n) variables
     and the homogeneous rest; pick a maximal independent subset of the rests
     (size r') and treat those as fresh variables.  The rests at every level
     are tails of input forms, so one right-to-left elimination of the input
     coefficients (`linalg.suffix_pivots`) finds, for every level, at most r
     columns on which the rests have the same linear dependencies as on all
     their columns; each level solves its split there, in O(r^3),
  2. write the polynomial over the s + r' local variables: at the first level
     expand the outer circuit, deeper down compose the previous level's
     polynomial with the local forms, reducing by the generators of the
     consumed variables after every product,
  3. substitute alpha for the consumed variables,
  4. recurse on the surviving fresh variables, which stand for the
     independent rest-forms, against the ideal on the remaining variables.

Only step 3 reads alpha.  The per-level splits and the first level's
expansion are computed once by `RemEvaluator` (the splits in
O(r^2 n + depth r^3) scalar operations), and the composition of step 2 is
linear in the incoming polynomial, so it is a fixed matrix per level.  Steps
2-4 run one way: each level is compiled into that matrix, on supports
computed without cancellation, and a point costs one sparse matrix-vector
product per level.  `RemEvaluator.schedule()` keeps every compiled level for
the zero tests (`vc`, `member --mode lowrank`), which evaluate one evaluator
at up to 20 points; `RemEvaluator.eval` streams them for one point, compiling
a level, applying it and dropping it, so one-point callers (`rem_eval`,
`apps.permanent_lowrank`) hold one level at a time.

`rem_eval` is the one-shot wrapper.

A field is its modulus p, None for QQ (see `fields`), and the evaluator,
like every kernel under it, takes p.  Every input scalar is mapped into the
field once, at construction, by `fields.kernel_map(p)`: `rational` over QQ
(an int when integral, else a Fraction), `residue` over GF(p).  That covers
the form coefficients the split (step 1) eliminates, the generator
coefficients (in the evaluator's `division._Reducer`), the outer circuit's
scalars and the point; the hats and the fold rows are computed from them.
An input read by `io` holds its integers as ints already, so an integer
instance with monic generators builds a Fraction only where the split
divides by a pivot other than 1 or -1.  Each level's entries are then
cleared to integers by the lcm of their denominators, so a point with
integer coordinates runs on ints, and the value comes back as a Fraction.
Over GF(p) the split runs on plain-int residues, and so do the level-0
expansion, the fold rows and the compiled levels (see `poly.SparsePoly`
and `linalg`); the value comes back as an int in [0, p).  All levels share
the fold rows of one `division._Reducer`, built once per evaluator.
Each product that builds a column is a reduced polynomial times an affine
form, and each product of the level-0 expansion is one by a factor of
degree at most 2; both are formed and reduced in shift-and-fold passes by
`division._Reducer.mul`.

No term cap or declared degree bound is needed: a level's polynomials are
reduced over its w <= 2r variables, and an unreduced product of two of them
has degree D at most its gate's syntactic degree (`expand` skips gates the
output does not reach), so at most C(D + w, w) <= (d+1)^(2r) terms, d the
larger of the outer circuit's syntactic degree and the generators' degrees.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import mul

from .circuits import Add, Circuit, CircuitBuilder, Const, Input, Mul, expand, map_scalars
from .division import UnivariateIdeal, _Reducer
from .fields import kernel_map, rational
from .linalg import LinearForm, Matrix, rank_and_row_basis, suffix_pivots
from .poly import SparsePoly

__all__ = ["LowRankInput", "rem_eval", "RemEvaluator", "inline_forms"]


@dataclass(frozen=True)
class LowRankInput:
    """outer(z_1..z_r) composed with r linear forms over the ambient variables."""

    outer: Circuit
    forms: tuple

    def __post_init__(self):
        if self.outer.n != len(self.forms):
            raise ValueError("outer circuit arity must match the number of forms")
        if self.forms:
            n = self.forms[0].n
            if any(f.n != n for f in self.forms):
                raise ValueError("forms must share one variable count")

    @property
    def n(self) -> int:
        return self.forms[0].n if self.forms else 0


@dataclass
class _Level:
    offset: int          # first global variable consumed at this level
    s: int               # number of consumed variables
    w: int               # local variable count: s + r'
    hats: list           # per incoming z variable, a SparsePoly over w vars
    reducer: _Reducer    # reduction by the consumed generators (local
                         # indices): a window of the evaluator's reducer
    residual_rows: tuple # the r' input rows whose tails past the consumed
                         # variables are the next level's forms


class RemEvaluator:
    """Prepared remainder evaluator for one (low-rank input, ideal) pair.

    Construction eliminates the form coefficients once, from the last column
    to the first, then splits the forms level by level, each level on the at
    most r pivot columns past its consumed variables: O(r^2 n + depth r^3)
    scalar operations in all.  It then expands the outer circuit over the
    first level's local variables with interleaved reduction.  A level's
    compose-and-reduce does not depend on the point, so it compiles into a
    fixed sparse matrix (`_compile`), and a point is one product per level
    (`_run`).  `eval` compiles the levels for one point and drops each once
    applied; `schedule` compiles them once and keeps them for many points.
    No product is capped; the module docstring bounds each by (d+1)^(2r).

    The field is the modulus `p`: None (the default) for QQ, else a prime,
    and a composite p raises ValueError.  Every scalar of the input (form
    coefficients and constants, generator coefficients, and the outer
    circuit's constants and linear-gate coefficients) is mapped into it
    here, so a denominator that vanishes mod p, or a generator leading
    coefficient that vanishes there, raises FieldMismatch.  Over GF(p) the
    split, the levels, the reducers and the expansion are residues and
    `eval` (and the schedule) return an int in [0, p); over QQ they hold
    integral scalars as ints, the point is mapped the same way, and the
    exact value comes back as a Fraction.
    """

    def __init__(self, inp: LowRankInput, ideal: UnivariateIdeal, p: int | None = None):
        self.p = p
        self._scalar = scalar = kernel_map(p)
        outer = map_scalars(inp.outer, scalar)
        forms = tuple(LinearForm(tuple(map(scalar, f.coeffs)), scalar(f.const)) for f in inp.forms)
        self.inp = inp = LowRankInput(outer, forms)
        n = inp.n
        support = set()
        for f in inp.forms:
            for j, c in enumerate(f.coeffs):
                if c:
                    support.add(j)
        gens = {v for v, _ in ideal.generators}
        missing = sorted(v for v in support if v not in gens)
        if missing:
            raise ValueError(f"no generator for live variables {missing}")
        r = len(inp.forms)
        self.levels: list[_Level] = []
        # Every level's forms are tails of a subset of the input rows, so one
        # elimination of the whole coefficient matrix serves all levels, and
        # every level reduces by the rows of one reducer.
        pivots = suffix_pivots(Matrix([f.coeffs for f in inp.forms]), self.p)
        reducer = _Reducer(ideal, self.p)
        rows = tuple(range(r))
        offset = 0
        while rows and n - offset > 0:
            level = self._prepare_level(rows, offset, reducer, pivots)
            self.levels.append(level)
            rows = level.residual_rows
            offset += level.s
        self.depth = len(self.levels)
        # Level 0's one column.  Without levels there are no x variables:
        # every form is a constant, and so is the expansion.
        if self.levels:
            lvl = self.levels[0]
            self._base = expand(inp.outer, None, lvl.hats, lvl.reducer)
        else:
            images = [SparsePoly.const(0, f.const, self.p) for f in inp.forms]
            self._base = expand(inp.outer, None, images)

    def _prepare_level(self, rows, offset: int, reducer: _Reducer, pivots) -> _Level:
        """Split the tails from `offset` of the input rows `rows`.

        The rest-forms are solved on the `pivots` past the consumed
        variables, at most r columns, which give the same rank, basis rows and
        coordinates as the whole tail (see `linalg.suffix_pivots`).
        """
        forms = self.inp.forms
        s = min(len(rows), self.inp.n - offset)
        cols = pivots[bisect_left(pivots, offset + s):]
        rests = Matrix([[forms[i].coeffs[j] for j in cols] for i in rows])
        rank, basis, coords = rank_and_row_basis(rests, self.p)
        w = s + rank
        scalar = self._scalar
        hats = []
        for k, i in enumerate(rows):
            f = forms[i]
            terms = {}
            for j in range(s):
                c = f.coeffs[offset + j]
                if c:
                    e = [0] * w
                    e[j] = 1
                    terms[tuple(e)] = c
            for j in range(rank):
                g = coords[k, j]
                if g:
                    e = [0] * w
                    e[s + j] = 1
                    terms[tuple(e)] = scalar(g)
            # Only the input forms carry constants; deeper ones are rests.
            if offset == 0 and f.const:
                terms[(0,) * w] = f.const
            hats.append(SparsePoly.raw(w, terms, self.p))
        reducer = reducer.window(offset, s)
        for h in range(len(hats)):
            hats[h] = reducer.reduce(hats[h])
        return _Level(offset, s, w, hats, reducer, tuple(rows[t] for t in basis))

    def eval(self, alpha):
        """(f mod I)(alpha): a Fraction over QQ, an int in [0, p) over GF(p).

        Streams the levels: each is compiled, applied to the point and
        dropped before the next is compiled, so a one-point caller holds one
        level's matrix at a time.
        """
        return self._run(self._compile(), alpha)

    def schedule(self):
        """Compile every level once; returns alpha -> (f mod I)(alpha) as `eval`.

        For callers that evaluate one evaluator at many points (the zero
        tests): the compiled levels are kept, so each point costs one sparse
        matrix-vector product per level.
        """
        return partial(self._run, list(self._compile()))

    def _compile(self):
        """Yield the levels' matrices in order, each compiled when asked for.

        Only the substitution of alpha depends on the point.  Each level
        composes its incoming polynomial, sum_a v[a] z^a, with the hats, and
        reduction is linear, so the level is a fixed matrix: column a is
        reduce(prod_j hat_j^a_j) (`_columns`).  The incoming monomials a are
        the tails that any column of the previous level can leave (no
        cancellation is assumed, so they serve every point), and the rows are
        the output monomials, each a (consumed exponents, tail) pair.  Level 0
        composes nothing: its one column is the expansion.  Constant forms
        have no levels, and the expansion, over no variables, is the value:
        it compiles as one level that consumes nothing.  No level's columns
        outlive its compile.

        A level holds at most C(D + r, r) * C(D + 2r, 2r) entries, D the
        outer circuit's syntactic degree: its incoming monomials have degree
        at most D in r' <= r variables, and each column is a reduced
        polynomial of degree at most D in w <= 2r variables.  With at most n
        levels, that is the d^O(r) * poly(n) of `rem_eval`.
        """
        exact = self.p is None
        level, support = _compile_level([self._base], 0, self.levels[0].s if self.levels else 0, exact)
        yield level
        for lvl in self.levels[1:]:
            level, support = _compile_level(_columns(lvl, support), lvl.offset, lvl.s, exact)
            yield level
        if any(support):
            raise AssertionError("recursion left live variables")

    def _run(self, levels, alpha):
        """Apply the compiled `levels` in order to the point `alpha`.

        A level costs one sparse product, reduced mod p once per tail, and
        the consumed powers of alpha.  Over QQ each level's entries were
        cleared to integers by a scale (see `_compile_level`), so the
        product of the scales is divided out once at the end, and a point
        with integer coordinates runs on ints.
        """
        if len(alpha) != self.inp.n:
            raise ValueError("point length mismatch")
        p = self.p
        alpha = [self._scalar(x) for x in alpha]
        v = [1]
        total = 1  # the product of the scales
        for offset, s, consumed, rows, ntails, scale in levels:
            pts = alpha[offset : offset + s]
            monos = []
            for c in consumed:
                m = 1
                for x, k in zip(pts, c):
                    if k:
                        m *= pow(x, k, p)
                monos.append(m if p is None else m % p)
            out = [0] * ntails
            get = v.__getitem__
            for ci, ti, srcs, coeffs in rows:
                out[ti] += sum(map(mul, coeffs, map(get, srcs))) * monos[ci]
            v = out if p is None else [x % p for x in out]
            total *= scale
        value = v[0] if v else 0
        return Fraction(value, total) if p is None else value


def _compile_level(cols, offset: int, s: int, exact: bool):
    """One level's matrix from its columns, and its tails.

    The matrix is (offset, s, consumed exponents, rows, tail count, scale);
    a row (consumed index, tail index, sources, coefficients) is one output
    monomial.  Entries are grouped by their full exponent, which is split
    into its consumed part and its tail once.  Over QQ any denominator in
    the entries (fractional forms or outer circuit, non-monic generators)
    is cleared by the lcm of the entries' denominators, the level's scale;
    it multiplies the level's output by a constant.  The tails, in row
    order, are the next level's incoming monomials.
    """
    by_exp: dict = {}
    types = set()
    for a, col in enumerate(cols):
        terms = col.terms
        if exact:
            types.update(map(type, terms.values()))
        for e, c in terms.items():
            by_exp.setdefault(e, []).append((a, c))
    scale = 1
    if exact and not types <= {int}:
        scale = math.lcm(*(c.denominator for row in by_exp.values() for _, c in row))
    consumed: dict = {}
    tails: dict = {}
    rows = []
    for e, row in by_exp.items():
        srcs, coeffs = zip(*row)
        if scale != 1:
            coeffs = tuple(rational(c * scale) for c in coeffs)
        rows.append((consumed.setdefault(e[:s], len(consumed)), tails.setdefault(e[s:], len(tails)), srcs, coeffs))
    return (offset, s, list(consumed), rows, len(tails), scale), list(tails)


def _columns(lvl: _Level, support):
    """The columns reduce(prod_j hat_j^a_j) of one level, for the incoming
    monomials a in `support`.

    Column a is column a - e_j (j the last variable of a) times hat_j, one
    fused `_Reducer.mul` each, memoised down to the constant 1.
    """
    hats, reducer = lvl.hats, lvl.reducer
    memo = {(0,) * len(hats): SparsePoly.raw(lvl.w, {(0,) * lvl.w: 1}, reducer.p)}
    cols = []
    for a in support:
        chain = []
        while a not in memo:
            j = max(i for i, k in enumerate(a) if k)
            chain.append((a, j))
            a = a[:j] + (a[j] - 1,) + a[j + 1 :]
        col = memo[a]
        for b, j in reversed(chain):
            col = memo[b] = reducer.mul(col, hats[j])
        cols.append(col)
    return cols


def rem_eval(inp: LowRankInput, ideal: UnivariateIdeal, alpha, p: int | None = None):
    """Evaluate the unique remainder of the composed polynomial at alpha.

    Equal to divide(expand(f), ideal) evaluated at alpha, in time
    d^O(r) * poly(n) instead of the cost of the full expansion; over QQ when
    p is None, else over GF(p) (see `RemEvaluator`).
    """
    return RemEvaluator(inp, ideal, p).eval(alpha)


def inline_forms(inp: LowRankInput) -> Circuit:
    """The composed polynomial as an ordinary circuit over the x variables.

    The brute-force oracles of `selftest` and the tests expand it; linear
    outer gates fold into linear x gates.
    """
    n = inp.n
    b = CircuitBuilder(n)
    form_ids = [b.linear(f) for f in inp.forms]
    remap = {}
    for i, node in enumerate(inp.outer.nodes):
        if isinstance(node, Input):
            remap[i] = form_ids[node.var]
        elif isinstance(node, Const):
            remap[i] = b.const(node.value)
        elif isinstance(node, Add):
            remap[i] = b.add(*[remap[ch] for ch in node.children])
        elif isinstance(node, Mul):
            remap[i] = b.mul(*[remap[ch] for ch in node.children])
        else:
            coeffs = [Fraction(0)] * n
            const = node.form.const
            for zi, cz in enumerate(node.form.coeffs):
                if cz:
                    f = inp.forms[zi]
                    coeffs = [a + cz * fc for a, fc in zip(coeffs, f.coeffs)]
                    const = const + cz * f.const
            remap[i] = b.linear(LinearForm(tuple(coeffs), const))
    return b.build(remap[inp.outer.out])
