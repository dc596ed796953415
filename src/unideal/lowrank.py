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
     consumed variables after every product so intermediate term counts stay
     inside the (d+1)^(2r) budget,
  3. substitute alpha for the consumed variables,
  4. recurse on the surviving fresh variables, which stand for the
     independent rest-forms, against the ideal on the remaining variables.

The per-level splits and the first level's expansion do not depend on alpha,
so `RemEvaluator` computes them once (the splits in O(r^2 n + depth r^3)
scalar operations) and each `eval` runs steps 2-4 from the second level on;
`rem_eval` is the one-shot wrapper.

The evaluator works over the field the caller states, QQ or GF(p).  Every
input scalar is mapped into it once, at construction, and the split (step 1)
runs on field scalars.  Over GF(p) its output, the level-0 expansion and the
reducers are plain-int residues, and every `eval` walks on residue
polynomials (see `poly.SparsePoly`).  Over QQ the walk holds every integral
scalar as a Python int (the outer circuit's scalars, the hats, the reducers'
fold rows and the point) and only the others as Fractions, so an integral
input with monic generators walks on ints alone.  Each product in the walk
is a reduced polynomial times an affine form, formed and reduced in one
pass by `division._Reducer.mul_affine`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .circuits import Add, Circuit, CircuitBuilder, Const, Input, Mul, expand, map_scalars
from .division import UnivariateIdeal, _Reducer
from .fields import QQ, residue
from .linalg import LinearForm, Matrix, rank_and_row_basis, suffix_pivots
from .poly import SparsePoly, _add_into, _integral

__all__ = ["LowRankInput", "rem_eval", "RemEvaluator", "inline_forms"]


@dataclass(frozen=True)
class LowRankInput:
    """outer(z_1..z_r) composed with r linear forms over the ambient variables."""

    outer: Circuit
    forms: tuple
    degree_bound: int

    def __post_init__(self):
        if self.outer.n != len(self.forms):
            raise ValueError("outer circuit arity must match the number of forms")
        if self.forms:
            n = self.forms[0].n
            if any(f.n != n for f in self.forms):
                raise ValueError("forms must share one variable count")
        if self.degree_bound < 0:
            raise ValueError("negative degree bound")

    @property
    def n(self) -> int:
        return self.forms[0].n if self.forms else 0


@dataclass
class _Level:
    offset: int          # first global variable consumed at this level
    s: int               # number of consumed variables
    w: int               # local variable count: s + r'
    hats: list           # per incoming z variable, a SparsePoly over w vars
    reducer: _Reducer    # reduction by the consumed generators (local indices)
    residual_rows: tuple # the r' input rows whose tails past the consumed
                         # variables are the next level's forms


class RemEvaluator:
    """Prepared remainder evaluator for one (low-rank input, ideal) pair.

    Construction eliminates the form coefficients once, from the last column
    to the first, then splits the forms level by level, each level on the at
    most r pivot columns past its consumed variables: O(r^2 n + depth r^3)
    scalar operations in all.  It then expands the outer circuit over the
    first level's local variables with interleaved reduction.  Each `eval`
    walks the levels: compose with the level's local forms, multiplying by
    one affine hat and reducing in one pass per Horner step, then substitute
    the point's consumed coordinates.  Every product is capped at
    (d+1)^(2r) terms.

    `field` is QQ (the default) or a `fields.GF(p)`.  Every scalar of the
    input (form coefficients and constants, generator coefficients, and the
    outer circuit's constants and linear-gate coefficients) is mapped into it
    here, so a scalar with no image there (a `Mod` under QQ, another
    modulus, a denominator that vanishes mod p) or a generator leading
    coefficient that vanishes mod p raises FieldMismatch.  Over GF(p) the
    levels, the reducers and the expansion are residues and `eval` returns a
    `Mod`; over QQ they hold integral scalars as ints, the point is mapped
    the same way, and `eval` returns the exact value as a Fraction.
    """

    def __init__(self, inp: LowRankInput, ideal: UnivariateIdeal, field=QQ):
        self.field = field
        self.p = field.p
        self._scalar = scalar = _walk_scalar(field)
        # The outer circuit goes straight to the expansion's scalars.
        outer = map_scalars(inp.outer, scalar)
        forms = tuple(LinearForm(tuple(map(field, f.coeffs)), field(f.const)) for f in inp.forms)
        self.inp = inp = LowRankInput(outer, forms, inp.degree_bound)
        self.ideal = ideal = ideal.over(field)
        n = inp.n
        support = set()
        for f in inp.forms:
            for j, c in enumerate(f.coeffs):
                if c:
                    support.add(j)
        gens = {v: p for v, p in ideal.generators}
        missing = sorted(v for v in support if v not in gens)
        if missing:
            raise ValueError(f"no generator for live variables {missing}")
        gen_deg = max((p.degree() for _, p in ideal.generators), default=0)
        d = max(inp.degree_bound, gen_deg)
        r = len(inp.forms)
        self.cap = (d + 1) ** (2 * r)
        self.levels: list[_Level] = []
        # Every level's forms are tails of a subset of the input rows, so one
        # elimination of the whole coefficient matrix serves all levels.
        pivots = suffix_pivots(Matrix([f.coeffs for f in inp.forms]))
        rows = tuple(range(r))
        offset = 0
        while rows and n - offset > 0:
            level = self._prepare_level(rows, offset, gens, pivots)
            self.levels.append(level)
            rows = level.residual_rows
            offset += level.s
        self.depth = len(self.levels)
        # The alpha-independent part of the walk.  Without levels there are no
        # x variables: every form is a constant, and so is the expansion.
        if self.levels:
            lvl = self.levels[0]
            self._base = expand(inp.outer, self.cap, lvl.hats, lvl.reducer)
        else:
            images = [SparsePoly.const(0, scalar(f.const), self.p) for f in inp.forms]
            self._base = expand(inp.outer, self.cap, images)

    def _prepare_level(self, rows, offset: int, gens, pivots) -> _Level:
        """Split the tails from `offset` of the input rows `rows`.

        The rest-forms are solved on the `pivots` past the consumed
        variables, at most r columns, which give the same rank, basis rows and
        coordinates as the whole tail (see `linalg.suffix_pivots`).
        """
        forms = self.inp.forms
        s = min(len(rows), self.inp.n - offset)
        cols = pivots[bisect_left(pivots, offset + s):]
        rests = Matrix([[forms[i].coeffs[j] for j in cols] for i in rows])
        rank, basis, coords = rank_and_row_basis(rests)
        # The basis is the first maximal independent subset of the rows: its
        # t-th member is the first row after the (t-1)-th one that equals it.
        residual_rows = []
        for i, row in zip(rows, rests.rows):
            if len(residual_rows) < rank and row == basis[len(residual_rows)].coeffs:
                residual_rows.append(i)
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
                    terms[tuple(e)] = scalar(c)
            for j in range(rank):
                g = coords[k, j]
                if g:
                    e = [0] * w
                    e[s + j] = 1
                    terms[tuple(e)] = scalar(g)
            # Only the input forms carry constants; deeper ones are rests.
            if offset == 0 and f.const:
                terms[(0,) * w] = scalar(f.const)
            hats.append(SparsePoly(w, terms, self.p))
        local_gens = {}
        for j in range(s):
            p = gens.get(offset + j)
            if p is not None:
                local_gens[j] = p
        reducer = _Reducer(UnivariateIdeal.from_dict(local_gens), self.p)
        for h in range(len(hats)):
            hats[h] = reducer.reduce(hats[h])
        return _Level(offset, s, w, hats, reducer, tuple(residual_rows))

    def eval(self, alpha):
        """(f mod I)(alpha), exactly over QQ, as a `Mod` over GF(p)."""
        if len(alpha) != self.inp.n:
            raise ValueError("point length mismatch")
        alpha = [self._scalar(x) for x in alpha]
        g = self._base
        for idx, lvl in enumerate(self.levels):
            if idx > 0:
                g = _compose_reduced(g, lvl.hats, lvl.w, lvl.reducer, self.cap)
            g = g.substitute_prefix(lvl.s, alpha[lvl.offset : lvl.offset + lvl.s])
        if g.n != 0:
            raise AssertionError("recursion left live variables")
        return self.field(g.terms.get((), 0))


def _walk_scalar(field):
    """How the walk holds a scalar of `field`: as its residue over GF(p); over
    QQ as an int when it is integral, else as a Fraction."""
    if field.p is not None:
        return partial(residue, p=field.p)
    return lambda x: _integral(field(x))


def _compose_reduced(g: SparsePoly, hats, w: int, reducer, cap: int) -> SparsePoly:
    """g(hat_1, ..., hat_m) with reduction interleaved (Horner per variable);
    each step multiplies a reduced polynomial by an affine hat and adds the
    next slice into the product in place."""
    m, p = g.n, g.p
    if m == 0:
        c = g.terms.get(())
        return SparsePoly.raw(w, {} if c is None else {(0,) * w: c}, p)
    h = hats[m - 1]
    slices: dict[int, dict] = {}
    for e, c in g.terms.items():
        slices.setdefault(e[m - 1], {})[e[:-1]] = c
    result = SparsePoly.zero(w, p)
    for e in range(max(slices, default=-1), -1, -1):
        result = reducer.mul_affine(result, h, cap)  # a fresh dict
        if e in slices:
            part = _compose_reduced(SparsePoly.raw(m - 1, slices[e], p), hats, w, reducer, cap)
            _add_into(result.terms, part.terms, p)
    return result


def rem_eval(inp: LowRankInput, ideal: UnivariateIdeal, alpha, field=QQ):
    """Evaluate the unique remainder of the composed polynomial at alpha.

    Equal to divide(expand(f), ideal) evaluated at alpha, in time
    d^O(r) * poly(n) instead of the cost of the full expansion; over `field`.
    """
    return RemEvaluator(inp, ideal, field).eval(alpha)


def inline_forms(inp: LowRankInput) -> Circuit:
    """The composed polynomial as an ordinary circuit over the x variables.

    Used by oracles and the CLI; linear outer gates fold into linear x gates.
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
