"""Division modulo ideals generated by univariate polynomials.

Because each generator involves a single distinct variable, the leading
monomials are pairwise coprime, the generators form a Groebner basis, and the
remainder is unique no matter in which order the variables are reduced.  The
reducer processes variables in ascending index order and caches the table of
x^e mod p(x) per variable, which is all the structure the rest of the package
needs: `divide` is the brute-force oracle that every fast path is tested
against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .circuits import Circuit, expand
from .fields import GF, QQ, FieldMismatch, _inverse
from .poly import SparsePoly, UnivariatePoly, _acc, _integral, _mod_terms, _same_modulus

__all__ = [
    "UnivariateIdeal",
    "power_table",
    "divide",
    "is_member_brute",
    "random_zero_test",
]


@dataclass(frozen=True)
class UnivariateIdeal:
    """<p_1(x_{v_1}), ..., p_m(x_{v_m})> with at most one generator per variable."""

    generators: tuple  # of (var index, UnivariatePoly)

    def __post_init__(self):
        seen = set()
        for var, p in self.generators:
            if var < 0:
                raise ValueError("negative variable index")
            if var in seen:
                raise ValueError(f"two generators for variable {var}")
            if p.degree() < 1:
                raise ValueError("generators must be nonconstant")
            seen.add(var)

    @classmethod
    def from_dict(cls, gens: dict) -> "UnivariateIdeal":
        return cls(tuple(sorted(gens.items())))

    def over(self, field) -> "UnivariateIdeal":
        """The same generators with their coefficients mapped into `field`.

        A coefficient with no image there, or a leading coefficient that
        vanishes there, raises FieldMismatch.
        """
        gens = []
        for var, g in self.generators:
            coeffs = [field(c) for c in g.coeffs]
            if not coeffs[-1]:
                raise FieldMismatch(f"leading coefficient of generator {var} vanishes in {field}")
            gens.append((var, UnivariatePoly(coeffs)))
        return UnivariateIdeal(tuple(gens))


def power_table(p: UnivariatePoly, max_e: int):
    """table[e] = x^e mod p(x) for e = 0..max_e, each of degree < deg(p)."""
    if p.degree() < 1:
        raise ValueError("modulus must be nonconstant")
    inv_lead = _inverse(p.lc())
    one = p.lc() * inv_lead
    table = [UnivariatePoly([one])]
    d = p.degree()
    for _ in range(max_e):
        prev = table[-1]
        shifted = list((one - one,) + prev.coeffs)
        if len(shifted) == d + 1:
            c = shifted[-1] * inv_lead
            shifted = [a - c * b for a, b in zip(shifted[:-1], p.coeffs[:-1])]
        table.append(UnivariatePoly(shifted))
    return table


class _Reducer:
    """Caches power tables per variable for repeated reductions.

    With a modulus p it reduces residue polynomials: the generators are
    mapped into GF(p) once (`UnivariateIdeal.over`), and the tables hold
    plain-int residues.  Without one the tables hold exact scalars, each
    integral one as an int, so the tables of monic integer generators hold
    ints and reducing a polynomial with int coefficients builds no Fraction.
    """

    def __init__(self, ideal: UnivariateIdeal, p: int | None = None):
        self.p = p
        self.gens = dict(ideal.generators if p is None else ideal.over(GF(p)).generators)
        self.tables: dict[int, list] = {}

    def _table(self, var: int, need: int):
        t = self.tables.get(var)
        if t is None or len(t) <= need:
            rows = [r.coeffs for r in power_table(self.gens[var], need)]
            if self.p is not None:
                rows = [tuple(c.value for c in r) for r in rows]
            else:
                rows = [tuple(map(_integral, r)) for r in rows]
            t = self.tables[var] = rows
        return t

    def mul_affine(self, f: SparsePoly, h: SparsePoly, cap: int | None = None) -> SparsePoly:
        """reduce(f.mul(h, cap=cap)) for a reduced f.

        When h has total degree at most 1 this is one pass over the pairs of
        terms: a product of a reduced term of f and a term c * x_v of h can
        leave the residue grid only in x_v, and only as x_v^deg(p_v), so it
        is folded through the one table row x_v^deg(p_v) mod p_v as it
        forms; the sums are reduced mod p once, at the end.  h need not be
        reduced.  For any other h, and when len(f) * len(h) exceeds `cap`
        (where `mul` may raise CapExceeded partway), this is
        `reduce(f.mul(h, cap=cap))`, so it raises exactly when `mul` would.
        """
        p = _same_modulus(f, h)
        if (cap is not None and len(f.terms) * len(h.terms) > cap) or any(sum(e) > 1 for e in h.terms):
            return self.reduce(f.mul(h, cap=cap))
        items = f.terms.items()
        # The constant term of h maps f's distinct terms to distinct terms.
        c0 = h.terms.get((0,) * f.n)
        out = {} if c0 is None else {e1: c1 * c0 for e1, c1 in items}
        get = out.get
        for e, c2 in h.terms.items():
            if not any(e):
                continue
            v = e.index(1)
            top = fold = 0  # a variable without a generator never folds
            if v in self.gens:
                top = self.gens[v].degree()
                fold = [(j, rc) for j, rc in enumerate(self._table(v, top)[top]) if rc]
            for e1, c1 in items:
                c = c1 * c2
                e2 = list(e1)
                k = e2[v] = e1[v] + 1
                if k != top:
                    e2 = tuple(e2)
                    acc = get(e2)
                    new = c if acc is None else acc + c
                    if new:
                        out[e2] = new
                    elif acc is not None:
                        del out[e2]
                    continue
                for j, rc in fold:
                    e2[v] = j
                    _acc(out, tuple(e2), c * rc)
        return SparsePoly.raw(f.n, _mod_terms(out, p), p)

    def reduce(self, f: SparsePoly) -> SparsePoly:
        for var in sorted(self.gens):
            if var >= f.n:
                continue
            d = self.gens[var].degree()
            top = f.deg_in(var)
            if top < d:
                continue
            table = self._table(var, top)
            out: dict = {}
            get = out.get
            for e, c in f.terms.items():
                if e[var] < d:
                    pairs = ((e, c),)
                else:
                    head, tail = e[:var], e[var + 1 :]
                    pairs = [(head + (j,) + tail, c * rc) for j, rc in enumerate(table[e[var]]) if rc]
                for e2, c2 in pairs:
                    acc = get(e2)
                    new = c2 if acc is None else acc + c2
                    if new:
                        out[e2] = new
                    elif acc is not None:
                        del out[e2]
            f = SparsePoly.raw(f.n, _mod_terms(out, f.p), f.p)
        return f


def divide(f: SparsePoly, ideal: UnivariateIdeal) -> SparsePoly:
    """The unique remainder R with f = R (mod ideal) and deg_{x_i} R < deg p_i."""
    return _Reducer(ideal, f.p).reduce(f)


def is_member_brute(c: Circuit, ideal: UnivariateIdeal, monomial_cap: int = 10**6) -> bool:
    """Expand-and-divide membership oracle; CapExceeded when too large."""
    return divide(expand(c, monomial_cap), ideal).is_zero()


def random_zero_test(r_eval, n: int, deg_bound: int, trials: int, rng: random.Random, field=QQ) -> bool:
    """Schwartz-Zippel zero test; True means a nonzero value was found.

    Points are drawn from {1..S} with S = max(1, 100 * deg_bound), so each
    trial misses a nonzero polynomial with probability at most deg_bound / S.
    """
    size = max(1, 100 * deg_bound)
    if field.p is not None and field.p <= size:
        raise ValueError(f"field GF({field.p}) smaller than sample set of size {size}")
    for _ in range(trials):
        point = [field(rng.randint(1, size)) for _ in range(n)]
        if r_eval(point):
            return True
    return False
