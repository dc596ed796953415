"""Division modulo ideals generated by univariate polynomials.

Because each generator involves a single distinct variable, the leading
monomials are pairwise coprime, the generators form a Groebner basis, and the
remainder is unique no matter in which order the variables are reduced.  So
reduction is univariate division by p_v in each variable, which needs one
fold row per generator: the coefficients of x_v^deg(p_v) mod p_v.  `_Reducer`
computes the rows once and folds through them both in `reduce` (division
from the top degree down) and in the fused multiply-and-reduce kernel `mul`.
`mul` forms a product by a factor of total degree at most 2 as shift-and-fold
passes, one per variable of each monomial, and never forms the unreduced
product; a factor of higher degree goes through `reduce(f.mul(h))`, which
measured faster there.  The low-rank levels' columns, the level-0 expansion
and the certifier's powers of R all go through it.  `divide` is the
brute-force oracle that every fast path is tested against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .circuits import Circuit, expand
from .fields import FieldMismatch, _inverse, kernel_map
from .poly import SparsePoly, _acc, _mod_terms, _same_modulus

__all__ = [
    "UnivariateIdeal",
    "divide",
    "is_member_brute",
    "random_zero_test",
    "zero_test_miss_bound",
    "zero_test_sample_size",
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


class _Reducer:
    """Reduction modulo the ideal through one fold row per generator.

    The row of p_v (degree d, leading coefficient lc) holds the coefficients
    of x_v^d mod p_v, that is -p_v[j] / lc for j < d, computed once here.
    The field is the modulus p (None for QQ), and the generators enter it
    here, each coefficient mapped by `fields.kernel_map(p)` before it is
    divided by lc: with a modulus by `fields.residue`, so the rows are
    plain-int residues; without one by `fields.rational`, so the rows of
    monic integer generators hold ints, even from integral Fractions, and
    reducing a polynomial with int coefficients builds no Fraction.  A
    coefficient with no image in the field (a denominator that vanishes
    mod p), or a leading coefficient that vanishes there, raises
    FieldMismatch.
    """

    def __init__(self, ideal: UnivariateIdeal, p: int | None = None):
        self.p = p
        scalar = kernel_map(p)
        self.rows: dict[int, tuple] = {}
        for var, g in sorted(ideal.generators):
            *low, lc = map(scalar, g.coeffs)
            if not lc:
                raise FieldMismatch(f"leading coefficient of generator {var} vanishes mod {p}")
            inv = _inverse(lc, p)
            self.rows[var] = tuple(scalar(-c * inv) for c in low)
        self.folds = {var: [(j, rc) for j, rc in enumerate(row) if rc] for var, row in self.rows.items()}

    def window(self, offset: int, s: int) -> "_Reducer":
        """The reducer of the generators of x_offset .. x_(offset+s-1), as
        variables 0 .. s-1: this reducer's rows, re-indexed, not recomputed."""
        sub = _Reducer.__new__(_Reducer)
        sub.p = self.p
        sub.rows, sub.folds = {}, {}
        for j in range(s):
            row = self.rows.get(offset + j)
            if row is not None:
                sub.rows[j] = row
                sub.folds[j] = self.folds[offset + j]
        return sub

    def mul(self, f: SparsePoly, h: SparsePoly) -> SparsePoly:
        """reduce(f.mul(h)) for a reduced f.

        When h has total degree at most 2 no unreduced product is formed.
        f * x^e is (f * x^(e - e_v)) * x_v, v the last variable of e, and
        each step is one shift-and-fold pass (`_shift`): a reduced term
        times x_v can leave the residue grid only in x_v, and only as
        x_v^deg(p_v), so it folds through the row of p_v as it forms.  The
        prefix products f * x_u of the quadratic monomials are formed once
        per call, each monomial of h adds its last pass straight into the
        output, and the sums are reduced mod p once, at the end.  h need not
        be reduced.

        An h of degree 3 or more stays `reduce(f.mul(h))`: chaining the
        passes there made the certifier's threshold, whose dense R has
        36-138 terms of degree 4-6, 1.5-2.7x slower.  At degree 2 the passes
        cut the level-0 expansion of the 13 `vc` ops of the `lowrank`
        benchmark (seed 9001, 2 vCPUs, Python 3.11) from 210-237 ms to
        125-133 ms.  No term cap is needed: in `expand` and on the low-rank
        levels, f and h are reduced over w variables and their product has
        degree D at most its gate's syntactic degree, so at most
        C(D + w, w) terms, (d+1)^(2r) on a level (w <= 2r).
        """
        p = _same_modulus(f, h)
        if any(sum(e) > 2 for e in h.terms):
            return self.reduce(f.mul(h))
        items = f.terms.items()
        # The constant term of h maps f's distinct terms to distinct terms.
        c0 = h.terms.get((0,) * f.n)
        out = {} if c0 is None else {e1: c1 * c0 for e1, c1 in items}
        prefix: dict = {}  # u -> the terms of reduce(f * x_u)
        for e, c2 in h.terms.items():
            nz = [i for i, k in enumerate(e) if k]
            if not nz:
                continue
            src = items
            if len(nz) == 2 or e[nz[0]] == 2:
                u = nz[0]
                src = prefix.get(u)
                if src is None:
                    src = prefix[u] = _mod_terms(self._shift(items, u, 1, {}), p).items()
            self._shift(src, nz[-1], c2, out)
        return SparsePoly.raw(f.n, _mod_terms(out, p), p)

    def _shift(self, items, v: int, c2, out: dict) -> dict:
        """out += c2 * x_v * (the reduced terms `items`), folded through the
        row of p_v; the sums are left unreduced mod p."""
        top = len(self.rows.get(v, ()))  # a variable without a generator never folds
        fold = self.folds.get(v, ())
        get = out.get
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
                e3 = tuple(e2)
                acc = get(e3)
                new = c * rc if acc is None else acc + c * rc
                if new:
                    out[e3] = new
                elif acc is not None:
                    del out[e3]
        return out

    def reduce(self, f: SparsePoly) -> SparsePoly:
        """The remainder of f, dividing by one generator at a time.

        Each variable is divided from its top degree down: all terms at
        x_v^k with k >= d = deg(p_v) fold together through the row onto
        x_v^(k-d) .. x_v^(k-1), and what lands at a power still >= d is
        merged there and folds when its level comes, so each merged term
        folds once.
        """
        p = f.p
        for var, row in self.rows.items():
            d = len(row)
            if var >= f.n or f.deg_in(var) < d:
                continue
            fold = self.folds[var]
            out: dict = {}
            high: dict[int, dict] = {}  # power of x_v -> {(head, tail): coefficient}
            for e, c in f.terms.items():
                k = e[var]
                if k < d:
                    out[e] = c
                else:
                    high.setdefault(k, {})[e[:var], e[var + 1 :]] = c
            for k in range(max(high), d - 1, -1):
                for (head, tail), c in high.pop(k, {}).items():
                    if p is not None:
                        c %= p  # keep repeated folds from growing the ints
                    for j, rc in fold:
                        k2 = k - d + j
                        if k2 >= d:
                            _acc(high.setdefault(k2, {}), (head, tail), c * rc)
                        else:
                            _acc(out, head + (k2,) + tail, c * rc)
            f = SparsePoly.raw(f.n, _mod_terms(out, p), p)
        return f


def divide(f: SparsePoly, ideal: UnivariateIdeal) -> SparsePoly:
    """The unique remainder R with f = R (mod ideal) and deg_{x_i} R < deg p_i,
    in f's field: over QQ, or mod f.p with the generators mapped there."""
    return _Reducer(ideal, f.p).reduce(f)


def is_member_brute(c: Circuit, ideal: UnivariateIdeal, monomial_cap: int = 10**6) -> bool:
    """Expand-and-divide membership oracle; CapExceeded when too large."""
    return divide(expand(c, monomial_cap), ideal).is_zero()


def zero_test_sample_size(deg_bound: int) -> int:
    """S = max(1, 100 * deg_bound): `random_zero_test` draws every
    coordinate from {1..S}."""
    return max(1, 100 * deg_bound)


def zero_test_miss_bound(degree: int, deg_bound: int, trials: int) -> Fraction:
    """Schwartz-Zippel: the probability that `random_zero_test(..., deg_bound,
    trials, ...)` finds no nonzero value of a nonzero polynomial of total
    degree at most `degree`, (degree / S)^trials."""
    return Fraction(degree, zero_test_sample_size(deg_bound)) ** trials


def random_zero_test(r_eval, n: int, deg_bound: int, trials: int, rng: random.Random, p: int | None = None) -> bool:
    """Schwartz-Zippel zero test; True means a nonzero value was found.

    Points are drawn from {1..S}, S = `zero_test_sample_size(deg_bound)`, so
    a nonzero answer is certain and a zero one errs with probability at most
    `zero_test_miss_bound`.  They are plain ints: `r_eval` maps them into
    its field, and the modulus `p` of that field (None for QQ) is read only
    to check that GF(p) is larger than S.
    """
    size = zero_test_sample_size(deg_bound)
    if p is not None and p <= size:
        raise ValueError(f"field GF({p}) smaller than sample set of size {size}")
    for _ in range(trials):
        point = [rng.randint(1, size) for _ in range(n)]
        if r_eval(point):
            return True
    return False
