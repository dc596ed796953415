"""Sparse multivariate and dense univariate polynomials over an exact field.

SparsePoly maps exponent vectors (tuples of length n) to nonzero coefficients.
Its modulus `p` says which field they live in: with p = None they are
rationals (ints and Fractions) and every operation is exact arithmetic on
them; with an int p they are plain ints in [0, p), the residues mod p.  A
residue polynomial accumulates products and sums as unreduced ints and
reduces each output term mod p once, at the end of the operation, so the
inner loops never normalize a Fraction or build a Mod.  Scalars entering a
polynomial (the constructor, `scale` and the point of `evaluate`) are mapped
once, by `fields.rational` when p is None and by `fields.residue` otherwise:
a `Mod` in an exact polynomial, a denominator that vanishes mod p, or two
polynomials with different moduli raise FieldMismatch.  `SparsePoly.raw`
wraps terms that are already mapped.

UnivariatePoly stores coefficients low-to-high with the trailing zeros
stripped.  Multiplication can be capped by a term budget; exceeding it raises
CapExceeded, which callers treat as "instance too large for the declared
parameters" rather than as a crash.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .fields import FieldMismatch, _inverse, rational, residue

__all__ = [
    "CapExceeded",
    "SparsePoly",
    "UnivariatePoly",
    "poly_gcd",
]


class CapExceeded(RuntimeError):
    """An expansion outgrew its monomial budget."""


def _acc(out: dict, e, c):
    """out[e] += c, dropping the entry when it cancels."""
    acc = out.get(e)
    new = c if acc is None else acc + c
    if new:
        out[e] = new
    elif acc is not None:
        del out[e]


def _add_into(out: dict, terms: dict, p) -> dict:
    """out += terms in place, for the terms of polynomials of modulus p
    (residues in [0, p) when p is set, so each sum is reduced as it forms)."""
    for e, c in terms.items():
        new = out.get(e, 0) + c
        if p is not None and new >= p:
            new -= p
        if new:
            out[e] = new
        else:  # c is nonzero, so e was in out
            del out[e]
    return out


def _mod_terms(terms: dict, p) -> dict:
    """Reduce accumulated residue terms mod p; exact terms pass through."""
    if p is None:
        return terms
    return {e: r for e, c in terms.items() if (r := c % p)}


def _same_modulus(a: "SparsePoly", b: "SparsePoly"):
    if a.n != b.n:
        raise ValueError("variable count mismatch")
    if a.p != b.p:
        raise FieldMismatch(f"mixed moduli {a.p} and {b.p}")
    return a.p


class SparsePoly:
    __slots__ = ("n", "terms", "p")

    def __init__(self, n: int, terms=None, p: int | None = None):
        self.n = n
        self.p = p
        clean = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                if len(e) != n:
                    raise ValueError("exponent vector length mismatch")
                c = rational(c) if p is None else residue(c, p)
                if c:
                    _acc(clean, tuple(e), c)
        self.terms = _mod_terms(clean, p)

    @classmethod
    def raw(cls, n: int, terms: dict, p: int | None = None) -> "SparsePoly":
        """Wrap `terms` as they are: nonzero, and residues when p is set."""
        f = cls.__new__(cls)
        f.n, f.terms, f.p = n, terms, p
        return f

    @classmethod
    def zero(cls, n: int, p: int | None = None) -> "SparsePoly":
        return cls.raw(n, {}, p)

    @classmethod
    def const(cls, n: int, c, p: int | None = None) -> "SparsePoly":
        return cls(n, {(0,) * n: c}, p)

    @classmethod
    def variable(cls, n: int, i: int) -> "SparsePoly":
        e = [0] * n
        e[i] = 1
        return cls(n, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, SparsePoly)
            and self.n == other.n
            and self.p == other.p
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.p, frozenset(self.terms.items())))

    def __add__(self, other):
        if isinstance(other, SparsePoly):
            p = _same_modulus(self, other)
            return SparsePoly.raw(self.n, _add_into(dict(self.terms), other.terms, p), p)
        return NotImplemented

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        p = self.p
        if p is None:
            terms = {e: -c for e, c in self.terms.items()}
        else:
            terms = {e: p - c for e, c in self.terms.items()}
        return SparsePoly.raw(self.n, terms, p)

    def scale(self, c) -> "SparsePoly":
        p = self.p
        c = rational(c) if p is None else residue(c, p)
        if not c:
            return SparsePoly.zero(self.n, p)
        return SparsePoly.raw(self.n, _mod_terms({e: c * v for e, v in self.terms.items()}, p), p)

    def mul(self, other: "SparsePoly", cap: int | None = None) -> "SparsePoly":
        p = _same_modulus(self, other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                acc = out.get(e)
                new = c if acc is None else acc + c
                if new:
                    out[e] = new
                elif acc is not None:
                    del out[e]
            if cap is not None and len(out) > cap:
                # Residue sums are never 0 as ints, so count the true
                # survivors before giving up.
                out = _mod_terms(out, p)
                if len(out) > cap:
                    raise CapExceeded(f"term count exceeded cap {cap}")
        return SparsePoly.raw(self.n, _mod_terms(out, p), p)

    def __mul__(self, other):
        if isinstance(other, SparsePoly):
            return self.mul(other)
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = SparsePoly.const(self.n, 1, self.p)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def evaluate(self, point):
        """The value at `point`: a residue int for a residue polynomial,
        else a rational (an int or a Fraction)."""
        if len(point) != self.n:
            raise ValueError("point length mismatch")
        p = self.p
        point = [rational(x) if p is None else residue(x, p) for x in point]
        total = 0
        for e, c in self.terms.items():
            for x, exp in zip(point, e):
                if exp:
                    c = c * pow(x, exp, p)
            total = total + c
        return total if p is None else total % p

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def deg_in(self, i: int) -> int:
        return max((e[i] for e in self.terms), default=-1)

    def __repr__(self):
        if not self.terms:
            return "SparsePoly(0)"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"x{i}^{k}" if k > 1 else f"x{i}" for i, k in enumerate(e) if k
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        mod = "" if self.p is None else f" mod {self.p}"
        return "SparsePoly(" + " + ".join(bits) + mod + ")"


class UnivariatePoly:
    """Dense univariate polynomial, coefficients low-to-high."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def from_roots(cls, roots) -> "UnivariatePoly":
        p = cls([Fraction(1)])
        for r in roots:
            p = p * cls([-r, Fraction(1)])
        return p

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, UnivariatePoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UnivariatePoly(out)

    def __neg__(self):
        return UnivariatePoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, UnivariatePoly):
            if not self.coeffs or not other.coeffs:
                return UnivariatePoly([])
            out = [self.coeffs[0] - self.coeffs[0]] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] = out[i + j] + a * b
            return UnivariatePoly(out)
        return self.scale(other)

    def scale(self, c) -> "UnivariatePoly":
        return UnivariatePoly([c * a for a in self.coeffs])

    def divmod(self, other: "UnivariatePoly"):
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UnivariatePoly([]), UnivariatePoly(rem)
        quo = [rem[0] - rem[0]] * (dq + 1)
        inv = _inverse(other.lc())
        for i in range(dq, -1, -1):
            c = rem[i + other.degree()] * inv
            if c:
                quo[i] = c
                for j, b in enumerate(other.coeffs):
                    rem[i + j] = rem[i + j] - c * b
        return UnivariatePoly(quo), UnivariatePoly(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def evaluate(self, x):
        if not self.coeffs:
            return x - x if not isinstance(x, (int,)) else 0
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def derivative(self) -> "UnivariatePoly":
        return UnivariatePoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "UnivariatePoly":
        if self.is_zero():
            return self
        inv = _inverse(self.lc())
        return UnivariatePoly([c * inv for c in self.coeffs])

    def __repr__(self):
        if not self.coeffs:
            return "UnivariatePoly(0)"
        bits = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c]
        return "UnivariatePoly(" + " + ".join(bits) + ")"


def poly_gcd(a: UnivariatePoly, b: UnivariatePoly) -> UnivariatePoly:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a

