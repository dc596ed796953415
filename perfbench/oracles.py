"""Reference answers that share no code with `unideal`.

The benchmark builds its instances here as plain Python data (gate lists,
integer matrices, edge lists), writes them to the files the CLI reads, and
judges every CLI answer with the functions below.  Nothing in this module
imports `unideal`, so a defect in the engines cannot hide in the oracle.

Polynomials are dicts from exponent tuples to Fractions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def fmt(x) -> str:
    """A scalar as the CLI prints it: an integer, or num/den."""
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# --- circuits ---------------------------------------------------------------


class Gates:
    """A straight-line program in the CLI's circuit-file vocabulary.

    Gates are ("in", i), ("const", c), ("add", ids), ("mul", ids); children
    precede parents, so every gate id is its position.
    """

    def __init__(self, n: int):
        self.n = n
        self.gates: list = []
        self.degs: list = []

    def _push(self, gate, deg) -> int:
        self.gates.append(gate)
        self.degs.append(deg)
        return len(self.gates) - 1

    def input(self, i: int) -> int:
        return self._push(("in", i), 1)

    def const(self, c) -> int:
        return self._push(("const", Fraction(c)), 0)

    def add(self, *ids) -> int:
        return self._push(("add", ids), max(self.degs[i] for i in ids))

    def mul(self, *ids) -> int:
        return self._push(("mul", ids), sum(self.degs[i] for i in ids))

    def text(self, out: int) -> str:
        lines = [f"vars {self.n}"]
        for g in self.gates:
            if g[0] == "in":
                lines.append(f"in {g[1]}")
            elif g[0] == "const":
                lines.append(f"const {fmt(g[1])}")
            else:
                lines.append(g[0] + " " + " ".join(map(str, g[1])))
        lines.append(f"out {out}")
        return "\n".join(lines) + "\n"


def evaluate(c: Gates, out: int, point):
    vals = []
    for g in c.gates:
        if g[0] == "in":
            vals.append(point[g[1]])
        elif g[0] == "const":
            vals.append(g[1])
        elif g[0] == "add":
            acc = vals[g[1][0]]
            for i in g[1][1:]:
                acc = acc + vals[i]
            vals.append(acc)
        else:
            acc = vals[g[1][0]]
            for i in g[1][1:]:
                acc = acc * vals[i]
            vals.append(acc)
    return vals[out]


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


def expand(c: Gates, out: int) -> dict:
    """Full sparse expansion of gate `out`."""
    zero = (0,) * c.n
    vals: list = []
    for g in c.gates:
        if g[0] == "in":
            e = [0] * c.n
            e[g[1]] = 1
            vals.append({tuple(e): Fraction(1)})
        elif g[0] == "const":
            vals.append({zero: g[1]} if g[1] else {})
        else:
            op = _padd if g[0] == "add" else _pmul
            acc = vals[g[1][0]]
            for i in g[1][1:]:
                acc = op(acc, vals[i])
            vals.append(acc)
    return vals[out]


# --- remainders modulo univariate ideals --------------------------------------


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


def poly_from_roots(roots) -> list:
    """Coefficients, low to high, of prod (x - a)."""
    p = [Fraction(1)]
    for a in roots:
        p = [Fraction(0)] + p
        for i in range(len(p) - 1):
            p[i] -= a * p[i + 1]
    return p


# --- permanents, vertex cover, power ideals, cubes ----------------------------


def ryser(a) -> int:
    """Permanent of an integer matrix by Ryser's formula, subsets in Gray order."""
    n = len(a)
    cols = [[row[j] for row in a] for j in range(n)]
    sums = [0] * n
    total = 0
    gray = 0
    for m in range(1, 1 << n):
        j = (m & -m).bit_length() - 1
        gray ^= 1 << j
        sign = 1 if gray >> j & 1 else -1
        sums = [s + sign * c for s, c in zip(sums, cols[j])]
        prod = 1
        for s in sums:
            prod *= s
        total += -prod if (n - bin(gray).count("1")) % 2 else prod
    return total


def rank(rows) -> int:
    """Rank over Q by Gaussian elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col] / m[r][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def has_vertex_cover(n: int, edges, k: int) -> bool:
    """Exhaustive search over vertex subsets of size k."""
    return any(
        all(u in s or v in s for u, v in edges)
        for s in map(set, itertools.combinations(range(n), min(k, n)))
    )


def lowest_surviving_degree(f: dict, exponents):
    """Least total degree of a monomial of f outside <x_i^e_i>; None if f is in it."""
    degs = [
        sum(e)
        for e in f
        if all(x < b for x, b in zip(e, exponents))
    ]
    return min(degs) if degs else None


def hadamard_summands(exponents, k: int, jstar) -> int:
    """Diagonal summands `mlmd --trials auto` builds (acceptance criterion 6).

    The test sweeps degrees j = 0..min(k, m), m = sum(e_i - 1), and stops at
    the least surviving degree j* of a nonmember.  Degree 0 is one summand;
    degree j >= 1 is t_j * 2^(ceil(1.5 j) - 1), with t_j colorings: the least
    t with C(m, j) (1 - P_j)^t <= 2^-20, and at least ceil(4 j ln 2 / P_j),
    where P_j is the chance that a ceil(1.5 j)-coloring makes j items distinct.
    """
    m = sum(e - 1 for e in exponents)
    total = 1
    for j in range(1, (min(k, m) if jstar is None else jstar) + 1):
        colors = (3 * j + 1) // 2
        p = float(math.prod(Fraction(colors - i, colors) for i in range(j)))
        need = (20 * math.log(2) + math.log(max(math.comb(m, j), 1))) / p
        trials = max(math.ceil(4 * j * math.log(2) / p), math.ceil(need), 1)
        total += trials * 2 ** (colors - 1)
    return total


def vanishes_on_cube(outer: Gates, out: int, forms, n: int) -> bool:
    """outer(forms(x)) is zero at every 0/1 point, i.e. lies in <x_i^2 - x_i>."""
    for bits in itertools.product((0, 1), repeat=n):
        vals = [sum(c for c, b in zip(f, bits) if b) for f in forms]
        if evaluate(outer, out, vals):
            return False
    return True


def rem_eval_cubic(a, b, gens, alpha):
    """Remainder of f = l1^2 l2 + l2^2 + l1 modulo monic cubics, at alpha.

    f has total degree 3, so the only monomials the ideal touches are the
    pure cubes x_i^3, with coefficient a_i^2 b_i; reducing each subtracts
    that multiple of p_i(x_i).  Hence R(alpha) = f(alpha) - sum a_i^2 b_i p_i(alpha_i).
    """
    l1 = sum(x * y for x, y in zip(a, alpha))
    l2 = sum(x * y for x, y in zip(b, alpha))
    value = l1 * l1 * l2 + l2 * l2 + l1
    for ai, bi, p, x in zip(a, b, gens, alpha):
        value -= ai * ai * bi * sum(c * x**j for j, c in enumerate(p))
    return value


def certificate_names_root(cert_text: str, roots, f: Gates, out: int) -> bool:
    """Each component lies within 1/4 of an integer root, and f is nonzero there.

    The generators have the integer roots `roots[i]`, at distance >= 1 from
    each other, so the nearby root is unique and the tuple of those roots is a
    point of the variety where f does not vanish: an exact nonmembership proof.
    """
    comps = []
    for line in cert_text.split("\n"):
        line = line.split("#", 1)[0].strip()
        if line:
            try:
                re_s, im_s = line.split()
                comps.append((Fraction(re_s), Fraction(im_s)))
            except ValueError:  # a malformed certificate names nothing
                return False
    if len(comps) != len(roots):
        return False
    tup = []
    for (re, im), rs in zip(comps, roots):
        near = [a for a in rs if (re - a) ** 2 + im**2 < Fraction(1, 16)]
        if len(near) != 1:
            return False
        tup.append(Fraction(near[0]))
    return evaluate(f, out, tup) != 0
