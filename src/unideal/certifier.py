"""Certificates of nonmembership when generators have distinct complex roots.

If every p_i is squarefree, f lies in <p_1(x_1), ..., p_n(x_n)> exactly when
it vanishes on the grid of root tuples.  A nonmembership witness is therefore
a root tuple where f does not vanish, and it can be communicated with finite
precision: the verifier accepts a tuple z of complex rationals, each an
(re, im) pair of Fractions, when (a) each component is certifiably within
eps of some root of its generator (the residual test |p_i(z_i)| <
2^-L eps^d, which is sound by the factorized lower bound
|p(z)| >= |lc| * dist^deg) and (b) |f(z)| >= 2M, where M is a precomputed
threshold separating members from nonmembers.

One bound gives the gap.  With eps <= 1, every accepted z lies within eps of
a root tuple a in each coordinate, so z stays inside the boxes |z_i| <= (root
bound of p_i) + 1, and |f(z) - f(a)| <= eps * lip, where lip sums over the
variables the sup of |df/dx_i| over those boxes (bounded term by term on the
expansion of f).  Since f - R lies in the ideal for the remainder R, f(a) =
R(a) at every root tuple, so with M = B3/3 and eps <= M/lip:

    f in I  -> f(a) = 0, so every near-root tuple gives |f| <= eps*lip <= M,
    f not in I -> some a has |f(a)| = |R(a)| >= B3 = 3M, so |f| >= 2M there.

B3 lower bounds the nonzero grid values of R.  By Stickelberger's theorem
the eigenvalues of multiplication by R on Q[x]/I are exactly the grid values
R(a), so its characteristic polynomial chi has them as roots, and a
Cauchy-style lower root bound on chi with its factor w^z (z vanishing
tuples) divided out is a valid separation.  chi is never a determinant: its
power sums are the traces P_k = tr(R^k) = sum_e [R^k mod I]_e prod_i s_i(e_i),
where s_i(j) is the j-th power sum of the roots of p_i, so each costs one
multiply-and-reduce, and Newton's identities turn P_1..P_N into chi (N the
grid size).  Both bounds are exact rationals; magnitudes are compared
squared so the arithmetic never leaves Q.

Root approximation is Durand-Kerner on fixed-point Gaussian integers, ints
standing for multiples of 2^-prec at escalating prec, so no floating point
and no third-party package is involved.  It is never trusted: every
candidate is certified a posteriori by the exact residual and distinctness
tests, and those two tests are the whole proof.  Their radius comes from the
candidates' own spread, so no a-priori root-separation bound is needed.

Every value of f, and every residual, comes from one exact routine,
`_grid_abs2`.  The roots of a variable are dyadics (or the rational root of
a degree-1 generator), so they are Gaussian integers over one common
denominator D_v; clearing D_v and the denominators of f's expansion turns
the grid sweep into int arithmetic, with each prefix of a root tuple
substituted once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .circuits import Circuit, expand
from .division import UnivariateIdeal, _Reducer
from .fields import rational
from .poly import SparsePoly, UnivariatePoly, poly_gcd

__all__ = [
    "NotSquarefree",
    "Undecided",
    "Certificate",
    "PrecisionBudget",
    "root_bound",
    "approximate_roots",
    "compute_threshold",
    "verify_certificate",
    "search_nonmembership",
]

# Work guards: the monomial cap of the expansion of f, and the largest root
# grid whose power-sum charpoly (threshold) or tuple sweep (search) runs.
EXPAND_CAP = 10**6
CHARPOLY_GUARD = 2048
GRID_GUARD = 10**5


class NotSquarefree(ValueError):
    """A generator has a repeated root; the distinct-roots method does not apply."""


class Undecided(RuntimeError):
    """A grid value landed strictly between M and 2M (defensive signal)."""


@dataclass(frozen=True)
class Certificate:
    """A finite-precision candidate root tuple, one (re, im) pair of Fractions per variable."""

    values: tuple

    @property
    def n(self) -> int:
        return len(self.values)

    def bit_size(self) -> int:
        return sum(x.numerator.bit_length() + x.denominator.bit_length() for z in self.values for x in z)


@dataclass(frozen=True)
class PrecisionBudget:
    """Everything the verifier needs: bounds, threshold and approximation radius."""

    L: int
    d: int
    n: int
    eps: Fraction
    M: Fraction
    b3: Fraction = Fraction(0)
    lip: Fraction = Fraction(0)

    def __post_init__(self):
        if self.eps <= 0 or self.M <= 0:
            raise ValueError("eps and M must be positive")
        if self.eps * self.lip > self.M:
            raise ValueError("eps too large for the decision gap")


def root_bound(p: UnivariatePoly) -> Fraction:
    """Cauchy's bound: |root| <= max(1, d * max|c| / |lc|) for every complex root of p."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    d = p.degree()
    if d == 0:
        return Fraction(0)
    a = [abs(Fraction(c)) for c in p.coeffs]
    return max(Fraction(1), d * max(a) / a[-1])


def _is_squarefree(p: UnivariatePoly) -> bool:
    return p.degree() >= 1 and poly_gcd(p, p.derivative()).degree() == 0


def _bit_bound(values) -> int:
    """Smallest L >= 0 with 2^-L <= |v| <= 2^L for every nonzero v."""
    L = 0
    for v in values:
        v = abs(Fraction(v))
        if not v:
            continue
        while v > 2**L or v < Fraction(1, 2**L):
            L += 1
    return L


def _round_dyadic(x: Fraction, bits: int) -> Fraction:
    scale = 2**bits
    return Fraction(round(x * scale), scale)


def approximate_roots(p: UnivariatePoly, eps: Fraction, threshold_sq: Fraction | None = None):
    """All deg(p) roots as (re, im) Fraction pairs, each within eps of a distinct root.

    Every root is a dyadic, except the exact rational root of a degree-1 p,
    so the roots share one small denominator, which keeps the ints of
    `_grid_abs2` short.  Raises NotSquarefree when p has a repeated root.

    Fixed-point Durand-Kerner at escalating precision, 128 bits first,
    produces the candidates.  Their spread picks the radius: r starts at eps
    and halves while 4r exceeds the smallest pairwise distance.  Acceptance
    rests only on two exact tests: the residual |p(a)| < 2^-L * r^d, which by
    the factorized lower bound puts a within r of a root, and pairwise
    distances > 2r (`_separated`), which make those roots distinct.  A
    caller may pass a stricter squared residual threshold (the certificate
    verifier's, say); the smaller one is enforced.
    """
    d = p.degree()
    if d < 1:
        raise ValueError("need degree >= 1")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not _is_squarefree(p):
        raise NotSquarefree("polynomial has a repeated root")
    if d == 1:
        return [(-Fraction(p.coeffs[0]) / Fraction(p.coeffs[1]), Fraction(0))]
    L = _bit_bound(p.coeffs)
    prec = 128
    while prec <= 1 << 20:
        cand = _durand_kerner(p, prec)
        # coinciding candidates (spread 0) cannot pass the distinctness test
        spread_sq = min(_dist2(a, b) for a, b in itertools.combinations(cand, 2)) if cand else 0
        if spread_sq:
            r = eps
            while 16 * r * r > spread_sq:
                r /= 2
            thr_sq = (Fraction(1, 2**L) * r**d) ** 2
            if threshold_sq is not None:
                thr_sq = min(thr_sq, Fraction(threshold_sq))
            target_bits = max(64, _needed_bits(thr_sq) // 2 + 16)
            rounded = [(_round_dyadic(re, target_bits), _round_dyadic(im, target_bits)) for re, im in cand]
            for pick in (rounded, cand):
                if all(_poly_abs2(p, z) < thr_sq for z in pick) and _separated(pick, r):
                    return pick
        prec *= 2
    raise RuntimeError("root refinement did not converge; retry with higher precision")


def _separated(pick, r: Fraction) -> bool:
    """Whether the points of `pick` are pairwise more than 2r apart.

    This is the distinctness proof of `approximate_roots`: discs of radius r
    around points more than 2r apart are disjoint, so the roots within r of
    those points are distinct.
    """
    gap_sq = 4 * r * r
    return all(_dist2(a, b) > gap_sq for a, b in itertools.combinations(pick, 2))


def _dist2(a, b) -> Fraction:
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def _needed_bits(thr_sq: Fraction) -> int:
    # roughly -log2(thr_sq), used to size the dyadic rounding of candidates
    return max(0, thr_sq.denominator.bit_length() - thr_sq.numerator.bit_length()) + 8


def _poly_abs2(p: UnivariatePoly, z) -> Fraction:
    """|p(z)|^2 for an (re, im) pair z."""
    return next(_grid_abs2(SparsePoly(1, {(j,): c for j, c in enumerate(p.coeffs)}), [[z]]))


def _grid_abs2(fp: SparsePoly, per_var):
    """Exact |fp(z)|^2 at every tuple z of itertools.product(*per_var), in that order.

    per_var[v] lists the values of x_v as (re, im) Fraction pairs.  fp's
    coefficients are cleared by the lcm L of their denominators, and x_v's
    values by the lcm D_v of theirs, so x_v = (a + bi) / D_v with ints a, b.
    Substituting x_v into a term of degree j in it multiplies by
    (a + bi)^j D_v^(deg_v - j) (deg_v the degree of fp in x_v), which scales
    every term alike.  The variables are substituted one at a time on (re, im)
    int pairs, so each prefix of a tuple is substituted once, and a tuple's
    value V gives |fp(z)|^2 = |V|^2 / (L prod_v D_v^deg_v)^2.
    """
    scale = math.lcm(*(c.denominator for c in fp.terms.values()))
    poly = {e: (int(c * scale), 0) for e, c in fp.terms.items()}
    powers = []
    for v, values in enumerate(per_var):
        dv = math.lcm(*(x.denominator for z in values for x in z))
        deg = max((e[v] for e in fp.terms), default=0)
        scale *= dv**deg
        rows = []
        for re, im in values:
            a, b, gr, gi, row = int(re * dv), int(im * dv), 1, 0, []
            for j in range(deg + 1):
                k = dv ** (deg - j)
                row.append((gr * k, gi * k))
                gr, gi = gr * a - gi * b, gr * b + gi * a
            rows.append(row)
        powers.append(rows)
    den = scale * scale

    def sweep(v, poly):
        if v == len(powers):
            re, im = poly.get((), (0, 0))
            yield Fraction(re * re + im * im, den)
            return
        for row in powers[v]:
            out = {}
            for e, (cr, ci) in poly.items():
                pr, pi = row[e[0]]
                tail = e[1:]
                r, i = out.get(tail, (0, 0))
                out[tail] = (r + cr * pr - ci * pi, i + cr * pi + ci * pr)
            yield from sweep(v + 1, out)

    return sweep(0, poly)


def _fixed(x: Fraction, prec: int) -> int:
    """round(x * 2^prec), halves rounded up."""
    return ((x.numerator << (prec + 1)) + x.denominator) // (2 * x.denominator)


# The start point base 0.4 + 0.9i and the zero-denominator nudge 1 + 10^-6 i,
# with 0.4, 0.9 and 10^-6 written as the dyadics of their nearest doubles.
_DK_BASE = (Fraction(3602879701896397, 2**53), Fraction(8106479329266893, 2**53))
_DK_NUDGE = Fraction(4722366482869645, 2**72)


def _durand_kerner(p: UnivariatePoly, prec: int):
    """Candidate roots of p by Durand-Kerner on fixed-point Gaussian integers.

    Every value is a pair (re, im) of ints standing for (re + i*im) / 2^prec.
    A product is an int product shifted right by prec, rounded to nearest; a
    quotient num/den is num * conj(den) shifted left by prec and divided by
    |den|^2, rounded to nearest.  So one step is plain int arithmetic with an
    absolute error of about 2^-prec, and a candidate that converges to an
    exactly representable root (an integer, say) lands on it exactly.

    p is made monic.  The start points are radius * (0.4 + 0.9i)^k for
    k = 1..d, with radius = 1 + max |c| over the monic coefficients, computed
    exactly and then rounded.  They fix which root each candidate converges
    to, and so the order of the returned roots: the search sweeps root
    tuples in that order and writes the first nonvanishing one as its
    certificate.  Each sweep updates the candidates in place, one after the
    other; the iteration stops once every correction has |delta| <
    2^-(3 prec / 4) (compared squared, on ints) and gives up after
    200 + 30d sweeps.  A candidate whose denominator is exactly 0 is
    nudged by the factor 1 + 10^-6 i.

    Returns [(re, im)] as Fractions, or None without convergence.  Nothing
    here is trusted: `approximate_roots` accepts candidates only through
    its exact residual and distinctness tests.
    """
    d = p.degree()
    one = 1 << prec
    half = one >> 1
    lead = Fraction(p.coeffs[-1])
    monic = [Fraction(c) / lead for c in p.coeffs[:-1]]
    horner = [_fixed(c, prec) for c in reversed(monic)]
    radius = 1 + max(map(abs, monic), default=0)
    zr, zi = [], []
    wr, wi = radius, Fraction(0)
    for _ in range(d):
        wr, wi = wr * _DK_BASE[0] - wi * _DK_BASE[1], wr * _DK_BASE[1] + wi * _DK_BASE[0]
        zr.append(_fixed(wr, prec))
        zi.append(_fixed(wi, prec))
    nudge = _fixed(_DK_NUDGE, prec)
    tol_sq = 1 << 2 * (prec + (-3 * prec) // 4)  # 2^-(3 prec / 4), squared, in units of 2^-2prec
    for _ in range(200 + 30 * d):
        worst = 0
        for i in range(d):
            xr, xi = zr[i], zi[i]
            nr, ni = xr + horner[0], xi
            for c in horner[1:]:
                nr, ni = ((nr * xr - ni * xi + half) >> prec) + c, (nr * xi + ni * xr + half) >> prec
            dr, di = one, 0
            for j in range(d):
                if j != i:
                    ur, ui = xr - zr[j], xi - zi[j]
                    dr, di = (dr * ur - di * ui + half) >> prec, (dr * ui + di * ur + half) >> prec
            q = dr * dr + di * di
            if not q:
                zr[i] = xr - ((xi * nudge + half) >> prec)
                zi[i] = xi + ((xr * nudge + half) >> prec)
                worst = tol_sq
                continue
            q2 = 2 * q
            er = (((nr * dr + ni * di) << (prec + 1)) + q) // q2
            ei = (((ni * dr - nr * di) << (prec + 1)) + q) // q2
            zr[i] = xr - er
            zi[i] = xi - ei
            worst = max(worst, er * er + ei * ei)
        if worst < tol_sq:
            break
    else:
        return None
    return [(Fraction(a, one), Fraction(b, one)) for a, b in zip(zr, zi)]


def compute_threshold(f: Circuit, ideal: UnivariateIdeal) -> PrecisionBudget:
    """Explicit M and eps realizing the member/nonmember gap.

    Bounds the Lipschitz constant `lip` of f over the root boxes, and
    lower-bounds the nonzero grid values of the remainder R through the
    characteristic polynomial of multiplication by R on the quotient
    algebra, built from the power sums tr(R^k) by Newton's identities.
    Sets M = B3/3 and eps = min(1, M/lip).
    """
    fp = expand(f, EXPAND_CAP)
    n = fp.n
    gens = {v: p for v, p in ideal.generators}
    for v in range(n):
        if v not in gens:
            raise ValueError(f"no generator for variable {v}")
        if not _is_squarefree(gens[v]):
            raise NotSquarefree(f"generator for variable {v} has a repeated root")
    degs = [gens[v].degree() for v in range(n)]
    grid = math.prod(degs)
    if grid > CHARPOLY_GUARD:
        raise ValueError(f"root grid of size {grid} exceeds the threshold guard {CHARPOLY_GUARD}")
    boxes = [root_bound(gens[v]) + 1 for v in range(n)]
    # sum_i sup |df/dx_i| <= sum over terms c x^e of |c| prod(box^e) * sum_i e_i / box_i
    lip = Fraction(0)
    for e, c in fp.terms.items():
        size = abs(Fraction(c))
        for box, exp in zip(boxes, e):
            size *= box**exp
        for box, exp in zip(boxes, e):
            if exp:
                lip += size * exp / box
    reducer = _Reducer(ideal)
    b3 = _grid_value_lower_bound(reducer.reduce(fp), reducer, degs, grid)
    m = b3 / 3
    eps = Fraction(1) if lip == 0 else min(Fraction(1), m / lip)
    L = _bit_bound(list(fp.terms.values()) + [c for p in gens.values() for c in p.coeffs])
    d = max([p.degree() for p in gens.values()] + [max(fp.degree(), 1)])
    return PrecisionBudget(L=L, d=d, n=n, eps=eps, M=m, b3=b3, lip=lip)


def _grid_value_lower_bound(r: SparsePoly, reducer: _Reducer, degs, grid: int) -> Fraction:
    """Lower bound on |R| over grid tuples where R does not vanish.

    The roots of chi(w) = prod over tuples of (w - R(tuple)) are the grid
    values of R (`_grid_charpoly`), so a Cauchy-style lower root bound on
    chi with its factor w^z (one w per vanishing tuple) divided out bounds
    every nonzero grid value from below.
    """
    if r.is_zero():
        return Fraction(1)
    chi = _grid_charpoly(r, reducer, degs, grid)
    t = next(i for i, c in enumerate(chi) if c)
    if t == grid:
        return Fraction(1)  # R vanishes on the whole grid
    tail = [abs(Fraction(c)) for c in chi[t:]]
    return min(Fraction(1), tail[0] / sum(tail[1:]))


def _grid_charpoly(r: SparsePoly, reducer: _Reducer, degs, grid: int) -> list:
    """Coefficients, lowest first, of chi(w) = prod over grid tuples a of (w - R(a)).

    By Stickelberger's theorem the eigenvalues of multiplication by R on
    Q[x]/I are the grid values R(a), so chi is its characteristic
    polynomial and the power sums P_k = sum_a R(a)^k are the traces
    tr(R^k).  The trace of a reduced polynomial is linear in its
    coefficients: tr(x^e) = prod_i s_i(e_i), where s_i(j) is the j-th power
    sum of the roots of p_i.  Newton's identities give the s_i from the fold
    rows and chi from P_1..P_N (N = grid).  Over monic integer generators
    with an integral R every value is an int and each division by k is
    exact; otherwise the same steps run on Fractions.
    """
    trace = {(): 1}
    for v, d in enumerate(degs):
        s = _root_power_sums(reducer.rows[v])
        trace = {e + (j,): t * s[j] for e, t in trace.items() for j in range(d)}
    r = SparsePoly.raw(r.n, {e: rational(c) for e, c in r.terms.items()})
    sums = []
    cur = r
    for k in range(grid):
        if k:
            cur = reducer.mul(cur, r)
        sums.append(sum(c * trace[e] for e, c in cur.terms.items()))
    # chi = sum_k c_k w^(N-k) with c_0 = 1 and k c_k = -(P_k + c_1 P_(k-1) + ... + c_(k-1) P_1)
    cs = [1]
    for k in range(1, grid + 1):
        acc = -sum(cs[i] * sums[k - 1 - i] for i in range(k))
        cs.append(acc // k if type(acc) is int and not acc % k else Fraction(acc, k))
    return cs[::-1]


def _root_power_sums(row) -> list:
    """s(0..d-1), the power sums of the roots of x^d - sum_j row[j] x^j.

    Newton's identities: s(0) = d and s(k) = k row[d-k] + sum_{i<k} row[d-i] s(k-i).
    """
    d = len(row)
    s = [d]
    for k in range(1, d):
        s.append(k * row[d - k] + sum(row[d - i] * s[k - i] for i in range(1, k)))
    return s


def _residual_threshold_sq(budget: PrecisionBudget) -> Fraction:
    return (Fraction(1, 2**budget.L) * budget.eps**budget.d) ** 2


def verify_certificate(
    f: Circuit, ideal: UnivariateIdeal, cert: Certificate, budget: PrecisionBudget
) -> bool:
    """Accept iff every component passes the residual test and |f| >= 2M.

    Both are exact: the residuals through `_poly_abs2`, |f|^2 through
    `_grid_abs2` on the expansion of f at the one tuple of the certificate.
    Acceptance soundly implies nonmembership; rejection decides nothing.
    """
    gens = dict(ideal.generators)
    if cert.n != budget.n:
        raise ValueError("certificate length mismatch")
    eps_bits = budget.eps.denominator.bit_length()
    if cert.bit_size() > 64 * budget.n * (budget.L + budget.d * eps_bits + 64):
        raise ValueError("malformed certificate: component bit size out of budget")
    thr_sq = _residual_threshold_sq(budget)
    for v in range(cert.n):
        if _poly_abs2(gens[v], cert.values[v]) >= thr_sq:
            return False
    value2 = next(_grid_abs2(expand(f, EXPAND_CAP), [[z] for z in cert.values]))
    return value2 >= (2 * budget.M) ** 2


def search_nonmembership(f: Circuit, ideal: UnivariateIdeal, budget: PrecisionBudget | None = None):
    """Decide membership by sweeping all approximate root tuples.

    The tuples come in `itertools.product` order over the roots of
    `approximate_roots`, and `_grid_abs2` gives |f|^2 at each, exactly, from
    the expansion of f.  Returns ("nonmember", certificate) on the first
    tuple with |f| >= 2M, or ("member", None) when every tuple stays below
    M.  A value strictly between M and 2M cannot occur with a valid budget;
    it raises Undecided as a defensive signal rather than being silently
    classified.
    """
    if budget is None:
        budget = compute_threshold(f, ideal)
    gens = dict(ideal.generators)
    grid = math.prod(gens[v].degree() for v in range(budget.n))
    if grid > GRID_GUARD:
        raise ValueError(f"root grid of size {grid} exceeds the search guard {GRID_GUARD}")
    thr_sq = _residual_threshold_sq(budget)
    per_var = [approximate_roots(gens[v], budget.eps, threshold_sq=thr_sq) for v in range(budget.n)]
    m_sq = budget.M**2
    two_m_sq = (2 * budget.M) ** 2
    for tup, v2 in zip(itertools.product(*per_var), _grid_abs2(expand(f, EXPAND_CAP), per_var)):
        if v2 >= two_m_sq:
            return "nonmember", Certificate(tup)
        if v2 > m_sq:
            raise Undecided(f"grid value with |f|^2 = {v2} inside (M, 2M)")
    return "member", None
