"""Randomized membership test for power ideals <x_1^e_1, ..., x_n^e_n>.

A polynomial avoids the ideal exactly when it carries a monomial x^f with
f_i < e_i for every i.  Writing m = sum(e_i - 1), the degree-j survivors are
the monomials of the elementary symmetric polynomial S_{m,j} after each of the
e_i - 1 placeholder copies of x_i is renamed back to x_i.  The test therefore
builds, per degree j <= deg(f), a diagonal circuit D_j that is positively
weakly equivalent to that target (random colorings cover each candidate
monomial with known probability; Fischer's identity turns each coloring's
product of affine forms into explicit j-th powers), and checks whether the
scaled Hadamard product f o^s D_j vanishes.  Every coloring has the same
number m = ceil(1.5j) of forms, so all summands of D_j share Fischer's factor
binom(m,j) / (2^(m-1) m!): D_j holds it once as its `scale`, and its summand
coefficients and form entries are ints.

The scaled Hadamard product against one power summand has a closed form:

    (f o^s c * l^j)(b) = c * j! * f_j(l_1 b_1, ..., l_n b_n)

with f_j the degree-j homogeneous component of f, because the coefficient of
a monomial x^m in l^j is (j!/m!) * prod l_i^(m_i) and the scaling by m!
cancels the multinomial denominator.  `scaled_hadamard_eval` sums this over
the summands, BLOCK of them at a time: the scaled points (l_1 b_1, ...,
l_n b_n) of a block go through one pass of the circuit over power series
truncated after t^j whose coefficients hold one value per point
(`circuits.homogeneous_part_eval`, on residues mod p).  A fan-in of
F costs ceil(F / BLOCK) passes, and the memory the evaluation adds is
O(|c| * (j+1) * BLOCK) whatever F is, as the paper's poly(n, k) space bound
needs; one pass over all F summands would hold O(|c| * (j+1) * F).  (D_j
itself is still built whole by `build_detection_circuit`.)  Only the Fischer
construction has a field condition: characteristic 0 or > ceil(1.5j).

Evaluations run modulo fresh random 64-bit primes, on plain-int residues
(a drawn prime is the field, as every modulus is: the circuit's scalars are
mapped once per prime, and the scale is the one scalar of D_j inverted), so
that circuits over the integers whose values are doubly exponential stay
cheap; a nonzero value modulo any prime certifies nonmembership, so that
side of the answer is never wrong.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .circuits import Circuit, DiagonalCircuit, homogeneous_part_eval, map_scalars
from .division import UnivariateIdeal
from .fields import random_prime, residue
from .linalg import LinearForm
from .poly import UnivariatePoly

__all__ = [
    "PowerIdealSpec",
    "scaled_hadamard_eval",
    "build_detection_circuit",
    "coverage_trials",
    "coverage_failure_bound",
    "degree_trials",
    "in_ideal_coverage_bound",
    "membership_powers",
]

# With trials=None, membership_powers sizes each degree's colorings for a
# coverage failure of at most 2^-FAILURE_BUDGET; it evaluates modulo random
# PRIME_BITS-bit primes.
FAILURE_BUDGET = 20
PRIME_BITS = 64

# Summands per pass of scaled_hadamard_eval over the circuit.  On the mlmd
# ops of the control benchmark, blocks of 8 already save 88% of what one
# unbounded block saves and 32 to 128 match it; a fixed block keeps the
# pass's memory independent of the fan-in.
BLOCK = 64


@dataclass(frozen=True)
class PowerIdealSpec:
    """Exponent vector of the ideal plus the degree parameter of the test."""

    exponents: tuple
    k: int

    def __post_init__(self):
        if any(e < 1 for e in self.exponents):
            raise ValueError("exponents must be >= 1")
        if self.k < 0:
            raise ValueError("negative degree parameter")

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def m(self) -> int:
        return sum(e - 1 for e in self.exponents)

    @property
    def degrees(self) -> range:
        """The degrees j the test sweeps: 0..min(k, m), since a survivor
        monomial has degree at most m and may have degree below k."""
        return range(min(self.k, self.m) + 1)

    def to_ideal(self) -> UnivariateIdeal:
        """<x_0^e_0, ..., x_(n-1)^e_(n-1)>, with int coefficients."""
        return UnivariateIdeal(tuple((i, UnivariatePoly([0] * e + [1])) for i, e in enumerate(self.exponents)))


def scaled_hadamard_eval(c: Circuit, d: DiagonalCircuit, point, p: int) -> int:
    """(f o^s D)(point) mod p for f computed by `c`, via the closed per-summand form.

    Sums c_j * k! * f_k(l_j1 b_1, ..., l_jn b_n) over the summands c_j * l_j^k
    of `d` and multiplies by d.scale, BLOCK summands at a time: each block's
    scaled points go through one `homogeneous_part_eval` pass over the
    circuit, so the circuit is walked ceil(fan-in / BLOCK) times and the
    extra space is O(|c| * (k+1) * BLOCK) whatever the fan-in.  The
    circuit's scalars must be residues mod p (`map_scalars`), the point, the
    summand coefficients and the forms must be ints, d.scale * k! is the
    one scalar mapped with `residue`, and the value is a residue in [0, p).
    """
    if d.n != c.n:
        raise ValueError("variable count mismatch between circuit and diagonal circuit")
    k = d.degree
    total = 0
    for start in range(0, d.fan_in, BLOCK):
        block = d.summands[start : start + BLOCK]
        scaled = [list(map(mul, form.coeffs, point)) for _, form in block]
        total += sum(map(mul, [coef for coef, _ in block], homogeneous_part_eval(c, k, scaled, p)))
    return total * residue(d.scale * math.factorial(k), p) % p


def _color_count(k: int) -> int:
    # ceil(1.5 k); more colors never hurt coverage.
    return (3 * k + 1) // 2


def _cover_probability(k: int) -> Fraction:
    """Chance one random coloring assigns k fixed items distinct colors."""
    kk = _color_count(k)
    p = Fraction(1)
    for i in range(k):
        p *= Fraction(kk - i, kk)
    return p


def coverage_trials(k: int) -> int:
    """Colorings needed so a fixed degree-k monomial is missed w.p. <= 2^-k."""
    if k < 1:
        return 1
    return math.ceil(4 * k * math.log(2) / float(_cover_probability(k)))


def coverage_failure_bound(k: int, m: int, trials: int) -> Fraction:
    """Union bound: P(some candidate monomial uncovered by all colorings)."""
    if k < 1:
        return Fraction(0)
    miss = (1 - _cover_probability(k)) ** trials
    return math.comb(m, k) * miss


def build_detection_circuit(spec: PowerIdealSpec, trials: int, rng: random.Random) -> DiagonalCircuit:
    """Sum of per-coloring diagonal circuits covering the surviving monomials.

    Each coloring splits the placeholder copies among m = ceil(1.5k) colors;
    color i gives the affine form 1 + (its copies of each variable).
    Fischer's identity

        l_1 * ... * l_m = (2^(m-1) m!)^(-1) * sum over eps in {+-1}^(m-1) of
                          (prod eps_i) (l_1 + sum_i eps_i l_{i+1})^m,

    with the degree-k part of each (t + u)^m taken as
    binom(m,k) u^(m-k) t^k, turns the product of those forms into
    2^(m-1) k-th powers.  Every form has constant u = 1, so the common
    factor binom(m,k) / (2^(m-1) m!) (the circuit's scale) and each mask's
    coefficient prod(eps) * (1 + sum eps)^(m-k) depend on k alone and are
    computed once; a coloring only adds its rows.  Every monomial the output
    carries survives the ideal, and its coefficient is positive whenever
    some coloring covers it, so there is no cancellation across colorings.
    The fan-in is exactly trials * 2^(m-1), zero coefficients included.
    Needs trials >= 1; at k = 0 the trials and the rng go unused.
    """
    n = spec.n
    k = spec.k
    if trials < 1:
        raise ValueError("need at least one coloring")
    if k == 0:
        return DiagonalCircuit(n, 0, ((1, LinearForm((0,) * n)),))
    if k > spec.m:
        raise ValueError("degree parameter exceeds the number of placeholder copies")
    owners = [i for i, e in enumerate(spec.exponents) for _ in range(e - 1)]
    m = _color_count(k)
    scale = Fraction(math.comb(m, k), 2 ** (m - 1) * math.factorial(m))
    table = []  # (coefficient, signs (1, eps_1, ..., eps_(m-1))) per mask
    for mask in range(2 ** (m - 1)):
        eps = [-1 if (mask >> i) & 1 else 1 for i in range(m - 1)]
        table.append((math.prod(eps) * (1 + sum(eps)) ** (m - k), (1, *eps)))
    summands = []
    for _ in range(trials):
        counts = [[0] * n for _ in range(m)]
        for owner in owners:
            counts[rng.randrange(m)][owner] += 1
        columns = list(zip(*counts))
        for coef, signs in table:
            summands.append((coef, LinearForm(tuple(sum(map(mul, signs, col)) for col in columns), 0)))
    return DiagonalCircuit(n, k, tuple(summands), scale)


def membership_powers(
    c: Circuit, spec: PowerIdealSpec, trials: int | None = None, rng: random.Random | None = None
) -> bool:
    """True means f is certainly NOT in <x_i^e_i>; False means "in ideal".

    Sweeps every degree of `spec.degrees`, drawing `degree_trials` colorings
    at each.  "Not in ideal" answers are always correct (a value nonzero
    modulo a prime is nonzero).  A wrong "in ideal" needs a coverage failure
    (at most `in_ideal_coverage_bound`), an unlucky zero-test point, or a run
    of bad primes; the other two terms are far below 2^-FAILURE_BUDGET at
    PRIME_BITS-bit primes.
    """
    rng = rng or random.Random(0)
    n = spec.n
    for j in spec.degrees:
        t = degree_trials(j, spec.m, trials)
        dj = build_detection_circuit(PowerIdealSpec(spec.exponents, j), t, rng)
        for _attempt in range(4):  # fresh prime redraws on a zero result
            p = random_prime(PRIME_BITS, rng)
            point = [rng.randrange(1, p) for _ in range(n)]
            if scaled_hadamard_eval(map_scalars(c, lambda x: residue(x, p)), dj, point, p):
                return True
    return False


def in_ideal_coverage_bound(spec: PowerIdealSpec, trials: int | None = None) -> Fraction:
    """The coverage term of the error of an "in ideal" answer of
    `membership_powers(c, spec, trials)`: the worst coverage failure over
    the degrees it sweeps, at the colorings it draws for each."""
    return max(coverage_failure_bound(j, spec.m, degree_trials(j, spec.m, trials)) for j in spec.degrees)


def degree_trials(j: int, m: int, trials: int | None = None) -> int:
    """The colorings `membership_powers(..., trials=trials)` draws at degree j:
    `trials`, or with None at least coverage_trials(j) and enough that
    binom(m,j) * (1-P)^t <= 2^-FAILURE_BUDGET, P the chance that one
    coloring covers a degree-j monomial."""
    if trials is not None:
        return trials
    p = float(_cover_probability(j))
    need = (FAILURE_BUDGET * math.log(2) + math.log(max(math.comb(m, j), 1))) / p
    return max(coverage_trials(j), math.ceil(need), 1)
