"""Randomized membership test for power ideals <x_1^e_1, ..., x_n^e_n>.

A polynomial avoids the ideal exactly when it carries a monomial x^f with
f_i < e_i for every i.  Writing m = sum(e_i - 1), the degree-j survivors are
the monomials of the elementary symmetric polynomial S_{m,j} after each of the
e_i - 1 placeholder copies of x_i is renamed back to x_i.  The test therefore
builds, per degree j <= deg(f), a diagonal circuit D_j that is positively
weakly equivalent to that target (random colorings cover each candidate
monomial with known probability; Fischer's identity turns each coloring's
product of affine forms into explicit j-th powers), and checks whether the
scaled Hadamard product f o^s D_j vanishes.

The scaled Hadamard product against one power summand has a closed form:

    (f o^s c * l^j)(b) = c * j! * f_j(l_1 b_1, ..., l_n b_n)

with f_j the degree-j homogeneous component of f, because the coefficient of
a monomial x^m in l^j is (j!/m!) * prod l_i^(m_i) and the scaling by m!
cancels the multinomial denominator.  `scaled_hadamard_eval` sums this over
the summands, BLOCK of them at a time: the scaled points (l_1 b_1, ...,
l_n b_n) of a block go through one pass of the circuit over power series
truncated after t^j whose coefficients hold one value per point
(`circuits.homogeneous_part_eval`, which works over any field).  A fan-in of
F costs ceil(F / BLOCK) passes, and the memory the evaluation adds is
O(|c| * (j+1) * BLOCK) whatever F is, as the paper's poly(n, k) space bound
needs; one pass over all F summands would hold O(|c| * (j+1) * F).  (D_j
itself is still built whole by `build_detection_circuit`.)  Only the Fischer
construction has a field condition: characteristic 0 or > ceil(1.5j).

Evaluations run modulo fresh random 64-bit primes, on plain-int residues
(no field object is built for a drawn prime), so that circuits over the
integers whose values are doubly exponential stay cheap; a nonzero value
modulo any prime certifies nonmembership, so that side of the answer is
never wrong.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .circuits import Circuit, DiagonalCircuit, homogeneous_part_eval, power_decompose_product
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

    def to_ideal(self, field) -> UnivariateIdeal:
        gens = []
        for i, e in enumerate(self.exponents):
            coeffs = [field.zero] * e + [field.one]
            gens.append((i, UnivariatePoly(coeffs)))
        return UnivariateIdeal(tuple(gens))


def scaled_hadamard_eval(c: Circuit, d: DiagonalCircuit, point, p: int | None = None):
    """(f o^s D)(point) for f computed by `c`, via the closed per-summand form.

    Sums c_j * k! * f_k(l_j1 b_1, ..., l_jn b_n) over the summands c_j * l_j^k
    of `d`, BLOCK summands at a time: each block's scaled points go through
    one `homogeneous_part_eval` pass over the circuit, so the circuit is
    walked ceil(fan-in / BLOCK) times and the extra space is
    O(|c| * (k+1) * BLOCK) whatever the fan-in.  `p=None` keeps exact scalars
    and returns a Fraction.  An int `p` works on plain-int residues: the
    point, the summand coefficients and the form coefficients are mapped with
    `residue` semantics, inverting each distinct denominator once, and the
    value is a residue in [0, p).
    """
    if d.n != c.n:
        raise ValueError("variable count mismatch between circuit and diagonal circuit")
    if p is not None:
        lift = _residue_map(p)
        point = [lift(b) for b in point]
    k = d.degree
    total = 0
    for start in range(0, d.fan_in, BLOCK):
        block = d.summands[start : start + BLOCK]
        if p is None:
            coefs = [coef for coef, _ in block]
            scaled = [[l * b for l, b in zip(form.coeffs, point)] for _, form in block]
        else:
            coefs = [lift(coef) for coef, _ in block]
            # Int coefficients, which build_detection_circuit makes, skip the call.
            scaled = [
                [(l if type(l) is int else lift(l)) * b % p for l, b in zip(form.coeffs, point)]
                for _, form in block
            ]
        total += sum(map(mul, coefs, homogeneous_part_eval(c, k, scaled, p)))
    total *= math.factorial(k)
    return Fraction(total) if p is None else total % p


def _residue_map(p: int):
    """`residue(., p)` that inverts each distinct Fraction denominator once."""
    inverses: dict = {}

    def lift(x):
        if type(x) is int:
            return x % p
        if type(x) is not Fraction:
            return residue(x, p)
        inv = inverses.get(x.denominator)
        if inv is None:
            inv = inverses[x.denominator] = residue(Fraction(1, x.denominator), p)
        return x.numerator * inv % p

    return lift


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

    Every monomial the output carries survives the ideal, and its coefficient
    is positive whenever some coloring covers it, so there is no cancellation
    across colorings.  The fan-in is exactly trials * 2^(ceil(1.5k) - 1).
    """
    n = spec.n
    k = spec.k
    if k == 0:
        return DiagonalCircuit(n, 0, ((Fraction(1), LinearForm((Fraction(0),) * n)),))
    if k > spec.m:
        raise ValueError("degree parameter exceeds the number of placeholder copies")
    owners = [i for i, e in enumerate(spec.exponents) for _ in range(e - 1)]
    kk = _color_count(k)
    summands = []
    for _ in range(trials):
        counts = [[0] * n for _ in range(kk)]
        for owner in owners:
            counts[rng.randrange(kk)][owner] += 1
        forms = [LinearForm(tuple(counts[j]), 1) for j in range(kk)]
        summands.extend(power_decompose_product(forms, k).summands)
    return DiagonalCircuit(n, k, tuple(summands))


def membership_powers(
    c: Circuit, spec: PowerIdealSpec, trials: int | None = None, rng: random.Random | None = None
) -> bool:
    """True means f is certainly NOT in <x_i^e_i>; False means "in ideal".

    Sweeps every degree j = 0..k, since a survivor monomial may have degree
    below the circuit's degree.  "Not in ideal" answers are always correct
    (a value nonzero modulo a prime is nonzero).  A wrong "in ideal" needs a
    coverage failure, an unlucky zero-test point, or a run of bad primes; with
    trials=None each coloring count is sized so the per-degree coverage
    failure is at most 2^-FAILURE_BUDGET, and the other two terms are far
    below that at PRIME_BITS-bit primes.
    """
    rng = rng or random.Random(0)
    k = spec.k
    n = spec.n
    for j in range(min(k, spec.m) + 1):
        if j == 0:
            dj = build_detection_circuit(PowerIdealSpec(spec.exponents, 0), 1, rng)
        else:
            t = trials if trials is not None else _auto_trials(j, spec.m)
            dj = build_detection_circuit(PowerIdealSpec(spec.exponents, j), t, rng)
        for _attempt in range(4):  # fresh prime redraws on a zero result
            p = random_prime(PRIME_BITS, rng)
            point = [rng.randrange(1, p) for _ in range(n)]
            if scaled_hadamard_eval(c, dj, point, p):
                return True
    return False


def _auto_trials(k: int, m: int, budget: int = FAILURE_BUDGET) -> int:
    """Colorings so that binom(m,k) * (1-P)^t <= 2^-budget."""
    p = float(_cover_probability(k))
    need = (budget * math.log(2) + math.log(max(math.comb(m, k), 1))) / p
    return max(coverage_trials(k), math.ceil(need), 1)
