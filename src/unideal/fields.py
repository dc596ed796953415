"""Exact scalar arithmetic: arbitrary-precision rationals and prime residue fields.

A field is its modulus p: None for QQ, a prime p for GF(p).  The caller
states it, from the public entry points down to the kernels, and nothing in
this package infers a field from the type of its scalars.  `kernel_map(p)`
is the one map of input scalars into the kernels, applied once where a
scalar enters: the exact kernels (p = None) hold rationals mapped by
`rational` (an int when integral, else a Fraction), the residue kernels
plain ints in [0, p) mapped by `residue`.  The linear algebra is such a
kernel too.  Values come back in the same form: a Fraction over QQ, an int
in [0, p) over GF(p).  No floating point is used anywhere in the algebraic
core.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, partial

__all__ = [
    "FieldMismatch",
    "Scalar",
    "is_probable_prime",
    "kernel_map",
    "random_prime",
    "rational",
    "residue",
]


class FieldMismatch(ArithmeticError):
    """A scalar with no image in the field (a denominator that vanishes mod
    p), or polynomials of two different fields combined."""


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Miller-Rabin to the twelve bases 2..37 decides primality exactly below this
# bound, psi_12 (Sorenson and Webster, Math. Comp. 2017).
_DETERMINISTIC_BOUND = 318665857834031151167461
_DETERMINISTIC_BASES = _SMALL_PRIMES[:12]
# The number of random bases tried above it.
_RANDOM_ROUNDS = 40


def is_probable_prime(n: int) -> bool:
    """Trial division by the primes 2..41, then Miller-Rabin: exact for
    n < 3.187e23, where the bases are the primes 2..37; above it
    _RANDOM_ROUNDS random bases (deterministic per n)."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _DETERMINISTIC_BOUND:
        bases = _DETERMINISTIC_BASES
    else:
        rng = random.Random(n)
        bases = [rng.randrange(2, n - 1) for _ in range(_RANDOM_ROUNDS)]
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(bits: int, rng: random.Random) -> int:
    """Uniform-ish random prime with exactly `bits` bits."""
    if bits < 2:
        raise ValueError("need at least 2 bits")
    while True:
        c = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(c):
            return c


def _inverse(c, p: int | None = None):
    """1 / c for a nonzero kernel scalar c.  Over QQ (p None) exactly: an
    int c gives an int (c = 1 or -1) or a Fraction, never a float; a
    Fraction gives a Fraction.  Over GF(p) c is a residue and so is 1 / c,
    pow(c, -1, p)."""
    if p is not None:
        return pow(c, -1, p)
    if type(c) is int:
        return c if c in (1, -1) else Fraction(1, c)
    return 1 / c


def rational(x):
    """x as the exact kernels hold a rational: an int when it is integral,
    else a Fraction (a float maps to the Fraction it equals)."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def residue(x, p: int) -> int:
    """The plain-int residue of an exact scalar in [0, p).

    A rational whose denominator vanishes mod p raises FieldMismatch.
    """
    if isinstance(x, int):
        return x % p
    if isinstance(x, Fraction):
        den = x.denominator % p
        if den == 0:
            raise FieldMismatch(f"denominator of {x} vanishes mod {p}")
        return x.numerator * pow(den, -1, p) % p
    raise TypeError(f"cannot coerce {x!r} into GF({p})")


@cache
def kernel_map(p: int | None):
    """The one map of input scalars into the kernels of modulus p:
    `rational` when p is None (QQ), else `residue` mod p.  A p that is not
    prime raises ValueError; the check runs once per modulus (the maps are
    cached)."""
    if p is None:
        return rational
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    return partial(residue, p=p)


# A kernel scalar: an int or a Fraction over QQ, an int residue over GF(p).
Scalar = int | Fraction
