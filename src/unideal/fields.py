"""Exact scalar arithmetic: arbitrary-precision rationals and prime residue fields.

A field is the singleton `QQ` or `GF(p)`, and the caller states it: nothing
in this package infers a field from the type of its scalars.  Both are
callables that map integers and rationals into the field once, at an API
boundary (`QQ` to `fractions.Fraction`, rejecting a `Mod`; `GF(p)` to `Mod`).
`field.p` (None for QQ) is the one bridge to the residue kernels, which work
on plain ints in [0, p) mapped by `residue`; `Mod` is the type of values
handed back to callers.  No floating point is used anywhere in the algebraic
core.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Union

__all__ = [
    "FieldMismatch",
    "Mod",
    "PrimeField",
    "Rationals",
    "GF",
    "QQ",
    "Scalar",
    "is_probable_prime",
    "random_prime",
    "residue",
]


class FieldMismatch(ArithmeticError):
    """Combining scalars that live in different fields."""


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


def _inverse(c):
    """1 / c, exactly: an int c gives an int (c = 1 or -1) or a Fraction,
    never a float; a Fraction or a `Mod` gives one of its own kind."""
    if type(c) is int:
        return c if c in (1, -1) else Fraction(1, c)
    return 1 / c


def residue(x, p: int) -> int:
    """The plain-int residue of an exact scalar in [0, p).

    A rational whose denominator vanishes mod p, or a `Mod` of another
    modulus, raises FieldMismatch.
    """
    if isinstance(x, int):
        return x % p
    if isinstance(x, Mod):
        if x.p != p:
            raise FieldMismatch(f"mixed moduli {p} and {x.p}")
        return x.value
    if isinstance(x, Fraction):
        den = x.denominator % p
        if den == 0:
            raise FieldMismatch(f"denominator of {x} vanishes mod {p}")
        return x.numerator * pow(den, -1, p) % p
    raise TypeError(f"cannot coerce {x!r} into GF({p})")


class Mod:
    """Residue in Z_p for a prime p, always normalized into [0, p)."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _lift(self, other):
        # The residue of `other` in this field, or None for a foreign type.
        if isinstance(other, (int, Fraction, Mod)):
            return residue(other, self.p)
        return None

    def __add__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return Mod(self.value + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return Mod(self.value - v, self.p)

    def __rsub__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return Mod(v - self.value, self.p)

    def __mul__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return Mod(self.value * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        if v == 0:
            raise ZeroDivisionError("division by zero residue")
        return Mod(self.value * pow(v, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        if self.value == 0:
            raise ZeroDivisionError("division by zero residue")
        return Mod(v * pow(self.value, self.p - 2, self.p), self.p)

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        return Mod(pow(self.value, e, self.p), self.p)

    def __neg__(self):
        return Mod(-self.value, self.p)

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        try:
            v = self._lift(other)
        except FieldMismatch:
            return False
        if v is None:
            return NotImplemented
        return self.value == v

    def __hash__(self):
        return hash((self.value, self.p))

    def __repr__(self):
        return f"Mod({self.value}, {self.p})"


class Rationals:
    """The field Q; scalars are fractions.Fraction."""

    char = 0
    p = None

    def __call__(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, Mod):
            raise FieldMismatch(f"{x!r} is not a rational")
        return Fraction(x)

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def __contains__(self, x) -> bool:
        return isinstance(x, Fraction)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = Rationals()


class PrimeField:
    """The field Z_p; the modulus is primality-checked once at construction."""

    def __init__(self, p: int):
        if not is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p

    def __call__(self, x) -> Mod:
        return Mod(residue(x, self.p), self.p)

    @property
    def zero(self) -> Mod:
        return Mod(0, self.p)

    @property
    def one(self) -> Mod:
        return Mod(1, self.p)

    def __contains__(self, x) -> bool:
        return isinstance(x, Mod) and x.p == self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


_GF_CACHE: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """Cached prime-field constructor."""
    f = _GF_CACHE.get(p)
    if f is None:
        f = _GF_CACHE[p] = PrimeField(p)
    return f


Scalar = Union[Fraction, Mod]
