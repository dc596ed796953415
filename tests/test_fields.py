import random
from fractions import Fraction

import pytest

from unideal.fields import GF, FieldMismatch, Mod, is_probable_prime, random_prime, rational, residue

F = Fraction


def test_rational_normalization_is_stdlib():
    x = F(2, -4)
    assert x.numerator == -1 and x.denominator == 2


def test_mod_normalized_into_range():
    p = 13
    assert Mod(-1, p).value == 12


def test_mod_has_no_arithmetic():
    # The kernels compute on plain-int residues; a `Mod` only compares.
    with pytest.raises(TypeError):
        Mod(3, 7) + 1
    assert Mod(3, 7) == 10 and Mod(3, 7) == F(1, 5) and Mod(3, 7) != Mod(3, 11)


def test_mismatched_moduli_rejected():
    with pytest.raises(FieldMismatch):
        residue(Mod(1, 13), 17)
    with pytest.raises(FieldMismatch):
        residue(Fraction(1, 13), 13)


def test_gf_rejects_composite():
    with pytest.raises(ValueError):
        GF(91)  # 7 * 13


def test_field_axioms_spot_check():
    # The residue map is a ring homomorphism: the residue kernels' int
    # arithmetic mod p agrees with the rationals'.
    rng = random.Random(0)
    p = 10007
    for _ in range(1000):
        a, b, c = (rng.randint(-50, 50) for _ in range(3))
        fa, fb, fc = F(a), F(b, 7), F(c, 3)
        assert (fa + fb) * fc == fa * fc + fb * fc
        ra, rb, rc = (residue(x, p) for x in (fa, fb, fc))
        assert residue((fa + fb) * fc, p) == (ra + rb) * rc % p


def test_fraction_lifting_into_prime_field():
    g = GF(7)
    assert g(F(1, 2)) == g(4)  # 2 * 4 = 8 = 1 mod 7
    with pytest.raises(FieldMismatch):
        g(F(1, 7))


def test_exact_entry_points_reject_mods():
    # With p = None a polynomial is over QQ: every exact entry point maps its
    # scalars by `rational` (an int when integral, else a Fraction), so a
    # `Mod` raises rather than running in GF(7).
    from unideal.circuits import CircuitBuilder, expand
    from unideal.division import UnivariateIdeal, _Reducer, divide
    from unideal.linalg import LinearForm
    from unideal.lowrank import LowRankInput, RemEvaluator
    from unideal.poly import SparsePoly, UnivariatePoly

    m = Mod(1, 7)
    x = SparsePoly(1, {(1,): 1})
    mod_ideal = UnivariateIdeal(((0, UnivariatePoly([m, 0, 1])),))
    b = CircuitBuilder(1)
    with_const = b.build(b.mul(b.input(0), b.const(m)))
    b = CircuitBuilder(1)
    with_linear = b.build(b.linear(LinearForm((m,), 0)))
    b = CircuitBuilder(1)
    outer = b.build(b.mul(b.input(0), b.input(0)))
    attempts = [
        lambda: SparsePoly(1, {(1,): m}),
        lambda: x.scale(m),
        lambda: x.evaluate([m]),
        lambda: _Reducer(mod_ideal),
        lambda: divide(x, mod_ideal),
        lambda: expand(with_const),
        lambda: expand(with_linear),
        lambda: RemEvaluator(LowRankInput(outer, (LinearForm((m,)),)), UnivariateIdeal(((0, UnivariatePoly([0, 0, 1])),))),
        lambda: RemEvaluator(LowRankInput(outer, (LinearForm((1,)),)), mod_ideal),
    ]
    for attempt in attempts:
        with pytest.raises(FieldMismatch):
            attempt()
    assert type(rational(F(6, 2))) is int and rational(F(1, 2)) == F(1, 2)
    assert SparsePoly(1, {(1,): 0.5}).terms == {(1,): F(1, 2)}


def test_primality():
    assert is_probable_prime(2) and is_probable_prime(10007)
    assert not is_probable_prime(1) and not is_probable_prime(10005)
    assert is_probable_prime((1 << 61) - 1)  # Mersenne prime
    assert not is_probable_prime((1 << 67) - 1)  # classic composite Mersenne


def test_primality_rejects_strong_pseudoprimes():
    # Each passes Miller-Rabin to every base below the one that catches it.
    assert not is_probable_prime(3215031751)  # bases 2, 3, 5, 7
    assert not is_probable_prime(3825123056546413051)  # bases 2..23
    assert not is_probable_prime(318665857834031151167461)  # bases 2..37
    assert is_probable_prime(41) and is_probable_prime(43)


def test_primality_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(17)
    numbers = list(range(-2, 3000))
    for bits in (32, 64, 81, 82, 100):
        numbers += [rng.getrandbits(bits) | 1 for _ in range(300)]
    for n in numbers:
        assert is_probable_prime(n) == sympy.isprime(n), n


def test_random_prime_stream_is_pinned():
    # The primes drawn for a seed do not depend on how primality is decided.
    want = {
        0: [9625328367889806653, 12700963649918818993, 14021983575550262063],
        1: [17324573639174612641, 16789950873655392269, 15632896013307799313],
        9001: [13851468809915000519, 10221469348557938357, 11697468618379273207],
    }
    for seed, primes in want.items():
        rng = random.Random(seed)
        assert [random_prime(64, rng) for _ in primes] == primes


def test_random_prime_has_requested_bits():
    rng = random.Random(3)
    for bits in (32, 48, 64):
        p = random_prime(bits, rng)
        assert p.bit_length() == bits
        assert is_probable_prime(p)


def test_pipeline_mod_p_consistency():
    # A rational result, reduced mod p, equals the prime-field pipeline.
    from helpers import random_ideal, random_sparse
    from unideal.division import divide
    from unideal.poly import SparsePoly

    rng = random.Random(5)
    p = 10007
    for _ in range(30):
        n = rng.randint(1, 4)
        ideal = random_ideal(rng, n, 3)
        f = random_sparse(rng, n)
        rq = divide(f, ideal)
        rp = divide(SparsePoly(n, f.terms, p), ideal)
        assert SparsePoly(n, rq.terms, p) == rp
