import random
from fractions import Fraction

import pytest

from unideal import fields
from unideal.fields import FieldMismatch, is_probable_prime, random_prime, rational, residue

F = Fraction


def test_rational_normalization_is_stdlib():
    x = F(2, -4)
    assert x.numerator == -1 and x.denominator == 2


def test_mismatched_moduli_rejected():
    with pytest.raises(FieldMismatch):
        residue(Fraction(1, 13), 13)


def test_gf_rejects_composite(monkeypatch):
    # A field is its modulus, and every entry point that computes a value
    # checks that it is prime, once per modulus and process.
    from unideal.apps import permanent_lowrank
    from unideal.circuits import CircuitBuilder
    from unideal.division import UnivariateIdeal
    from unideal.linalg import LinearForm, Matrix
    from unideal.lowrank import LowRankInput, RemEvaluator, rem_eval
    from unideal.poly import UnivariatePoly

    b = CircuitBuilder(1)
    inp = LowRankInput(b.build(b.mul(b.input(0), b.input(0))), (LinearForm((1, 2)),))
    ideal = UnivariateIdeal(tuple((v, UnivariatePoly([0, 0, 1])) for v in range(2)))
    a = Matrix([[1, 2], [2, 4]])
    attempts = [
        lambda p: RemEvaluator(inp, ideal, p),
        lambda p: rem_eval(inp, ideal, [1, 1], p),
        lambda p: permanent_lowrank(a, p),
    ]
    for attempt in attempts:
        with pytest.raises(ValueError, match="91 is not prime"):
            attempt(91)  # 7 * 13
    checked = []
    monkeypatch.setattr(fields, "is_probable_prime", lambda n: checked.append(n) or is_probable_prime(n))
    values = [attempt(1000003) for attempt in attempts[1:] for _ in range(2)]
    attempts[0](1000003)
    assert values == [4, 4, 8, 8] and checked in ([], [1000003])


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
    assert residue(F(1, 2), 7) == residue(4, 7) == 4  # 2 * 4 = 8 = 1 mod 7
    with pytest.raises(FieldMismatch):
        residue(F(1, 7), 7)


def test_exact_entry_points_map_rationals():
    # With p = None a scalar is a rational: `rational` keeps an integral one
    # as an int, and the exact entry points map their scalars through it.
    from unideal.poly import SparsePoly

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
