import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import charpoly, det
from unideal.fields import FieldMismatch, residue
from unideal.linalg import Matrix
from unideal.poly import (
    CapExceeded,
    SparsePoly,
    UnivariatePoly,
)

F = Fraction


def sparse(n, terms):
    return SparsePoly(n, {e: F(c) for e, c in terms.items()})


small_polys = st.builds(
    lambda terms: SparsePoly(2, {e: F(c) for e, c in terms.items()}),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-5, 5),
        max_size=4,
    ),
)


def test_zero_coefficients_dropped():
    p = sparse(2, {(1, 0): 1, (0, 1): 0})
    assert (0, 1) not in p.terms
    assert (p - p).is_zero()


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys)
def test_evaluation_is_ring_hom(a, b):
    pt = [F(3), F(-2)]
    assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
    assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)


def test_mul_cap():
    a = sparse(1, {(0,): 1, (1,): 1})
    with pytest.raises(CapExceeded):
        (a * a).mul(a, cap=2)


P = 10007

rational_polys = st.builds(
    lambda terms: SparsePoly(2, {e: F(c, d) for e, (c, d) in terms.items()}),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.tuples(st.integers(-5, 5), st.sampled_from([1, 2, 3, 7])),
        max_size=4,
    ),
)


def to_residues(f):
    return SparsePoly(f.n, f.terms, P)


@settings(max_examples=60, deadline=None)
@given(rational_polys, rational_polys, st.integers(-4, 4))
def test_residue_ops_are_the_image_of_exact_ops(a, b, x):
    # Reducing mod p commutes with every operation, including the ones that
    # leave unreduced ints behind until their final pass.
    ra, rb = to_residues(a), to_residues(b)
    assert all(0 < c < P for c in ra.terms.values())
    assert ra.mul(rb) == to_residues(a.mul(b))
    assert ra + rb == to_residues(a + b)
    assert ra - rb == to_residues(a - b)
    assert -ra == to_residues(-a)
    assert ra.scale(F(3, 2)) == to_residues(a.scale(F(3, 2)))
    assert ra ** 2 == to_residues(a ** 2)
    pt = [F(x), F(2, 7)]
    assert ra.evaluate(pt) == residue(a.evaluate(pt), P)


def test_residue_mul_cap():
    a = SparsePoly(1, {(0,): 1, (1,): 1}, P)
    with pytest.raises(CapExceeded):
        (a * a).mul(a, cap=2)
    # (x + 1)(x - 1) leaves x^2 + p*x + (p - 1) before its final pass; the cap
    # counts only the two terms that survive mod p, as the exact product does.
    b = SparsePoly(1, {(0,): -1, (1,): 1}, P)
    assert a.mul(b, cap=2) == SparsePoly(1, {(0,): -1, (2,): 1}, P)
    assert sparse(1, {(0,): 1, (1,): 1}).mul(sparse(1, {(0,): -1, (1,): 1}), cap=2).terms == {(0,): -1, (2,): 1}


def test_residue_field_mismatch():
    a = SparsePoly(1, {(1,): 1}, 7)
    with pytest.raises(FieldMismatch):
        a + SparsePoly(1, {(1,): 1}, 11)
    with pytest.raises(FieldMismatch):
        a.mul(sparse(1, {(1,): 1}))
    # a denominator that vanishes mod p
    with pytest.raises(FieldMismatch):
        SparsePoly(1, {(1,): F(1, 14)}, 7)
    with pytest.raises(FieldMismatch):
        a.scale(F(2, 7))
    assert SparsePoly(1, {(1,): F(1, 2), (0,): 10}, 7).terms == {(1,): 4, (0,): 3}


def test_zero_poly_evaluates_to_int_zero():
    # No field is inferred from the point: the empty sum is the int 0, and a
    # residue polynomial maps its point mod p.
    z = SparsePoly.zero(2).evaluate([F(1), F(3)])
    assert type(z) is int and z == 0
    assert SparsePoly.zero(0).evaluate([]) == 0
    r = SparsePoly.zero(2, 7).evaluate([1, F(3)])
    assert type(r) is int and r == 0
    assert SparsePoly(1, {(1,): 3}, 7).evaluate([11]) == 5


def test_from_roots_and_eval():
    p = UnivariatePoly.from_roots([F(1), F(2), F(3)])
    s = SparsePoly(1, {(j,): c for j, c in enumerate(p.coeffs)})
    assert p.degree() == 3 and all(s.evaluate([F(t)]) == 0 for t in (1, 2, 3))
    assert s.evaluate([F(0)]) == -6
    assert all(type(c) is F for c in p.coeffs)


def test_charpoly_matches_determinant():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = Matrix([[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)])
        chi = charpoly(m)
        assert chi.degree() == n and chi.terms[(n,)] == 1
        for lam in (F(0), F(1), F(-2), F(5, 3)):
            ident = Matrix([[lam * (1 if i == j else 0) - m[i, j] for j in range(n)] for i in range(n)])
            assert chi.evaluate([lam]) == det(ident)


def test_power_binomial():
    p = sparse(2, {(1, 0): 1, (0, 1): 1})
    sq = p ** 2
    assert sq.terms == {(2, 0): F(1), (1, 1): F(2), (0, 2): F(1)}
